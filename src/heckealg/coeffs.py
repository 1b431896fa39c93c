"""Exact coefficient arithmetic.

One sparse ring carries every coefficient of the Hecke algebras:

* ``TorusAlgebraElement`` -- finite sums of monomials theta_x z^e with
  x in X^*(T) and e in ZZ^d, i.e. the ring
  ZZ[X^*(T)] (x) ZZ[z_1^{\\pm 1}, .., z_d^{\\pm 1}] of the affine algebra.
  ``terms`` maps one packed int per monomial to its scalar (Kronecker
  packing of monomials, as in Monagan-Pearce, ISSAC 2009):

      key(x, e) = sum_i x_i B^i + sum_j e_j B^(rank + j),   B = 2^WIDTH,

  every exponent one balanced digit in [-MAX_EXP, MAX_EXP].  Then
  key(a) + key(b) = key(ab), and a monomial without z-part has the same
  key whatever d is.  The scalar is an ``int`` in the symbolic and the
  graded algebras and a ``Fraction`` in specialized ones (z fixed to
  rationals).
* The graded coefficient ring S(t^*) (x) ZZ[r_1..r_d] is the same ring
  with nonnegative exponents; the r-exponents take the z-digits.
* ``LaurentZ`` -- ZZ[z_1^{\\pm 1}, .., z_d^{\\pm 1}] = ZZ[ZZ^d], the same
  ring at rank d with the z-exponents as lattice digits.  A
  ``TorusAlgebraElement`` absorbs it on construction and in ``scale`` by
  shifting its keys up by ``rank`` digits; no coefficient stores one.

Every ``TorusAlgebraElement`` carries ``bound``, an upper bound on the
absolute value of its exponents, updated in O(1) per operation.  An
operation whose result could hold an exponent beyond ``MAX_EXP`` raises
``PackedRangeError`` instead of letting a digit wrap into its neighbour.
``monomials(nvars)`` decodes the keys back to (x, e, scalar).  The key
format is private to this module: the Hecke layer reaches packed keys only
through ring operations, ``reflect_telescope`` (the N_s step of the affine
algebra) and ``divide_linear``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Dict, Iterable, Iterator, Optional, Tuple

Exps = Tuple[int, ...]

WIDTH = 32
_HALF = 1 << (WIDTH - 1)
_MASK = (1 << WIDTH) - 1
MAX_EXP = _HALF - 1


class PackedRangeError(OverflowError):
    """An exponent would leave the packed range [-MAX_EXP, MAX_EXP]."""


def _check_bound(bound: int) -> int:
    """``bound``, or PackedRangeError when it exceeds MAX_EXP."""
    if bound > MAX_EXP:
        raise PackedRangeError("exponents up to %d do not fit the packed "
                               "range +-%d" % (bound, MAX_EXP))
    return bound


def _pack(exps: Iterable[int]) -> int:
    """Packed key of an exponent vector: lattice digits, then z-digits.

    Does not check the range; an element checks its bound instead."""
    key = 0
    for e in reversed(tuple(exps)):
        key = (key << WIDTH) + e
    return key


def _unpack(key: int, n: int) -> Tuple[Exps, int]:
    """The n lowest digits of ``key`` and the key of the digits above."""
    out = []
    for _ in range(n):
        d = ((key + _HALF) & _MASK) - _HALF
        out.append(d)
        key = (key - d) >> WIDTH
    return tuple(out), key


@lru_cache(maxsize=4096)
def _packed(exps: Exps) -> Tuple[int, int]:
    """(key, largest absolute exponent) of ``exps``."""
    return _pack(exps), max(map(abs, exps), default=0)


@lru_cache(maxsize=None)
def _low_split(n: int) -> Tuple[int, int]:
    """(offset, mask) with ((key + offset) & mask) - offset the key of the
    n lowest digits of key, so that key minus it holds the digits above."""
    return (sum(_HALF << (WIDTH * i) for i in range(n)),
            (1 << (WIDTH * n)) - 1)


@lru_cache(maxsize=None)
def _signed_permutation(matrix) -> Optional[Tuple[Tuple[int, int], ...]]:
    """(column, sign) of the one nonzero entry of each row of a signed
    permutation matrix; None for any other matrix."""
    out = []
    for row in matrix:
        nonzero = [(j, v) for j, v in enumerate(row) if v]
        if len(nonzero) != 1 or nonzero[0][1] not in (1, -1):
            return None
        out.append(nonzero[0])
    if sorted(j for j, _ in out) != list(range(len(out))):
        return None
    return tuple(out)


class TorusAlgebraElement:
    """Element of ZZ[X^*(T)] (x) scalar ring on packed monomial keys.

    ``terms`` maps key(x, e) (see the module docstring) to a nonzero
    ``int`` or ``Fraction``; ``bound`` bounds the absolute value of every
    exponent.  The constructor takes a lattice vector -> scalar map whose
    scalars are ``LaurentZ`` (absorbed into the z-digits), ``int`` or
    ``Fraction``.  theta_x * theta_y = theta_{x+y}, extended bilinearly.
    Ring operations return an element of the type of ``self``.
    """

    __slots__ = ("rank", "terms", "bound")

    def __init__(self, rank: int, terms: Dict[Exps, object] | None = None):
        self.rank = rank
        out: Dict[int, object] = {}
        get = out.get
        bound = 0
        for x, v in (terms or {}).items():
            x = tuple(x)
            if len(x) != rank:
                raise ValueError("lattice vector %r has rank %d, expected %d"
                                 % (x, len(x), rank))
            xk, size = _packed(x)
            if isinstance(v, LaurentZ):   # its keys move up to the z-digits
                size = max(size, v.bound)
                for zk, c in v.terms.items():
                    k = xk + (zk << (WIDTH * rank))
                    out[k] = get(k, 0) + c
            else:
                out[xk] = get(xk, 0) + v
            bound = max(bound, size)
        self.terms = {k: c for k, c in out.items() if c}
        self.bound = _check_bound(bound)

    @classmethod
    def zero(cls, rank: int) -> "TorusAlgebraElement":
        return cls(rank)

    @classmethod
    def theta(cls, x: Iterable[int], one) -> "TorusAlgebraElement":
        x = tuple(x)
        return cls(len(x), {x: one})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.rank == other.rank \
            and self.terms == other.terms

    def __neg__(self) -> "TorusAlgebraElement":
        return _new(self, {k: -c for k, c in self.terms.items()},
                    self.bound)

    def __add__(self, other: "TorusAlgebraElement") -> "TorusAlgebraElement":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out = dict(self.terms)
        get = out.get
        for k, c in other.terms.items():
            s = get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return _new(self, out, max(self.bound, other.bound))

    def __sub__(self, other: "TorusAlgebraElement") -> "TorusAlgebraElement":
        return self + (-other)

    def __mul__(self, other: "TorusAlgebraElement") -> "TorusAlgebraElement":
        if not isinstance(other, TorusAlgebraElement):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        bound = _check_bound(self.bound + other.bound)
        out: Dict[int, object] = {}
        get = out.get
        items = other.terms.items()
        for k1, c1 in self.terms.items():
            for k2, c2 in items:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return _new(self, {k: c for k, c in out.items() if c}, bound)

    def scale(self, scalar) -> "TorusAlgebraElement":
        """Multiply by a LaurentZ, int or Fraction."""
        if isinstance(scalar, LaurentZ):
            return self * TorusAlgebraElement(self.rank,
                                              {(0,) * self.rank: scalar})
        if not scalar:
            return _new(self, {}, 0)
        return _new(self, {k: c * scalar for k, c in self.terms.items()},
                    self.bound)

    def shift(self, x: Exps) -> "TorusAlgebraElement":
        """Multiply by theta_x."""
        d, size = _packed(tuple(x))
        return _new(self, {k + d: c for k, c in self.terms.items()},
                    _check_bound(self.bound + size))

    def act_matrix(self, matrix) -> "TorusAlgebraElement":
        """theta_x -> theta_{Mx}, z-part untouched."""
        rank = self.rank
        offset, mask = _low_split(rank)
        moves: Dict[int, int] = {}
        bound = self.bound
        out: Dict[int, object] = {}
        get = out.get
        for k, c in self.terms.items():
            xk = ((k + offset) & mask) - offset
            move = moves.get(xk)
            if move is None:
                x, _ = _unpack(xk, rank)
                y = [sum(a * b for a, b in zip(row, x)) for row in matrix]
                bound = _check_bound(max([bound] + [abs(v) for v in y]))
                move = moves[xk] = _pack(y) - xk
            k += move
            out[k] = get(k, 0) + c
        if len(out) < len(self.terms):
            out = {k: c for k, c in out.items() if c}
        return _new(self, out, bound)

    def substitute(self, matrix) -> "TorusAlgebraElement":
        """x_i -> sum_j matrix[j][i] x_j on polynomials in the lattice
        coordinates, z- (r-) part untouched.  A signed permutation is an
        exponent shuffle with signs; any other matrix expands each
        monomial as a product of linear forms."""
        perm = _signed_permutation(matrix)
        if perm is not None:
            return self._permuted(perm)
        rank = self.rank
        lin = [TorusAlgebraElement(rank, {
            tuple(int(k == j) for k in range(rank)): matrix[j][i]
            for j in range(rank) if matrix[j][i]}) for i in range(rank)]
        offset, mask = _low_split(rank)
        out = TorusAlgebraElement(rank)
        for k, c in self.terms.items():
            xk = ((k + offset) & mask) - offset
            x, _ = _unpack(xk, rank)
            if min(x, default=0) < 0:
                raise ValueError("substitution needs nonnegative exponents")
            prod = _new(self, {k - xk: c}, self.bound)
            for i, a in enumerate(x):
                for _ in range(a):
                    prod = prod * lin[i]
            out = out + prod
        return out

    def _permuted(self, perm) -> "TorusAlgebraElement":
        """x_i -> sign x_j on monomials for the signed permutation ``perm``
        of ``_signed_permutation``: digit j of the lattice part becomes
        digit perm[j] of it and the scalar takes the sign
        prod_j sign_j^(new digit j)."""
        rank = self.rank
        offset, mask = _low_split(rank)
        moves: Dict[int, Tuple[int, int]] = {}
        out: Dict[int, object] = {}
        for k, c in self.terms.items():
            xk = ((k + offset) & mask) - offset
            move = moves.get(xk)
            if move is None:
                x, _ = _unpack(xk, rank)
                y = [x[j] for j, _ in perm]
                odd = sum(v for v, (_, s) in zip(y, perm) if s < 0) % 2
                move = moves[xk] = (_pack(y) - xk, -1 if odd else 1)
            out[k + move[0]] = c if move[1] == 1 else -c
        return _new(self, out, self.bound)

    def reflect_telescope(self, root: Exps, coroot: Exps, halvable: bool,
                          factor: "TorusAlgebraElement",
                          bracket: Optional["TorusAlgebraElement"]) -> tuple:
        """(s(c), sum_x c_x D_x factor + s(c) bracket) in one pass, c this
        element, c_x its coefficient of theta_x, s x = x - n root with
        n = <x, coroot>; no bracket term when ``bracket`` is None.

        D_x telescopes along step = root for m = n, or step = 2 root for
        m = n/2 when ``halvable``: theta_x + .. + theta_{x - (m-1) step}
        for m > 0, zero for m = 0, -(theta_{x + step} + .. +
        theta_{x - m step}) for m < 0; so D_x (1 - theta_{-step}) =
        theta_x - theta_{x - m step} (Bernstein-Lusztig).  Keys add, so
        key(s x) = key(x) - n key(root): each lattice part is decoded once.
        Bounds: that of ``act_matrix`` for s(c); the larger of bound(c) +
        max|n| max|root| + bound(factor) and bound(s(c)) + bound(bracket)
        for the correction."""
        rank = self.rank
        akey = _pack(root)
        skey = 2 * akey if halvable else akey
        offset, mask = _low_split(rank)
        moves: Dict[int, tuple] = {}
        bound, reach = self.bound, 0
        image, tele = {}, {}   # s(c), sum_x c_x D_x
        get = tele.get
        for k, v in self.terms.items():
            xk = ((k + offset) & mask) - offset
            move = moves.get(xk)
            if move is None:
                x, _ = _unpack(xk, rank)
                n = sum(map(mul, x, coroot))
                if n:
                    reach = max(reach, abs(n))
                    bound = _check_bound(max(bound, max(
                        abs(a - n * r) for a, r in zip(x, root))))
                m = n // 2 if halvable else n
                ds = range(0, -m * skey, -skey) if m > 0 else \
                    range(skey, (1 - m) * skey, skey)   # D_x's keys - key(x)
                move = moves[xk] = (-n * akey, ds, m < 0)
            sk, ds, neg = move
            image[k + sk] = v   # s permutes the keys: no two terms meet
            if neg:
                v = -v
            for y in ds:
                y += k
                tele[y] = get(y, 0) + v
        out: Dict[int, object] = {}
        get = out.get
        for part, mult in ((tele, factor), (image, bracket)):
            for fk, b in mult.terms.items() if mult is not None else ():
                for k, v in part.items():
                    key = k + fk
                    out[key] = get(key, 0) + v * b
        cbound = self.bound + factor.bound + (
            reach * max(map(abs, root)) if factor else 0)
        if bracket is not None:
            cbound = max(cbound, bound + bracket.bound)
        return _new(self, image, bound), _new(
            self, {k: c for k, c in out.items() if c}, _check_bound(cbound))

    def divide_linear(self, alpha: Exps) -> "TorusAlgebraElement":
        """Exact quotient of a polynomial by the linear form
        sum_i alpha_i x_i.

        Works down the layers of the pivot variable's digit, carrying the
        other digits (the r-exponents among them) along.  A nonzero
        remainder or a fractional quotient of int scalars raises
        ArithmeticError."""
        rank = self.rank
        if not self:
            return TorusAlgebraElement(rank)
        pivots = [i for i, c in enumerate(alpha) if c]
        pivot = min(pivots, key=lambda i: (abs(alpha[i]) != 1, i))
        c_piv = alpha[pivot]
        # each step moves one unit from the pivot digit to another digit, so
        # no digit passes twice the input's bound
        _check_bound(2 * self.bound)
        unit = 1 << (WIDTH * pivot)
        others = [(1 << (WIDTH * j), cj) for j, cj in enumerate(alpha)
                  if j != pivot and cj]
        layers: Dict[int, Dict[int, object]] = {}
        low = _low_split(pivot + 1)[0]   # layers by the pivot digit
        for k, v in self.terms.items():
            layers.setdefault((((k + low) >> (WIDTH * pivot)) & _MASK) - _HALF,
                              {})[k] = v
        quot: Dict[int, object] = {}
        for deg in range(max(layers), 0, -1):
            layer = layers.pop(deg, {})
            below = layers.setdefault(deg - 1, {})
            for k, v in layer.items():
                if not v:
                    continue
                if isinstance(v, Fraction):
                    q = v / c_piv
                elif v % c_piv:
                    raise ArithmeticError("inexact division by %r" % (alpha,))
                else:
                    q = v // c_piv
                qk = k - unit
                quot[qk] = q
                # subtract q * (alpha - c_piv x_pivot): the other variables
                for unit_j, cj in others:
                    mk = qk + unit_j
                    below[mk] = below.get(mk, 0) - q * cj
        if any(any(layer.values()) for layer in layers.values()):
            raise ArithmeticError("nonzero remainder in division by %r"
                                  % (alpha,))
        return _new(self, quot, self.bound)

    def monomials(self, nvars: int) -> Iterator[Tuple[Exps, Exps, object]]:
        """(x, e, scalar) for every term: the lattice exponents, the
        ``nvars`` z- (or r-) exponents and the scalar.  Raises ValueError
        when a monomial has a nonzero z-exponent past ``nvars``."""
        rank = self.rank
        for k, c in self.terms.items():
            x, rest = _unpack(k, rank)
            e, rest = _unpack(rest, nvars)
            if rest:
                raise ValueError("monomial with more than %d z-exponents"
                                 % nvars)
            yield x, e, c

    def __repr__(self):
        if not self.terms:
            return "0"
        groups: Dict[Exps, Dict[int, object]] = {}   # z-keys by lattice part
        for k, c in self.terms.items():
            x, zk = _unpack(k, self.rank)
            groups.setdefault(x, {})[zk] = c
        # enough z-digits for every z-key; the text shows no zero exponent
        nvars = max(abs(zk) for g in groups.values() for zk in g
                    ).bit_length() // WIDTH + 1
        parts = []
        for x in sorted(groups):
            g = groups[x]
            text = repr(g[0]) if len(g) == 1 and isinstance(
                g.get(0), Fraction) else _z_text(g, nvars)
            parts.append("(%s)*theta%s" % (text, list(x)))
        return " + ".join(parts)


# The ring product, reached by LaurentZ directly so that a wrapper on
# TorusAlgebraElement.__mul__ (bench/tracing.py) counts torus products only.
_product = TorusAlgebraElement.__mul__


def _new(like: TorusAlgebraElement, terms: Dict[int, object], bound: int
         ) -> TorusAlgebraElement:
    """An element of the type and rank of ``like`` on already packed,
    already nonzero terms."""
    r = object.__new__(type(like))
    r.rank = like.rank
    r.terms = terms
    r.bound = bound
    return r


def _z_text(terms: Dict[int, object], nvars: int) -> str:
    """``terms`` (keys of ``nvars`` z-digits) as a sum of z1^k monomials."""
    if not terms:
        return "0"
    parts = []
    for e, c in sorted((_unpack(k, nvars)[0], c) for k, c in terms.items()):
        factors = [str(abs(c))] if abs(c) != 1 or not any(e) else []
        factors += ["z%d^%d" % (j + 1, k) for j, k in enumerate(e) if k]
        parts.append(("- " if c < 0 else "+ ") + "*".join(factors))
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


class LaurentZ(TorusAlgebraElement):
    """Laurent polynomial over ZZ in z_1 .. z_nvars: the element of rank
    ``nvars`` whose lattice digits are the z-exponents.  A LaurentZ equals
    only a LaurentZ and also multiplies by an ``int``."""

    __slots__ = ()

    @property
    def nvars(self) -> int:
        return self.rank

    @classmethod
    def one(cls, nvars: int) -> "LaurentZ":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def const(cls, nvars: int, c: int) -> "LaurentZ":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, nvars: int, exps: Iterable[int], coeff: int = 1) -> "LaurentZ":
        return cls(nvars, {tuple(exps): coeff})

    @classmethod
    def var_power(cls, nvars: int, j: int, power: int, coeff: int = 1) -> "LaurentZ":
        """coeff * z_j^power, with j 1-based."""
        return cls.monomial(nvars, (0,) * (j - 1) + (power,)
                            + (0,) * (nvars - j), coeff)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return _product(self, other)

    def __rmul__(self, other):
        return self.scale(other) if isinstance(other, int) else NotImplemented

    def is_one(self) -> bool:
        return self.terms == {0: 1}

    def __repr__(self):
        return _z_text(self.terms, self.rank)


def z_bracket(nvars: int, j: int, m: int) -> LaurentZ:
    """z_j^m - z_j^{-m}; zero when m = 0."""
    if m == 0:
        return LaurentZ.zero(nvars)
    return LaurentZ.var_power(nvars, j, m) - LaurentZ.var_power(nvars, j, -m)


# ---------------------------------------------------------------------------
# Exact evaluation at finite-order torus points: values in ZZ[mu_N] (x) QQ.
# ---------------------------------------------------------------------------

def _moebius(n: int) -> int:
    m, p, cnt = n, 2, 0
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            cnt += 1
        p += 1
    if m > 1:
        cnt += 1
    return -1 if cnt % 2 else 1


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_divexact(a, b):
    """Exact division of integer polynomials (lists, ascending degree)."""
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = a[i + len(b) - 1]
        if c % b[-1]:
            raise ArithmeticError("inexact polynomial division")
        q = c // b[-1]
        out[i] = q
        if q:
            for j, y in enumerate(b):
                a[i + j] -= q * y
    if any(a[: len(b) - 1]):
        raise ArithmeticError("nonzero remainder")
    return out


def cyclotomic_polynomial(n: int):
    """Coefficients of Phi_n, ascending degree."""
    num = [1]
    den = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            mu = _moebius(n // d)
            f = [-1] + [0] * (d - 1) + [1]  # x^d - 1
            if mu == 1:
                num = _poly_mul(num, f)
            elif mu == -1:
                den = _poly_mul(den, f)
    return _poly_divexact(num, den)


class CyclotomicValue:
    """Element of QQ[zeta_N] in the canonical basis 1, zeta, .., zeta^{phi(N)-1}."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Dict[int, Fraction] | None = None):
        self.order = order
        raw: Dict[int, Fraction] = {}
        for k, c in (coeffs or {}).items():
            if c:
                raw[k % order] = raw.get(k % order, Fraction(0)) + c
        self.coeffs = _reduce_mod_cyclotomic(order, raw)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = CyclotomicValue(self.order, {0: Fraction(other)})
        return isinstance(other, CyclotomicValue) and self.order == other.order \
            and self.coeffs == other.coeffs

    def __add__(self, other: "CyclotomicValue") -> "CyclotomicValue":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + c
        return CyclotomicValue(self.order, out)

    def __mul__(self, other: "CyclotomicValue") -> "CyclotomicValue":
        if self.order != other.order:
            raise ValueError("cyclotomic order mismatch")
        out: Dict[int, Fraction] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = (k1 + k2) % self.order
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return CyclotomicValue(self.order, out)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join("%s*zeta%d^%d" % (c, self.order, k)
                          for k, c in sorted(self.coeffs.items()))


def _reduce_mod_cyclotomic(order: int, raw: Dict[int, Fraction]) -> Dict[int, Fraction]:
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    dense = [Fraction(0)] * order
    for k, c in raw.items():
        dense[k] += c
    # synthetic division by the monic Phi_order
    for i in range(order - 1, deg - 1, -1):
        c = dense[i]
        if c:
            dense[i] = Fraction(0)
            for j in range(deg):
                dense[i - deg + j] -= c * phi[j]
    return {k: c for k, c in enumerate(dense[:deg]) if c}


def evaluate_at_point(elem: TorusAlgebraElement, exponents: Tuple[int, ...],
                      order: int, zvals: Tuple[Fraction, ...]) -> CyclotomicValue:
    """Evaluate at the point exp(2*pi*i*exponents/order), z_j = zvals[j].

    theta_x contributes zeta_N^{<x, exponents>}; z-monomials evaluate to
    exact rationals.
    """
    acc: Dict[int, Fraction] = {}
    for x, e, c in elem.monomials(len(zvals)):
        k = sum(a * b for a, b in zip(x, exponents)) % order
        v = Fraction(c)
        for zj, ej in zip(zvals, e):
            v *= Fraction(zj) ** ej
        acc[k] = acc.get(k, Fraction(0)) + v
    return CyclotomicValue(order, acc)
