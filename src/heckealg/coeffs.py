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
  key whatever d is.  Scalars are ``int``s (ZZ-mode: the symbolic and
  graded algebras) or ``int`` numerators over one content-reduced
  denominator (QQ-mode: specialized algebras, z fixed to rationals;
  Geddes-Czapor-Labahn, Algorithms for Computer Algebra, ch. 2), so
  ring operations stay in integer arithmetic.
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
``monomial_groups`` decodes the keys, which stay private to this
module.  The Hecke layer reaches them only through ring operations,
``divide_linear`` and blocks: a partial product is one block, a raw
[terms, bound] per table id over one denominator.
``map_monomials``, the one N_s kernel of both algebras, maps a whole block
in one call; ``mul_into`` adds a coefficient times a block into another,
and ``settle`` turns a block into elements.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, Iterable, Optional, Sequence, Tuple

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
def _signed_permutation(matrix) -> Optional[Tuple[tuple, int]]:
    """For a signed permutation matrix, its entrywise absolute value and
    the mask of the lowest bit of digit i for each row i holding a -1;
    None for any other matrix."""
    out = []
    for row in matrix:
        nonzero = [(j, v) for j, v in enumerate(row) if v]
        if len(nonzero) != 1 or nonzero[0][1] not in (1, -1):
            return None
        out.append(nonzero[0])
    if sorted(j for j, _ in out) != list(range(len(out))):
        return None
    return (tuple(tuple(map(abs, row)) for row in matrix),
            sum(1 << (WIDTH * i) for i, (_, v) in enumerate(out) if v < 0))


class TorusAlgebraElement:
    """Element of ZZ[X^*(T)] (x) scalar ring on packed monomial keys.

    ``terms`` maps key(x, e) (see the module docstring) to a nonzero
    ``int``: the scalar in ZZ-mode (``den`` None), its numerator in
    QQ-mode (``den`` > 0, gcd(den, numerators) = 1, den 1 for zero);
    ``bound`` bounds the absolute value of every exponent.  Constructor
    scalars: ``LaurentZ`` (absorbed into the z-digits) or ``int`` give
    ZZ-mode, ``Fraction`` QQ-mode (a ZZ and a QQ element combine in QQ),
    others raise TypeError; both kinds at once give ``den`` 0, kept as
    given, which ``hecke.multiply`` refuses and ``+`` and ``*`` raise
    TypeError on.  theta_x * theta_y = theta_{x+y}, extended bilinearly;
    ring operations return an element of the type of ``self``.
    """

    __slots__ = ("rank", "terms", "bound", "den")

    def __init__(self, rank: int, terms: Dict[Exps, object] | None = None):
        self.rank = rank
        out: Dict[int, object] = {}
        get = out.get
        bound = 0
        ints = fracs = False   # the scalar kinds given
        for x, v in (terms or {}).items():
            x = tuple(x)
            if len(x) != rank:
                raise ValueError("lattice vector %r has rank %d, expected %d"
                                 % (x, len(x), rank))
            xk, size = _packed(x)
            if isinstance(v, LaurentZ) and v.den is None:   # to the z-digits
                ints = True
                size = max(size, v.bound)
                for zk, c in v.terms.items():
                    k = xk + (zk << (WIDTH * rank))
                    out[k] = get(k, 0) + c
            elif isinstance(v, int):
                ints = True
                out[xk] = get(xk, 0) + v
            elif isinstance(v, Fraction):
                fracs = True
                out[xk] = get(xk, 0) + v
            else:
                raise TypeError("scalar %r is not an int, a Fraction or a "
                                "LaurentZ over ZZ" % (v,))
            bound = max(bound, size)
        out = {k: c for k, c in out.items() if c}
        den = None
        if fracs:
            if ints:
                den = 0
            else:   # lowest terms in, so gcd(den, numerators) = 1 out
                den = lcm(*(c.denominator for c in out.values()))
                out = {k: c.numerator * (den // c.denominator)
                       for k, c in out.items()}
        self.terms = out
        self.bound = _check_bound(bound)
        self.den = den

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
        """By value: ZZ-integers equal QQ-ones over den 1."""
        return type(other) is type(self) and self.rank == other.rank \
            and self.terms == other.terms \
            and (self.den or 1) == (other.den or 1)

    def __neg__(self) -> "TorusAlgebraElement":
        return _new(self, {k: -c for k, c in self.terms.items()},
                    self.bound, self.den)

    def __add__(self, other: "TorusAlgebraElement") -> "TorusAlgebraElement":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        den, fs, fo = _common(self.den, other.den)
        acc = dict(self.terms) if fs == 1 else \
            {k: c * fs for k, c in self.terms.items()}
        get = acc.get
        for k, c in other.terms.items():
            acc[k] = get(k, 0) + c * fo
        return _settled(self, acc, max(self.bound, other.bound), den)

    def __sub__(self, other: "TorusAlgebraElement") -> "TorusAlgebraElement":
        return self + (-other)

    def __mul__(self, other: "TorusAlgebraElement") -> "TorusAlgebraElement":
        if not isinstance(other, TorusAlgebraElement):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out = [{}, None]
        mul_into(out, self, [{0: [other.terms, other.bound]}, other.den])
        (terms, bound), = out[0].values()
        return _settled(self, terms, bound, out[1])

    def scale(self, scalar) -> "TorusAlgebraElement":
        """Multiply by a scalar the constructor takes (a Fraction moves a
        ZZ-element to QQ); any other raises TypeError."""
        if isinstance(scalar, int):   # no scalar element to build
            return _new(self, {k: c * scalar for k, c in self.terms.items()}
                        if scalar else {}, self.bound if scalar else 0,
                        self.den)
        return self * TorusAlgebraElement(self.rank,
                                          {(0,) * self.rank: scalar})

    def shift(self, x: Exps) -> "TorusAlgebraElement":
        """Multiply by theta_x."""
        d, size = _packed(tuple(x))
        return _new(self, {k + d: c for k, c in self.terms.items()},
                    _check_bound(self.bound + size), self.den)

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
        return _settled(self, out, bound, self.den)

    def substitute(self, matrix) -> "TorusAlgebraElement":
        """x_i -> sum_j matrix[j][i] x_j on polynomials in the lattice
        coordinates, z- (r-) part untouched.  A signed permutation is
        ``act_matrix`` by its absolute value, then a sign per monomial, the
        parity of its new exponents at the rows holding a -1; any other
        matrix expands each monomial as a product of linear forms."""
        perm = _signed_permutation(matrix)
        if perm is not None:
            return _flip_signs(self.act_matrix(perm[0]), perm[1], 0)
        rank = self.rank
        offset, mask = _low_split(rank)
        lin = [TorusAlgebraElement(rank, {
            tuple(int(k == j) for k in range(rank)): matrix[j][i]
            for j in range(rank) if matrix[j][i]}) for i in range(rank)]
        out = TorusAlgebraElement(rank)
        for k, c in self.terms.items():
            xk = ((k + offset) & mask) - offset
            x, _ = _unpack(xk, rank)
            if min(x, default=0) < 0:
                raise ValueError("substitution needs nonnegative exponents")
            prod = _new(self, {k - xk: c}, self.bound, self.den)
            for i, a in enumerate(x):
                for _ in range(a):
                    prod = prod * lin[i]
            out = out + prod
        return out

    def divide_linear(self, alpha: Exps) -> "TorusAlgebraElement":
        """Exact quotient of a polynomial by the linear form
        sum_i alpha_i x_i.

        Works down the layers of the pivot variable's digit, carrying the
        other digits (the r-exponents among them) along.  A nonzero
        remainder or a fractional quotient in ZZ-mode raises
        ArithmeticError.  QQ-mode first multiplies numerators and ``den``
        by |c_pivot|: by Gauss's lemma an exact quotient has a denominator
        dividing den * content(alpha), so every step then divides."""
        rank = self.rank
        den = self.den
        if not self:
            return _new(self, {}, 0, den)
        pivots = [i for i, c in enumerate(alpha) if c]
        pivot = min(pivots, key=lambda i: (abs(alpha[i]) != 1, i))
        c_piv = alpha[pivot]
        # each step moves one unit from the pivot digit to another digit, so
        # no digit passes twice the input's bound
        _check_bound(2 * self.bound)
        unit = 1 << (WIDTH * pivot)
        others = [(1 << (WIDTH * j), cj) for j, cj in enumerate(alpha)
                  if j != pivot and cj]
        clear = 1
        if den is not None:
            clear = abs(c_piv)
            den = _qden(den) * clear
        layers: Dict[int, Dict[int, object]] = {}
        low = _low_split(pivot + 1)[0]   # layers by the pivot digit
        for k, v in self.terms.items():
            layers.setdefault((((k + low) >> (WIDTH * pivot)) & _MASK) - _HALF,
                              {})[k] = v * clear
        quot: Dict[int, object] = {}
        for deg in range(max(layers), 0, -1):
            layer = layers.pop(deg, {})
            below = layers.setdefault(deg - 1, {})
            for k, v in layer.items():
                if not v:
                    continue
                if v % c_piv:
                    raise ArithmeticError("inexact division by %r" % (alpha,))
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
        return _new(self, quot, self.bound, den)

    def __repr__(self):
        if not self.terms:
            return "0"
        groups: Dict[Exps, Dict[int, object]] = {}   # z-keys by lattice part
        den = self.den
        for k, c in self.terms.items():
            x, zk = _unpack(k, self.rank)
            groups.setdefault(x, {})[zk] = Fraction(c, den) if den else c
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


def _new(like: TorusAlgebraElement, terms: Dict[int, object], bound: int,
         den: Optional[int]) -> TorusAlgebraElement:
    """An element of the type and rank of ``like`` on already packed,
    already nonzero terms; a QQ-element is reduced by its content."""
    if den:
        g = gcd(den, *terms.values())
        if g != 1:
            terms = {k: c // g for k, c in terms.items()}
            den //= g
    r = object.__new__(type(like))
    r.rank = like.rank
    r.terms = terms
    r.bound = bound
    r.den = den
    return r


def _settled(like: TorusAlgebraElement, terms: Dict[int, object], bound: int,
             den: Optional[int]) -> TorusAlgebraElement:
    """``_new`` on terms that may hold zeros."""
    if 0 in terms.values():
        terms = {k: c for k, c in terms.items() if c}
    return _new(like, terms, bound, den)


def _qden(den: Optional[int]) -> int:
    """``den`` in QQ-mode, 1 in ZZ-mode; TypeError for mixed scalars."""
    if den == 0:
        raise TypeError("int and Fraction scalars mixed in one element")
    return den or 1


def _common(da: Optional[int], db: Optional[int]) -> Tuple:
    """(den, fa, fb): the denominator of a sum (None in ZZ) and the
    factors that bring the numerators of the summands over it."""
    if da == db != 0:
        return da, 1, 1
    den = lcm(_qden(da), _qden(db))
    return den, den // (da or 1), den // (db or 1)


def monomial_groups(cs: Sequence[TorusAlgebraElement], nvars: int) -> list:
    """(exponents, [(j, scalar), ..]) per monomial of the elements ``cs``,
    sorted by its lattice then its ``nvars`` z- (r-) exponents, with j
    ascending over the cs that hold it; each monomial is decoded once.
    The scalar is an ``int`` in ZZ-mode and a ``Fraction`` in QQ-mode.
    Raises ValueError for a nonzero z-exponent past ``nvars``."""
    by_key: Dict[int, list] = {}
    for j, c in enumerate(cs):
        den = c.den
        for k, v in c.terms.items():
            by_key.setdefault(k, []).append((j, Fraction(v, den) if den
                                             else v))
    n = cs[0].rank + nvars if cs else 0
    out = sorted((_unpack(k, n), js) for k, js in by_key.items())
    if any(rest for (_, rest), _ in out):
        raise ValueError("monomial with more than %d z-exponents" % nvars)
    return [(exps, js) for (exps, _), js in out]


# ---------------------------------------------------------------------------
# Blocks: partial products over table ids
# ---------------------------------------------------------------------------

def block(cs: Dict[int, TorusAlgebraElement]) -> list:
    """The block [parts, den] of the elements ``cs``: parts maps each id to
    [terms, bound], an element's but for zeros in the terms, which readers
    skip, over den, None in ZZ-mode and else the lcm of the dens of cs,
    content not reduced.  No function writes into a block it only reads."""
    dens = {c.den for c in cs.values()}
    den = None if dens <= {None} else lcm(*map(_qden, dens))
    return [{u: [c.terms if c.den == den else {
        k: v * (den // _qden(c.den)) for k, v in c.terms.items()}, c.bound]
        for u, c in cs.items()}, den]


def settle(blk: list, like: TorusAlgebraElement
           ) -> Dict[int, TorusAlgebraElement]:
    """The nonzero elements, of the type and rank of ``like``, that ``blk``
    holds, by id."""
    den = blk[1]
    return {u: c for u, (terms, bound) in blk[0].items()
            if (c := _settled(like, terms, bound, den)).terms}


def _flip_signs(c: TorusAlgebraElement, low: int, n: int
                ) -> TorusAlgebraElement:
    """Each monomial of c times (-1)^(n + the sum of its lattice exponents
    at the digits whose lowest bit ``low`` holds), read off those bits."""
    offset = _low_split(c.rank)[0]
    return _new(c, {k: -v if (((k + offset) & low).bit_count() + n) & 1
                    else v for k, v in c.terms.items()}, c.bound, c.den)


def negate_lattice(c: TorusAlgebraElement, n: int) -> TorusAlgebraElement:
    """(-1)^n c(-x), z- (r-) part untouched: the sign pass over every
    lattice digit."""
    return _flip_signs(c, _low_split(c.rank)[0] >> (WIDTH - 1), n)


def _mul_terms(acc: Dict[int, object], xs: Dict[int, object],
               ys: Dict[int, object], m) -> None:
    """Add m times the product of the term dicts ``xs`` and ``ys`` into
    ``acc``; zeros of ``xs`` are skipped.  Checks no range."""
    get = acc.get
    for k1, c1 in xs.items():
        if c1:
            c1 *= m
            for k2, c2 in ys.items():
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2


def mul_into(out: list, a: TorusAlgebraElement, blk: list) -> None:
    """Add a times every id of ``blk`` to the same id of the block ``out``;
    a one-term factor is a key shift and a scalar product."""
    parts, den = blk
    acc_parts, oden = out
    den = None if a.den is den is None else _qden(a.den) * _qden(den)
    m = 1
    if oden != den:
        out[1], fs, m = _common(oden, den)
        if fs != 1:
            for terms, _ in acc_parts.values():
                for k in terms:
                    terms[k] *= fs
    xa, abound = a.terms, a.bound
    for u, (terms, bound) in parts.items():
        bound = _check_bound(abound + bound)
        part = acc_parts.get(u)
        # the block's terms outside, where their zeros are skipped, unless
        # they are the one-term factor
        xs, ys = (xa, terms) if len(terms) == 1 < len(xa) else (terms, xa)
        if part is None:
            if len(ys) == 1:   # keys shifted by one key stay distinct
                (k2, c2), = ys.items()
                c2 *= m
                acc_parts[u] = [{k + k2: c * c2 for k, c in xs.items()},
                                bound]
                continue
            part = acc_parts[u] = [{}, bound]
        elif bound > part[1]:
            part[1] = bound
        _mul_terms(part[0], xs, ys, m)


def map_monomials(blk: list, step: tuple, perm, lengths) -> list:
    """The block of N_s times the block ``blk``: the coefficient c of id u
    gives f(c) to id perm[u] and g(c) factor, plus f(c) bracket when
    lengths[perm[u]] < lengths[u] (and bracket is not None), to id u, for
    ``step`` = (table, build, factor, bracket): f and g fix the z- (r-)
    part and are linear over it, and ``build(x)`` gives (f(theta_x),
    g(theta_x)), free of z and over ZZ.  ``table``, bound to this step,
    maps each lattice part x met so far to (bound of f(theta_x), bound of
    g(theta_x), f(theta_x), g(theta_x) factor, g(theta_x) factor +
    f(theta_x) bracket): (key offset, scalar) pairs kept once by
    ``_shared``, the products over the common denominator mden of factor
    and bracket, which the new block's den(blk) mden holds; a part whose
    ``build`` raises is not recorded.  Per id, f(c) has the bound F =
    max(bound(c), those of f(theta_x)); the correction, checked before it
    is written, G + bound(factor) (G the same for g, over the nonzero
    g(theta_x) factor) and, when shorter, at least F + bound(bracket)."""
    table, build, factor, bracket = step
    parts, den = blk
    rank = factor.rank
    offset, mask = _low_split(rank)
    mden, ff, fb = (factor.den, 1, 1) if bracket is None else \
        _common(factor.den, bracket.den)
    mi = 1 if den is mden is None else _qden(mden)   # f(c) over the new den
    den = None if den is mden is None else _qden(den) * mi
    out: Dict[int, list] = {}
    get_part = out.get
    for u, (terms, bound) in parts.items():
        su = perm[u]
        image = get_part(su)
        if image is None:
            image = out[su] = [{}, 0]
        corr = get_part(u)
        if corr is None:
            corr = out[u] = [{}, 0]
        shorter = lengths[su] < lengths[u]
        acc = image[0]
        get = acc.get
        fbound, gbound = bound, -1   # -1: no g(theta_x) factor met
        hits = []   # (key, scalar, correction terms), added once in range
        for k, v in terms.items():
            if not v:
                continue
            xk = ((k + offset) & mask) - offset
            entry = table.get(xk)
            if entry is None:
                f, g = build(_unpack(xk, rank)[0])
                long: Dict[int, object] = {}
                _mul_terms(long, g.terms, factor.terms, ff)
                short = dict(long)
                if bracket is not None:
                    _mul_terms(short, f.terms, bracket.terms, fb)
                entry = table[xk] = (f.bound, g.bound, *(_shared(tuple(
                    (ek - xk, w) for ek, w in e.items() if w))
                    for e in (f.terms, long, short)))
            bf, bg, fs, long, short = entry
            if bf > fbound:
                fbound = bf
            if long and bg > gbound:
                gbound = bg
            vi = v * mi
            for d, w in fs:
                d += k
                acc[d] = get(d, 0) + vi * w
            ts = short if shorter else long
            if ts:
                hits.append((k, v, ts))
        if fbound > image[1]:
            image[1] = fbound
        if not hits:
            continue
        cbound = max(bound, gbound) + factor.bound if gbound >= 0 else 0
        if shorter and bracket is not None:
            cbound = max(cbound, fbound + bracket.bound)
        if _check_bound(cbound) > corr[1]:
            corr[1] = cbound
        acc = corr[0]
        get = acc.get
        for k, v, ts in hits:
            for d, w in ts:
                d += k
                acc[d] = get(d, 0) + v * w
    return [{u: p for u, p in out.items() if p[0]}, den]


@lru_cache(maxsize=4096)
def _shared(terms: tuple) -> tuple:
    """One copy of equal term lists, which many entries of the tables of
    ``map_monomials`` hold: those of an affine N_s step depend on
    <x, coroot> only, and a step without a bracket has equal corrections."""
    return terms


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

    def __repr__(self):
        return _z_text(self.terms, self.rank)


@lru_cache(maxsize=None)
def z_bracket(nvars: int, j: int, m: int) -> LaurentZ:
    """z_j^m - z_j^{-m}, built once; zero when m = 0."""
    if m == 0:
        return LaurentZ.zero(nvars)
    return LaurentZ.var_power(nvars, j, m) - LaurentZ.var_power(nvars, j, -m)
