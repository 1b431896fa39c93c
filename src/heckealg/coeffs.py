"""Exact coefficient arithmetic.

Two sparse rings, both with arbitrary-precision integer coefficients:

* ``LaurentZ`` -- multivariate Laurent polynomials in z_1 .. z_d over ZZ.
* ``TorusAlgebraElement`` -- finite ZZ-combinations of lattice characters
  theta_x with LaurentZ coefficients, i.e. the group algebra
  ZZ[X^*(T)] (x) ZZ[z_1^{\\pm 1}, .., z_d^{\\pm 1}].

The same two-level container doubles as the coefficient ring
S(t^*) (x) ZZ[r_1..r_d] of the graded algebra: there the outer keys are
interpreted as monomial multidegrees in the lattice coordinates (never
negative) and the z-variables are renamed r_j.

Values stored in a ``TorusAlgebraElement`` may also be ``Fraction``
scalars; this is how specialized algebras (z fixed to rationals) reuse
the same machinery.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Tuple

Exps = Tuple[int, ...]


def _vadd(a: Exps, b: Exps) -> Exps:
    return tuple(x + y for x, y in zip(a, b))


class LaurentZ:
    """Sparse Laurent polynomial over ZZ in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Exps, int] | None = None):
        self.nvars = nvars
        self.terms: Dict[Exps, int] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[tuple(e)] = self.terms.get(tuple(e), 0) + c
            self.terms = {e: c for e, c in self.terms.items() if c}

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentZ":
        return cls(nvars)

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
        e = [0] * nvars
        e[j - 1] = power
        return cls(nvars, {tuple(e): coeff})

    # -- ring structure ----------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentZ) and self.nvars == other.nvars \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __neg__(self) -> "LaurentZ":
        return LaurentZ(self.nvars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other: "LaurentZ") -> "LaurentZ":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        r = LaurentZ(self.nvars)
        r.terms = out
        return r

    def __sub__(self, other: "LaurentZ") -> "LaurentZ":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentZ(self.nvars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LaurentZ):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out: Dict[Exps, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = _vadd(e1, e2)
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        r = LaurentZ(self.nvars)
        r.terms = out
        return r

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "LaurentZ":
        if n < 0:
            raise ValueError("negative power of a general Laurent polynomial")
        out = LaurentZ.one(self.nvars)
        for _ in range(n):
            out = out * self
        return out

    # -- queries -----------------------------------------------------

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.nvars: 1}

    def evaluate(self, zvals: Tuple[Fraction, ...]) -> Fraction:
        """Exact value at positive rational z's."""
        if len(zvals) != self.nvars:
            raise ValueError("expected %d values" % self.nvars)
        total = Fraction(0)
        for e, c in self.terms.items():
            v = Fraction(c)
            for zj, ej in zip(zvals, e):
                v *= Fraction(zj) ** ej
            total += v
        return total

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            if abs(c) != 1 or all(k == 0 for k in e):
                factors.append(str(abs(c)))
            for j, k in enumerate(e):
                if k:
                    factors.append("z%d^%d" % (j + 1, k))
            term = "*".join(factors) if factors else "1"
            parts.append(("- " if c < 0 else "+ ") + term)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]


def z_bracket(nvars: int, j: int, m: int) -> LaurentZ:
    """z_j^m - z_j^{-m}; zero when m = 0."""
    if m == 0:
        return LaurentZ.zero(nvars)
    return LaurentZ.var_power(nvars, j, m) - LaurentZ.var_power(nvars, j, -m)


class TorusAlgebraElement:
    """Element of ZZ[X^*(T)] (x) scalar ring, keyed by lattice vectors.

    ``terms`` maps a lattice vector x (tuple of ints) to a scalar, which
    is a LaurentZ for symbolic z-variables or a Fraction for specialized
    algebras.  theta_x * theta_y = theta_{x+y}, extended bilinearly.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Dict[Exps, object] | None = None):
        self.rank = rank
        self.terms: Dict[Exps, object] = {}
        if terms:
            for x, v in terms.items():
                if v:
                    x = tuple(x)
                    if x in self.terms:
                        self.terms[x] = self.terms[x] + v
                    else:
                        self.terms[x] = v
            self.terms = {x: v for x, v in self.terms.items() if v}

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
        return isinstance(other, TorusAlgebraElement) and self.rank == other.rank \
            and self.terms == other.terms

    def __neg__(self) -> "TorusAlgebraElement":
        r = TorusAlgebraElement(self.rank)
        r.terms = {x: -v for x, v in self.terms.items()}
        return r

    def __add__(self, other: "TorusAlgebraElement") -> "TorusAlgebraElement":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out = dict(self.terms)
        for x, v in other.terms.items():
            if x in out:
                s = out[x] + v
                if s:
                    out[x] = s
                else:
                    del out[x]
            else:
                out[x] = v
        r = TorusAlgebraElement(self.rank)
        r.terms = out
        return r

    def __sub__(self, other: "TorusAlgebraElement") -> "TorusAlgebraElement":
        return self + (-other)

    def __mul__(self, other: "TorusAlgebraElement") -> "TorusAlgebraElement":
        if not isinstance(other, TorusAlgebraElement):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out: Dict[Exps, object] = {}
        for x, v in self.terms.items():
            for y, w in other.terms.items():
                k = _vadd(x, y)
                p = v * w
                if k in out:
                    s = out[k] + p
                    if s:
                        out[k] = s
                    else:
                        del out[k]
                elif p:
                    out[k] = p
        r = TorusAlgebraElement(self.rank)
        r.terms = out
        return r

    def scale(self, scalar) -> "TorusAlgebraElement":
        """Multiply every coefficient by a scalar-ring element."""
        if not scalar:
            return TorusAlgebraElement(self.rank)
        r = TorusAlgebraElement(self.rank)
        r.terms = {x: v * scalar for x, v in self.terms.items()}
        r.terms = {x: v for x, v in r.terms.items() if v}
        return r

    def shift(self, x: Exps) -> "TorusAlgebraElement":
        """Multiply by theta_x."""
        r = TorusAlgebraElement(self.rank)
        r.terms = {_vadd(y, x): v for y, v in self.terms.items()}
        return r

    def act_matrix(self, matrix) -> "TorusAlgebraElement":
        """theta_x -> theta_{Mx}, z-coefficients untouched."""
        out: Dict[Exps, object] = {}
        for x, v in self.terms.items():
            y = tuple(sum(row[k] * x[k] for k in range(self.rank)) for row in matrix)
            if y in out:
                s = out[y] + v
                if s:
                    out[y] = s
                else:
                    del out[y]
            else:
                out[y] = v
        r = TorusAlgebraElement(self.rank)
        r.terms = out
        return r

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join("(%r)*theta%s" % (v, list(x)) for x, v in self.sorted_terms())


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
    for x, v in elem.terms.items():
        k = sum(a * b for a, b in zip(x, exponents)) % order
        if isinstance(v, LaurentZ):
            c = v.evaluate(zvals)
        else:
            c = Fraction(v)
        acc[k] = acc.get(k, Fraction(0)) + c
    return CyclotomicValue(order, acc)
