"""Root data of classical types in their standard ZZ^n realizations.

Families A, B, C, D and the non-reduced BC are supported.  A_k is taken
GL-style inside ZZ^{k+1} (diagonal-torus character lattice, determinant
quotient not taken), the others live in ZZ^n standard coordinates, so
all coroots are integral.

The positive system is fixed once per datum: a root is positive iff its
first nonzero coordinate is positive (which matches the usual classical
conventions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Sequence, Tuple

Vector = Tuple[int, ...]

MAX_RANK = 12


class RootDatumError(ValueError):
    pass


def vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: Vector) -> Vector:
    return tuple(-x for x in a)


def vscale(a: Vector, c: int) -> Vector:
    return tuple(c * x for x in a)


def pairing(x: Sequence[int], y: Sequence[int]) -> int:
    """Standard dot pairing between X^* and X_* in the ZZ^n realization."""
    return sum(a * b for a, b in zip(x, y))


def reflect(x: Vector, alpha: Vector, coroot: Vector) -> Vector:
    return vsub(x, vscale(alpha, pairing(x, coroot)))


def reflection_matrix(rank: int, alpha: Vector, coroot: Vector) -> Tuple[Vector, ...]:
    """Rows of x -> x - <x, coroot> alpha acting on column vectors."""
    return tuple(tuple(int(i == j) - alpha[i] * coroot[j] for j in range(rank))
                 for i in range(rank))


@dataclass(frozen=True)
class Root:
    vector: Vector
    coroot: Vector
    component_index: int  # 1-based index of the irreducible factor / z-variable

    def __post_init__(self):
        if pairing(self.vector, self.coroot) != 2:
            raise RootDatumError("pairing <alpha, alpha^vee> must be 2: %r" % (self,))

    @property
    def halvable(self) -> bool:
        """True iff alpha^vee lies in 2*X_*, i.e. every coordinate is even."""
        return all(c % 2 == 0 for c in self.coroot)


def _lex_positive(v: Vector) -> bool:
    for x in v:
        if x:
            return x > 0
    return False


class RootDatum:
    """A lattice ZZ^rank with a finite (possibly non-reduced) root set."""

    def __init__(self, rank: int, roots: Iterable[Root], num_z_vars: int):
        self.rank = rank
        self.roots: Tuple[Root, ...] = tuple(roots)
        self.num_z_vars = num_z_vars
        self._by_vector: Dict[Vector, Root] = {}
        for r in self.roots:
            if len(r.vector) != rank or len(r.coroot) != rank:
                raise RootDatumError("root length does not match rank")
            if r.vector in self._by_vector:
                raise RootDatumError("duplicate root %r" % (r.vector,))
            self._by_vector[r.vector] = r
        self._validate()
        self.positive_roots = tuple(r for r in self.roots if _lex_positive(r.vector))
        self.nondivisible_roots = tuple(r for r in self.roots
                                        if not self._half_in(r.vector))
        self.reduced_positive = tuple(r for r in self.positive_roots
                                      if not self._half_in(r.vector))
        self.simple_roots = self._find_simples()
        self.simple_indices = tuple(self.roots.index(s) for s in self.simple_roots)

    # -- construction-time checks -------------------------------------

    def _half_in(self, v: Vector) -> bool:
        if any(x % 2 for x in v):
            return False
        return tuple(x // 2 for x in v) in self._by_vector

    def _validate(self):
        for r in self.roots:
            if vneg(r.vector) not in self._by_vector:
                raise RootDatumError("root set not closed under negation")
            if not (1 <= r.component_index <= self.num_z_vars):
                raise RootDatumError("component index out of range")
            # R*alpha intersection is {a,-a} or {a,2a,-a,-2a}
            multiples = [s.vector for s in self.roots
                         if _is_rational_multiple(s.vector, r.vector)]
            if len(multiples) not in (2, 4):
                raise RootDatumError("line through %r has %d roots"
                                     % (r.vector, len(multiples)))
        for r in self.roots:
            for s in self.roots:
                img = reflect(s.vector, r.vector, r.coroot)
                if img not in self._by_vector:
                    raise RootDatumError("reflection does not preserve roots")
        # component index is constant on irreducible components
        for r in self.roots:
            for s in self.roots:
                if pairing(r.vector, s.coroot) != 0:
                    if r.component_index != s.component_index:
                        raise RootDatumError(
                            "component index not constant on a component")

    def _find_simples(self) -> Tuple[Root, ...]:
        pos = [r for r in self.reduced_positive]
        vectors = {r.vector for r in pos}
        simples = []
        for r in pos:
            decomposable = False
            for s in pos:
                diff = vsub(r.vector, s.vector)
                if diff != (0,) * self.rank and diff in vectors:
                    decomposable = True
                    break
            if not decomposable:
                simples.append(r)
        # descending lexicographic order: in B_n this lists the long simple
        # roots before the short one, matching the usual alpha_1..alpha_n
        simples.sort(key=lambda r: r.vector, reverse=True)
        return tuple(simples)

    # -- queries -------------------------------------------------------

    def root(self, v: Sequence[int]) -> Root:
        v = tuple(v)
        if v not in self._by_vector:
            raise RootDatumError("%r is not a root of this datum" % (v,))
        return self._by_vector[v]

    def has_root(self, v: Sequence[int]) -> bool:
        return tuple(v) in self._by_vector

    def is_positive(self, v: Sequence[int]) -> bool:
        return _lex_positive(tuple(v))

    def reflection(self, r: Root):
        return reflection_matrix(self.rank, r.vector, r.coroot)

    def simple_reflections(self):
        return tuple(self.reflection(s) for s in self.simple_roots)

    @cached_property
    def inverse_cartan(self) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
        """Inverse of the matrix <alpha_i, alpha_j^vee> over the simple
        roots as (N, d), N integral and d > 0, the inverse being N / d.
        It exists since the simple coroots are linearly independent."""
        from .weyl import rref   # weyl builds on this module
        k = len(self.simple_roots)
        rows, _ = rref([[pairing(a.vector, b.coroot) for b in self.simple_roots]
                        + [int(i == j) for j in range(k)]
                        for i, a in enumerate(self.simple_roots)], k)
        d = math.lcm(*(x.denominator for row in rows for x in row[k:]))
        return tuple(tuple(int(x * d) for x in row[k:]) for row in rows), d

    def components(self) -> Dict[int, List[Root]]:
        out: Dict[int, List[Root]] = {}
        for r in self.roots:
            out.setdefault(r.component_index, []).append(r)
        return out

    def __repr__(self):
        return "RootDatum(rank=%d, %d roots, d=%d)" % (
            self.rank, len(self.roots), self.num_z_vars)


def _is_rational_multiple(a: Vector, b: Vector) -> bool:
    # a = q*b for some nonzero rational q
    cross_ok = all(a[i] * b[j] == a[j] * b[i]
                   for i in range(len(a)) for j in range(len(a)))
    return cross_ok and any(a) and any(b)


def is_doubled(rd: RootDatum, alpha: Root) -> bool:
    """True iff 2*alpha is itself a root (BC phenomenon)."""
    if alpha.vector not in rd._by_vector:
        raise RootDatumError("root not in datum")
    return rd.has_root(vscale(alpha.vector, 2))


def coroot_halvable(rd: RootDatum, alpha: Root) -> bool:
    """``alpha.halvable`` for a root of ``rd``."""
    if alpha.vector not in rd._by_vector:
        raise RootDatumError("root not in datum")
    return alpha.halvable


# ---------------------------------------------------------------------------
# Classical constructions
# ---------------------------------------------------------------------------

def _unit(n: int, i: int, c: int = 1) -> Vector:
    return tuple(c if k == i else 0 for k in range(n))


def build_classical(family: str, n: int) -> RootDatum:
    """Standard root datum of the given classical family.

    family: one of A, B, C, D, BC.  A_n is realized GL-style in ZZ^{n+1};
    the other families live in ZZ^n.  For BC_n the full non-reduced set
    {+-e_i, +-2e_i, +-e_i +- e_j} is produced.
    """
    family = family.upper()
    if n < 1:
        raise RootDatumError("rank parameter must be >= 1")
    rank = n + 1 if family == "A" else n
    if rank > MAX_RANK:
        raise RootDatumError("rank %d exceeds the enumeration guard %d"
                             % (rank, MAX_RANK))
    roots: List[Root] = []

    def add(vec: Vector, co: Vector):
        roots.append(Root(vec, co, 1))

    if family == "A":
        for i in range(rank):
            for j in range(rank):
                if i != j:
                    v = vsub(_unit(rank, i), _unit(rank, j))
                    add(v, v)
    elif family in ("B", "C", "D", "BC"):
        if family == "D" and n < 2:
            raise RootDatumError("D requires rank >= 2")
        for i in range(n):
            for j in range(i + 1, n):
                for si in (1, -1):
                    for sj in (1, -1):
                        v = vadd(_unit(n, i, si), _unit(n, j, sj))
                        add(v, v)
        if family in ("B", "BC"):
            for i in range(n):
                for s in (1, -1):
                    add(_unit(n, i, s), _unit(n, i, 2 * s))
        if family in ("C", "BC"):
            for i in range(n):
                for s in (1, -1):
                    add(_unit(n, i, 2 * s), _unit(n, i, s))
    else:
        raise RootDatumError("unsupported family %r" % (family,))
    return RootDatum(rank, roots, 1)


def empty_datum(rank: int, num_z_vars: int = 1) -> RootDatum:
    """Datum with no roots: O(T) (x) ZZ[z] situations (cuspidal blocks)."""
    return RootDatum(rank, (), num_z_vars)


def product(a: RootDatum, b: RootDatum) -> RootDatum:
    """Orthogonal direct sum; b's coordinates and z-variables are shifted."""
    rank = a.rank + b.rank
    roots: List[Root] = []
    for r in a.roots:
        roots.append(Root(r.vector + (0,) * b.rank, r.coroot + (0,) * b.rank,
                          r.component_index))
    for r in b.roots:
        roots.append(Root((0,) * a.rank + r.vector, (0,) * a.rank + r.coroot,
                          r.component_index + a.num_z_vars))
    return RootDatum(rank, roots, a.num_z_vars + b.num_z_vars)


def merge_components(rd: RootDatum, new_index: Dict[int, int],
                     num_z_vars: int) -> RootDatum:
    """Reassign z-variables (e.g. one variable shared by swapped factors)."""
    roots = [Root(r.vector, r.coroot, new_index[r.component_index])
             for r in rd.roots]
    return RootDatum(rd.rank, roots, num_z_vars)


def subdatum(rd: RootDatum, vectors: Iterable[Vector],
             num_z_vars: int | None = None) -> RootDatum:
    """Root datum on the same lattice spanned by a reflection-closed subset."""
    vecs = set(map(tuple, vectors))
    roots = [r for r in rd.roots if r.vector in vecs]
    if len(roots) != len(vecs):
        missing = vecs - {r.vector for r in roots}
        raise RootDatumError("vectors %r are not roots of the ambient datum"
                             % (sorted(missing),))
    return RootDatum(rd.rank, roots, num_z_vars or rd.num_z_vars)


def weyl_order_classical(family: str, n: int) -> int:
    """|W| for the classical families (A_n means the system A_n, order (n+1)!)."""
    import math
    family = family.upper()
    if n == 0:
        return 1
    if family == "A":
        return math.factorial(n + 1)
    if family in ("B", "C", "BC"):
        return 2 ** n * math.factorial(n)
    if family == "D":
        if n == 1:
            return 1
        return 2 ** (n - 1) * math.factorial(n)
    raise RootDatumError("unsupported family %r" % (family,))
