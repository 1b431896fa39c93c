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
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from operator import mul
from typing import Dict, Iterable, List, Sequence, Set, Tuple

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
    return sum(map(mul, x, y))


def reflect(x: Vector, alpha: Vector, coroot: Vector) -> Vector:
    """s_alpha x = x - <x, alpha^vee> alpha; x itself when the pairing is
    0.  The one form of a reflection: a root and its coroot."""
    n = pairing(x, coroot)
    return tuple(a - n * b for a, b in zip(x, alpha)) if n else x


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
        self._build(rank, roots, num_z_vars)
        self._validate()

    def _build(self, rank: int, roots: Iterable[Root], num_z_vars: int):
        self.rank = rank
        self.roots: Tuple[Root, ...] = tuple(roots)
        self.num_z_vars = num_z_vars
        self._by_vector: Dict[Vector, Root] = {}
        # coordinate -> vectors of the roots nonzero there
        self._meets: List[Set[Vector]] = [set() for _ in range(rank)]
        for r in self.roots:
            if len(r.vector) != rank or len(r.coroot) != rank:
                raise RootDatumError("root length does not match rank")
            if r.vector in self._by_vector:
                raise RootDatumError("duplicate root %r" % (r.vector,))
            self._by_vector[r.vector] = r
            for i, x in enumerate(r.vector):
                if x:
                    self._meets[i].add(r.vector)
        self.positive_roots = tuple(r for r in self.roots if _lex_positive(r.vector))
        self.nondivisible_roots = tuple(r for r in self.roots
                                        if not self._half_in(r.vector))
        self.reduced_positive = tuple(r for r in self.positive_roots
                                      if not self._half_in(r.vector))
        self.simple_roots = self._find_simples()

    # -- construction-time checks -------------------------------------

    def _half_in(self, v: Vector) -> bool:
        return not any(x % 2 for x in v) and \
            tuple(x // 2 for x in v) in self._by_vector

    def _validate(self):
        lines = Counter(map(_direction, self._by_vector))
        for r in self.roots:
            if vneg(r.vector) not in self._by_vector:
                raise RootDatumError("root set not closed under negation")
            if not (1 <= r.component_index <= self.num_z_vars):
                raise RootDatumError("component index out of range")
            # R*alpha intersection is {a,-a} or {a,2a,-a,-2a}
            on_line = lines[_direction(r.vector)]
            if on_line not in (2, 4):
                raise RootDatumError("line through %r has %d roots"
                                     % (r.vector, on_line))
        # s_r v is a root; only the roots v meeting the support of r^vee
        # can pair nonzero with it, and those that do (s_r v is not v) are
        # on r's component, with its component index
        roots, mixed = self._by_vector, False
        for r in self.roots:
            for v in self.roots_meeting(r.coroot):
                w = reflect(v, r.vector, r.coroot)
                if w not in roots:
                    raise RootDatumError("reflection does not preserve roots")
                if w is not v and \
                        r.component_index != roots[v].component_index:
                    mixed = True
        if mixed:
            raise RootDatumError(
                "component index not constant on a component")

    def _find_simples(self) -> Tuple[Root, ...]:
        """The reduced positive roots r that are no sum s + t of two such
        roots; one of s, t meets the support of r, so only those s are
        tried."""
        vectors = {r.vector for r in self.reduced_positive}
        simples = [r for r in self.reduced_positive
                   if not any(vsub(r.vector, s) in vectors for s in
                              self.roots_meeting(r.vector) & vectors)]
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

    def roots_meeting(self, v: Sequence[int]) -> Set[Vector]:
        """Vectors of the roots nonzero somewhere v is: every other root
        pairs to 0 with v."""
        return set().union(*(self._meets[i] for i, x in enumerate(v) if x))

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

    def __repr__(self):
        return "RootDatum(rank=%d, %d roots, d=%d)" % (
            self.rank, len(self.roots), self.num_z_vars)


def _direction(v: Vector) -> Vector:
    """The primitive vector on the line QQ v with a positive first nonzero
    coordinate, for v != 0: two roots are rational multiples of each
    other exactly when their directions agree."""
    g = math.gcd(*v)
    if not _lex_positive(v):
        g = -g
    return tuple(x // g for x in v)


# ---------------------------------------------------------------------------
# Classical constructions
# ---------------------------------------------------------------------------

def _unit(n: int, i: int, c: int = 1) -> Vector:
    return (0,) * i + (c,) + (0,) * (n - i - 1)


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
        for i, j in permutations(range(rank), 2):
            v = vsub(_unit(rank, i), _unit(rank, j))
            add(v, v)
    elif family in ("B", "C", "D", "BC"):
        if family == "D" and n < 2:
            raise RootDatumError("D requires rank >= 2")
        for i, j in combinations(range(n), 2):
            for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
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


def product(*data: RootDatum) -> RootDatum:
    """Orthogonal direct sum; each summand's coordinates and z-variables
    are shifted past those of the summands before it.  Not validated
    again: the summands were, and pair to 0 with each other."""
    if len(data) == 1:
        return data[0]
    rank = sum(rd.rank for rd in data)
    roots: List[Root] = []
    offset = z = 0
    for rd in data:
        left, right = (0,) * offset, (0,) * (rank - offset - rd.rank)
        roots += [Root(left + r.vector + right, left + r.coroot + right,
                       r.component_index + z) for r in rd.roots]
        offset += rd.rank
        z += rd.num_z_vars
    out = RootDatum.__new__(RootDatum)
    out._build(rank, roots, z)
    return out


def merge_components(rd: RootDatum, new_index: Dict[int, int],
                     num_z_vars: int) -> RootDatum:
    """Reassign z-variables (e.g. one variable shared by swapped factors)."""
    roots = [Root(r.vector, r.coroot, new_index[r.component_index])
             for r in rd.roots]
    return RootDatum(rd.rank, roots, num_z_vars)


def subdatum(rd: RootDatum, vectors: Iterable[Vector]) -> RootDatum:
    """Root datum on the same lattice spanned by a reflection-closed subset."""
    vecs = set(map(tuple, vectors))
    roots = [r for r in rd.roots if r.vector in vecs]
    if len(roots) != len(vecs):
        missing = vecs - {r.vector for r in roots}
        raise RootDatumError("vectors %r are not roots of the ambient datum"
                             % (sorted(missing),))
    return RootDatum(rd.rank, roots, rd.num_z_vars)


def weyl_order_classical(family: str, n: int) -> int:
    """|W| for the classical families (A_n means the system A_n, order (n+1)!)."""
    family = family.upper()
    if n == 0:
        return 1
    if family == "A":
        return math.factorial(n + 1)
    if family in ("B", "C", "BC"):
        return 2 ** n * math.factorial(n)
    if family == "D":
        return 2 ** (n - 1) * math.factorial(n) if n > 1 else 1
    raise RootDatumError("unsupported family %r" % (family,))
