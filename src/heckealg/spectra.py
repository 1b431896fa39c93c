"""Counting and classification of irreducible representations.

The extended-quotient bookkeeping: points of finite order on the torus,
their stabilizers in W_ext, and the number of cocycle-projective
irreducibles of each stabilizer (= number of cocycle-regular conjugacy
classes, found as orbits under conjugation by generators).  An
independent oracle computes the dimension of the centre of the
explicitly constructed twisted group algebra over QQ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import (Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .root_data import RootDatum
from .weyl import (Cocycle, ExtendedGroup, ExtendedWeylElement,
                   cone_classify, rref)


class SpectraError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Finite groups with multiplication tables
# ---------------------------------------------------------------------------

class ConjugacyClass(NamedTuple):
    """One class: members in element order, centralizer generators."""
    members: List
    centralizer: List


class FiniteGroup:
    """Concrete finite group: elements are hashable, multiplication is a
    callable; a cocycle value is attached to each ordered pair."""

    def __init__(self, elements: Sequence, mult, inv, identity,
                 cocycle_fn=None, generators: Optional[Sequence] = None):
        self.elements = list(elements)
        self.mult = mult
        self.inv = inv
        self.identity = identity
        self.cocycle_fn = cocycle_fn or (lambda a, b: 1)
        if generators is not None:
            self.generators = list(generators)

    @classmethod
    def from_extended(cls, group: ExtendedGroup,
                      elements: Optional[Sequence[ExtendedWeylElement]] = None,
                      cocycle: Optional[Cocycle] = None) -> "FiniteGroup":
        els = list(elements) if elements is not None else group.elements()
        fn = (lambda a, b: cocycle(a.diagram, b.diagram)) if cocycle else None
        return cls(els, group.mult, group.inv, group.identity, fn)

    @cached_property
    def generators(self) -> List:
        """Those given, or else picked greedily in element order."""
        gens, found = [], {self.identity}
        for g in self.elements:
            if g not in found:
                gens.append(g)
                new = {self.mult(g, x) for x in found}
                while new:   # found is closed under the earlier generators
                    found |= new
                    new = {self.mult(s, x) for s in gens for x in new} - found
        return gens

    def conjugacy_classes(self) -> List[ConjugacyClass]:
        """Each class is the orbit of its first member g (in element order)
        under conjugation by the generators; with t[x] g t[x]^-1 = x along
        the orbit's spanning tree, the Schreier generators t[s.x]^-1 s t[x]
        generate g's centralizer (Holt-Eick-O'Brien, Handbook of CGT, 4.1)."""
        mult, inv, one = self.mult, self.inv, self.identity
        position = {g: i for i, g in enumerate(self.elements)}
        seen, classes = set(), []
        for g in self.elements:
            if g in seen:
                continue
            orbit, tree, centralizer = [g], {g: one}, {}
            for x in orbit:                  # the list grows while it is read
                t = tree[x]
                for s in self.generators:
                    y = inv(mult(s, inv(mult(s, x))))   # s x s^-1
                    st = mult(s, t)
                    if y not in tree:
                        tree[y] = st
                        orbit.append(y)
                    else:
                        h = mult(inv(tree[y]), st)
                        if h != one:
                            centralizer[h] = None
            classes.append(ConjugacyClass(
                sorted(orbit, key=position.__getitem__), list(centralizer)))
            seen.update(orbit)
        return classes


def count_twisted_irreps(group: FiniteGroup) -> int:
    """Number of cocycle-regular conjugacy classes: g is regular iff
    cocycle(g, h) = cocycle(h, g) for all h centralizing g.

    For a 2-cocycle regularity is a class function, and h -> cocycle(g, h)
    / cocycle(h, g) is a homomorphism on the centralizer of g (Karpilovsky,
    Projective Representations of Finite Groups), so each class is tested
    at its first member against its centralizer generators; ``Cocycle.check``
    has made sure the cocycle is one when a descriptor is built."""
    coc = group.cocycle_fn
    return sum(all(coc(members[0], h) == coc(h, members[0])
                   for h in centralizer)
               for members, centralizer in group.conjugacy_classes())


def _commutation_rows(group: FiniteGroup) -> List[List[int]]:
    els = group.elements
    n = len(els)
    index = {g: i for i, g in enumerate(els)}
    rows: List[List[int]] = []
    for h in els:
        # e_h x = x e_h: coefficient equation per basis element k:
        #   x_{h^{-1}k} c(h, h^{-1}k) - x_{k h^{-1}} c(k h^{-1}, h) = 0
        hinv = group.inv(h)
        for k in els:
            row = [0] * n
            g1 = group.mult(hinv, k)
            g2 = group.mult(k, hinv)
            row[index[g1]] += group.cocycle_fn(h, g1)
            row[index[g2]] -= group.cocycle_fn(g2, h)
            if any(row):
                rows.append(row)
    return rows


def twisted_algebra_center_dim(group: FiniteGroup) -> int:
    """Dimension over QQ of the centre of the twisted group algebra,
    solved from the exact linear commutation system.  Independent oracle
    for count_twisted_irreps."""
    n = len(group.elements)
    return n - len(rref(_commutation_rows(group), n)[1])


# ---------------------------------------------------------------------------
# Extended quotients
# ---------------------------------------------------------------------------

@dataclass
class OrbitReport:
    representative: Tuple[int, ...]
    orbit_size: int
    stabilizer_order: int
    count: int


def common_order(group: ExtendedGroup, orders: Iterable[int]) -> int:
    """The order at which points of the given orders are counted: the lcm
    of those orders and the denominators of the translation parts."""
    return math.lcm(*orders, *(t.denominator
                               for ts in group.rgroup.translations.values()
                               for t in ts))


def extended_quotient_count(group: ExtendedGroup, cocycle: Cocycle,
                            order: int, points: Iterable[Tuple[int, ...]],
                            canonicalize=None
                            ) -> Tuple[int, List[OrbitReport]]:
    """Total count and per-orbit breakdown of the twisted extended
    quotient over the W_ext-closure of the given points, one report per
    orbit sorted by representative (the orbit's least point).

    ``points`` are exponent vectors at ``order``, which the denominators
    of the translation parts must divide (see ``common_order``).
    ``canonicalize`` optionally maps an exponent vector to a canonical
    representative of its class on a quotient torus (the group action
    must descend to classes); counting then happens on classes.

    Group elements are the ids of ``group.table``.  The points are swept
    once as they come, skipping those already seen; each orbit costs one
    ``GroupTable.images`` pass, which gives the orbit and the stabilizer
    of the point met first.  Stabilizers of points in one orbit are
    conjugate, so their order and count are the orbit's whichever point
    comes first.  A stabilizer that is all of W_ext takes the table's
    generators, a proper one those picked greedily, shortest first.
    """
    cocycle.check(group.rgroup)
    if common_order(group, [order]) != order:
        raise SpectraError("order %d is not a multiple of the translation "
                           "denominators" % order)
    canon = canonicalize or (lambda e, n: e)
    table = group.table
    labels, lengths = table.labels, table.lengths
    table_gens = [perm[table.identity] for perm in table.perms]

    def cocycle_fn(a, b):
        return cocycle(labels[a], labels[b])

    seen = set()
    reports: List[OrbitReport] = []
    total = 0
    for e in points:
        e = canon(tuple(a % order for a in e), order)
        if e in seen:
            continue
        moved = [canon(x, order) for x in table.images(e, order)]
        orbit = set(moved)
        stab = sorted((g for g, x in enumerate(moved) if x == e),
                      key=lengths.__getitem__)
        seen |= orbit
        sub = FiniteGroup(stab, table.mult, table.inverse.__getitem__,
                          table.identity, cocycle_fn,
                          table_gens if len(stab) == len(moved) else None)
        cnt = count_twisted_irreps(sub)
        reports.append(OrbitReport(min(orbit), len(orbit), len(stab), cnt))
        total += cnt
    reports.sort(key=lambda r: r.representative)
    return total, reports


# ---------------------------------------------------------------------------
# Analytic classification flags
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModuleClassification:
    tempered: bool
    discrete_series: bool
    essentially_discrete: bool


def classify(weights: Sequence[Sequence[Fraction]], rd: RootDatum
             ) -> ModuleClassification:
    """Weight-cone classification of a module from its real-split weight
    exponents: tempered iff all weights lie in the closed antidominant
    obtuse cone, discrete series iff all lie in its interior, essentially
    discrete iff interior modulo the central subspace."""
    flags = [cone_classify(rd, w) for w in weights]
    tempered = all(f.antidominant_obtuse for f in flags)
    discrete = bool(flags) and all(f.antidominant_obtuse_interior for f in flags)
    essential = bool(flags) and all(f.essentially_interior for f in flags)
    return ModuleClassification(tempered, discrete, essential)


def is_distinguished(side: str, partition: Sequence[int]) -> bool:
    """Distinguished unipotent classes by partition combinatorics:
    GL needs a single Jordan block, Sp all parts even and distinct,
    SO all parts odd and distinct."""
    parts = [p for p in partition if p]
    if any(p < 0 for p in partition):
        raise SpectraError("partition parts must be nonnegative")
    if side == "GL":
        return len(parts) == 1
    if side in ("Sp", "S"):
        return all(p % 2 == 0 for p in parts) and len(set(parts)) == len(parts)
    if side in ("SO", "O"):
        return all(p % 2 == 1 for p in parts) and len(set(parts)) == len(parts)
    raise SpectraError("unknown side %r" % (side,))
