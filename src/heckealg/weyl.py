"""Weyl groups, extended groups W. x| R, reduced words, cosets and cones.

Group elements are permutations inside and integer matrices at the
boundary: they permute the orbit of the standard basis ({+-e_i} on the
classical data); each element's matrix is read off, and its hash
computed, once.  An extended group W_ext = W x| R builds, on first use,
one ``GroupTable`` that numbers its elements and answers products,
inverses, left multiplication by a generator, subgroup closure and the
action on finite-order torus points by lookup, with integer arithmetic
only.  After the build it is the only group law: the Hecke layer moves
its basis keys, and point stabilizers and minimal coset representatives
are computed, as table ids.  Enumerating a Weyl group records a reduced word of every element,
so words and lengths are dict lookups and the table's walks are built
from them.  Rational linear algebra (the inverse Cartan matrix, the
centre of a twisted group algebra) goes through one exact row reduction,
``rref``, which eliminates on integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .root_data import RootDatum, pairing, subdatum

Matrix = Tuple[Tuple[int, ...], ...]
Vector = Tuple[int, ...]
Perm = Tuple[int, ...]

ENUMERATION_CAP = 2_000_000


class WeylError(ValueError):
    pass


def identity_matrix(rank: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(rank))
                 for i in range(rank))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_apply(m: Matrix, v: Sequence[int]) -> Vector:
    return tuple(sum(map(mul, row, v)) for row in m)


def rref(rows: Sequence[Sequence[int]], width: int
         ) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form over QQ of integer rows, pivoting on the
    first ``width`` columns (further columns, e.g. an augmented block,
    ride along).  Returns the nonzero reduced rows and their pivots.

    Each new row, pivot * row - f * pivot row, is divided by the gcd of
    its entries; rows are divided by their pivots, as Fractions, at the end.
    """
    mat = [list(row) for row in rows]
    pivots: List[int] = []
    for col in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        top = mat[r]
        p = top[col]
        for i, row in enumerate(mat):
            f = row[col]
            if i != r and f:
                row = [p * x - f * y for x, y in zip(row, top)]
                g = math.gcd(*row)
                mat[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
        if len(pivots) == len(mat):
            break
    return [[Fraction(x, row[c]) for x in row]
            for row, c in zip(mat, pivots)], pivots


def _integral(values: Iterable[Fraction]) -> bool:
    return all(Fraction(v).denominator == 1 for v in values)


def mat_transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def _kept_hash(self) -> int:
    return self._hash


@dataclass(frozen=True)
class WeylElement:
    """Lattice automorphism in the finite Weyl group of a datum."""
    matrix: Matrix
    __hash__ = _kept_hash

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.matrix,)))

    def __repr__(self):
        return "W%s" % (list(map(list, self.matrix)),)


class WeylGroup:
    """The Weyl group of the reduced subsystem of a root datum.

    An element is a permutation p of ``orbit``, the standard basis closed
    under the simple reflections and the matrices ``extra`` (the R-labels
    of an extended group); column j of its matrix is ``orbit[p[j]]``.
    """

    def __init__(self, rd: RootDatum, extra: Iterable[Matrix] = ()):
        self.rd = rd
        self.rank = rd.rank
        self.simple_matrices: Tuple[Matrix, ...] = rd.simple_reflections
        self.identity = WeylElement(identity_matrix(rd.rank))
        self._gens = self.simple_matrices + tuple(extra)
        self._elements: Optional[List[WeylElement]] = None
        self._words: Dict[WeylElement, Tuple[int, ...]] = {}
        self.orbit_perms: List[Perm] = []

    @cached_property
    def orbit(self) -> List[Vector]:
        orbit, seen = list(self.identity.matrix), set(self.identity.matrix)
        for v in orbit:                  # the list grows while it is read
            for u in (mat_apply(m, v) for m in self._gens):
                if u not in seen:
                    seen.add(u)
                    orbit.append(u)
        return orbit

    @cached_property
    def _position(self) -> Dict[Vector, int]:
        return {v: i for i, v in enumerate(self.orbit)}

    def permutation(self, m: Matrix) -> Perm:
        """The permutation of ``orbit`` by which the matrix acts."""
        return tuple(self._position[mat_apply(m, v)] for v in self.orbit)

    def matrix_of(self, p: Perm) -> Matrix:
        """The matrix of a permutation of ``orbit``."""
        return tuple(zip(*(self.orbit[p[j]] for j in range(self.rank))))

    def enumerate(self) -> List[WeylElement]:
        """All elements, sorted by matrix, by closure from the simple
        reflections; records a reduced word of each element on the way,
        and its permutation of ``orbit`` in ``orbit_perms``.

        Each length level is reached from the last by right multiplication
        with the simple reflections in the outer loop, so a new element
        w s_i is first met through its least right descent i, and its word
        is word(w) + (i,).
        """
        if self._elements is None:
            simple = list(map(self.permutation, self.simple_matrices))
            words = {tuple(range(len(self.orbit))): ()}
            frontier = list(words)
            while frontier:
                nxt = []
                for i, s in enumerate(simple):
                    for p in frontier:
                        q = tuple(map(p.__getitem__, s))
                        if q not in words:
                            if len(words) >= ENUMERATION_CAP:
                                raise WeylError("group enumeration cap exceeded")
                            words[q] = words[p] + (i,)
                            nxt.append(q)
                frontier = nxt
            pairs = sorted((self.matrix_of(p), p) for p in words)
            self._words = {WeylElement(m): words[p] for m, p in pairs}
            self._elements = list(self._words)
            self.orbit_perms = [p for _m, p in pairs]
        return self._elements

    def order(self) -> int:
        return len(self.enumerate())

    def reduced_word(self, w: WeylElement) -> Tuple[int, ...]:
        """Reduced word in simple-reflection indices (0-based), recorded by
        ``enumerate``."""
        if self._elements is None:
            self.enumerate()
        try:
            return self._words[w]
        except KeyError:
            raise WeylError("%r is not an element of this group" % (w,)) \
                from None

    def length(self, w: WeylElement) -> int:
        return len(self.reduced_word(w))


def min_coset_reps(group: ExtendedGroup, subgroup: Sequence[int]
                   ) -> List[int]:
    """Unique shortest representatives of the left cosets W / W_t, as
    table ids in (length, matrix) order; ``subgroup`` holds the ids of
    W_t, a subgroup of W."""
    table = group.table
    lengths, mult = table.lengths, table.mult
    weyl = [g for g, l in enumerate(table.labels) if l == group.rgroup.identity]
    sub = set(subgroup)
    if table.identity not in sub or not sub <= set(weyl):
        raise WeylError("subgroup must contain the identity and lie in W")
    if any(mult(a, b) not in sub for a in sub for b in sub):
        raise WeylError("given set is not closed under multiplication")
    reps, assigned = [], set()
    # ids of one label are in matrix order, and the sort is stable
    for w in sorted(weyl, key=lengths.__getitem__):
        if w in assigned:
            continue
        coset = {mult(w, s) for s in sub}
        if sum(lengths[g] == lengths[w] for g in coset) != 1:
            raise WeylError("minimal length representative is not unique")
        assigned |= coset
        reps.append(w)
    if len(assigned) != len(weyl):
        raise WeylError("cosets do not partition the group")
    return reps


# ---------------------------------------------------------------------------
# 2-cocycles and R-groups
# ---------------------------------------------------------------------------

class Cocycle:
    """Normalized {+1,-1}-valued 2-cocycle on a finite label group."""

    def __init__(self, labels: Sequence[str], table: Dict[Tuple[str, str], int]):
        self.labels = tuple(labels)
        self.table = dict(table)
        if len(set(self.labels)) < len(self.labels):
            raise WeylError("cocycle labels repeat: %r" % (self.labels,))
        for a in self.labels:
            for b in self.labels:
                if (a, b) not in self.table:
                    raise WeylError("cocycle table incomplete at %r" % ((a, b),))
                if self.table[(a, b)] not in (1, -1):
                    raise WeylError("cocycle values must be +-1")
        if len(self.table) > len(self.labels) ** 2:   # every pair is a key
            raise WeylError("cocycle table has keys that are not pairs of "
                            "labels")

    @classmethod
    def trivial(cls, labels: Sequence[str]) -> "Cocycle":
        return cls(labels, {(a, b): 1 for a in labels for b in labels})

    def __call__(self, a: str, b: str) -> int:
        return self.table[(a, b)]

    def check(self, mult: Dict[Tuple[str, str], str], identity: str) -> None:
        """Exhaustive cocycle identity and normalization check."""
        for a in self.labels:
            if self(identity, a) != 1 or self(a, identity) != 1:
                raise WeylError("cocycle is not normalized")
        for a in self.labels:
            for b in self.labels:
                for c in self.labels:
                    lhs = self(a, b) * self(mult[(a, b)], c)
                    rhs = self(b, c) * self(a, mult[(b, c)])
                    if lhs != rhs:
                        raise WeylError("cocycle identity fails at %r" % ((a, b, c),))


class RGroup:
    """Finite diagram group acting on the lattice.

    Each label carries an integer action matrix (stabilizing the set of
    positive roots of the ambient datum) and an optional translation
    part: a tuple of Fractions mod 1 describing how the element moves
    finite-order torus points beyond its linear action.  The identity
    is the label ``"e"``, acting by the identity matrix; as the matrices
    multiply as the table, M_a M_b = 1 for b = a^-1, so every matrix is
    invertible over ZZ.  When the labels have distinct matrices, the
    matrices multiplying as the table makes the table a group law; when
    two labels share a matrix, the table itself is checked.
    """

    def __init__(self, labels: Sequence[str], matrices: Dict[str, Matrix],
                 table: Dict[Tuple[str, str], str],
                 translations: Dict[str, Tuple[Fraction, ...]] | None = None):
        self.labels = tuple(labels)
        self.matrices = dict(matrices)
        self.table = dict(table)
        self.identity = "e"
        if len(set(self.labels)) < len(self.labels):
            raise WeylError("R-group labels repeat: %r" % (self.labels,))
        rank = len(next(iter(matrices.values()))) if matrices else 0
        self.translations = {
            l: tuple(translations[l]) if translations and l in translations
            else tuple(Fraction(0) for _ in range(rank))
            for l in self.labels}
        if set(self.matrices) != set(self.labels) or \
                self.identity not in self.matrices:
            raise WeylError("R-group labels, identity and matrices do not "
                            "match")
        for l, m in self.matrices.items():
            if len(m) != rank or any(len(row) != rank for row in m):
                raise WeylError("matrix of label %r is not %dx%d"
                                % (l, rank, rank))
        if self.matrices[self.identity] != identity_matrix(rank):
            raise WeylError("the matrix of the identity label is not the "
                            "identity")
        unknown = set(translations or ()) - set(self.labels)
        if unknown:
            raise WeylError("translations given for unknown labels %s"
                            % sorted(unknown))
        for l, t in self.translations.items():
            if len(t) != rank:
                raise WeylError("translation of label %r has %d entries, "
                                "not %d" % (l, len(t), rank))
        self._inverse = {}
        for a in self.labels:
            for b in self.labels:
                c = self.table.get((a, b))
                if c not in self.matrices:
                    raise WeylError("R-group table has no label at %r"
                                    % ((a, b),))
                if mat_mul(self.matrices[a], self.matrices[b]) != \
                        self.matrices[c]:
                    raise WeylError("R-group matrices do not multiply as the "
                                    "table at %r" % ((a, b),))
                if c == self.identity:
                    self._inverse[a] = b
        if len(self.table) > len(self.labels) ** 2:   # every pair is a key
            raise WeylError("R-group table has keys that are not pairs of "
                            "labels")
        if len(set(self.matrices.values())) < len(self.labels):
            self._check_group_law()
        for a in self.labels:
            if a not in self._inverse:
                raise WeylError("label %r has no inverse" % (a,))
        if any(map(any, self.translations.values())):
            self._check_translation_law()

    def _check_group_law(self) -> None:
        """The identity law and associativity of the table."""
        e, t = self.identity, self.table
        for a in self.labels:
            if t[(e, a)] != a or t[(a, e)] != a:
                raise WeylError("R-group table: %r is not the identity at %r"
                                % (e, a))
        for a in self.labels:
            for b in self.labels:
                ab = t[(a, b)]
                for c in self.labels:
                    if t[(ab, c)] != t[(a, t[(b, c)])]:
                        raise WeylError("R-group table is not associative "
                                        "at %r" % ((a, b, c),))

    def _check_translation_law(self) -> None:
        """The point action e -> P_a e + t(a) is an action only if
        t(ab) = t(a) + P_a t(b) mod ZZ^rank."""
        for a in self.labels:
            point = mat_transpose(self.matrices[self.inv(a)])
            for b in self.labels:
                moved = mat_apply(point, self.translations[b])
                want = self.translations[self.table[(a, b)]]
                if not _integral(ta + m - w for ta, m, w in
                                 zip(self.translations[a], moved, want)):
                    raise WeylError("translations break t(ab) = t(a) + P_a "
                                    "t(b) mod ZZ^%d at %r"
                                    % (len(moved), (a, b)))

    @classmethod
    def trivial(cls, rank: int) -> "RGroup":
        return cls(("e",), {"e": identity_matrix(rank)}, {("e", "e"): "e"})

    def mult(self, a: str, b: str) -> str:
        return self.table[(a, b)]

    def inv(self, a: str) -> str:
        return self._inverse[a]

    def matrix(self, a: str) -> Matrix:
        return self.matrices[a]

    def order(self) -> int:
        return len(self.labels)

    def validate_action(self, rd: RootDatum
                        ) -> Dict[str, Dict[Vector, Vector]]:
        """Labels permute the roots and fix the positive system; each
        translation is W-invariant mod ZZ^rank, so that W_ext acts on
        points.  Returns, per label, the image of each root vector."""
        # a simple reflection is its own inverse, so its point matrix is s^T
        points = [mat_transpose(s) for s in rd.simple_reflections]
        images = {}
        for l in self.labels:
            m = self.matrices[l]
            if len(m) != rd.rank:
                raise WeylError("matrix of label %r is not %dx%d"
                                % (l, rd.rank, rd.rank))
            image = images[l] = {r.vector: mat_apply(m, r.vector)
                                 for r in rd.roots}
            if not all(map(rd.has_root, image.values())):
                raise WeylError("diagram label %r does not permute roots" % (l,))
            if not all(rd.is_positive(image[r.vector])
                       for r in rd.positive_roots):
                raise WeylError(
                    "diagram label %r does not stabilize the positive system"
                    % (l,))
            t = self.translations[l]
            for p in points if any(t) else ():
                if not _integral(a - b for a, b in zip(mat_apply(p, t), t)):
                    raise WeylError("translation of label %r is not "
                                    "W-invariant mod ZZ^%d" % (l, rd.rank))
        return images


@dataclass(frozen=True)
class ExtendedWeylElement:
    """Element of W. x| R; acts on the lattice as weyl o diagram."""
    weyl: WeylElement
    diagram: str
    __hash__ = _kept_hash

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.weyl, self.diagram)))

    def __repr__(self):
        return "Ext(%r, %s)" % (self.weyl, self.diagram)


class ExtendedGroup:
    """W_ext = W(reduced system) x| R, with the R-action by matrices.

    Products, inverses and the point action are looked up in ``table``,
    built on first use; ``root_images`` maps each R-label to the image of
    each root vector.
    """

    def __init__(self, rd: RootDatum, rgroup: RGroup | None = None):
        self.rd = rd
        self.rgroup = rgroup or RGroup.trivial(rd.rank)
        self.root_images = self.rgroup.validate_action(rd)
        self.weyl = WeylGroup(rd, self.rgroup.matrices.values())
        self.identity = ExtendedWeylElement(self.weyl.identity,
                                            self.rgroup.identity)

    @cached_property
    def table(self) -> "GroupTable":
        return GroupTable(self)

    def elements(self) -> List[ExtendedWeylElement]:
        return [ExtendedWeylElement(w, l) for l in self.rgroup.labels
                for w in self.weyl.enumerate()]

    def order(self) -> int:
        return self.weyl.order() * self.rgroup.order()

    def _id(self, g: ExtendedWeylElement) -> int:
        try:
            return self.table.index[g]
        except KeyError:
            raise WeylError("%r is not an element of this group" % (g,)) \
                from None

    def action_matrix(self, g: ExtendedWeylElement) -> Matrix:
        return self.table.actions[self._id(g)]

    def mult(self, g: ExtendedWeylElement, h: ExtendedWeylElement
             ) -> ExtendedWeylElement:
        t = self.table
        return t.elements[t.mult(self._id(g), self._id(h))]

    def inv(self, g: ExtendedWeylElement) -> ExtendedWeylElement:
        t = self.table
        return t.elements[t.inverse[self._id(g)]]

    def act_point(self, g: ExtendedWeylElement, exponents: Vector, order: int
                  ) -> Vector:
        return self.table.act_point(self._id(g), exponents, order)


class GroupTable:
    """W_ext numbered 0 .. |W_ext|-1 in ``ExtendedGroup.elements()`` order.

    This is the one place that knows the group law of W_ext; everything
    else moves and checks elements through ``index``, ``elements`` and
    ``perms``.  The generators are the simple reflections (generator i
    is s_i) and the non-identity R-labels (generator ``gen_index[l]``);
    ``perms[k][h]`` is the id of gen_k * h, so s_i (w, l) = (s_i w, l)
    and gamma (w, l) = (gamma w gamma^-1, gamma l), one composition of
    orbit permutations per entry of the build.  Per id the table keeps
    the element, its label, its action matrix, its length ``lengths``
    (that of its Weyl part), a walk over those permutations, the inverse
    id and the matrix acting on point exponents (the transpose of the
    inverse's action matrix).  The walks come from the reduced words
    that ``WeylGroup.enumerate`` records: (w, l) = (w, e)(1, l) is the
    generator of l followed by the word of w read right to left, and
    (w, l)^-1 is the word of w read left to right followed by the
    generator of l^-1.  Memory is linear in |W_ext|; a product walks a
    word, one list lookup per letter, with no matrix arithmetic.

    An element is determined by its action on the orbit together with
    its label (w = action * R(label)^-1); the action alone does not
    suffice when two labels act by the same matrix.
    """

    def __init__(self, group: ExtendedGroup):
        rg, wg = group.rgroup, group.weyl
        self.elements: List[ExtendedWeylElement] = group.elements()
        self.index: Dict[ExtendedWeylElement, int] = {
            g: i for i, g in enumerate(self.elements)}
        self.labels: List[str] = [g.diagram for g in self.elements]
        self.identity = self.index[group.identity]
        self._translations = rg.translations
        self._shifts: Dict[Tuple[str, int], Vector] = {}
        # each id's permutation of wg.orbit: that of w composed with R(l)
        r_perms = {l: wg.permutation(rg.matrix(l)) for l in rg.labels}
        on_orbit = [tuple(map(p.__getitem__, r_perms[l]))
                    for l in rg.labels for p in wg.orbit_perms]
        self.actions: List[Matrix] = [
            g.weyl.matrix if l == rg.identity else wg.matrix_of(p)
            for g, l, p in zip(self.elements, self.labels, on_orbit)]
        by_key = {key: i for i, key in enumerate(zip(on_orbit, self.labels))}
        gens = [(wg.permutation(m), rg.identity) for m in wg.simple_matrices]
        gens += [(r_perms[l], l) for l in rg.labels if l != rg.identity]
        self.gen_index: Dict[str, int] = {
            l: k for k, (_p, l) in enumerate(gens) if l != rg.identity}
        self.perms: List[List[int]] = [
            [by_key[(tuple(map(p.__getitem__, a)), rg.mult(l, b))]
             for a, b in zip(on_orbit, self.labels)]
            for p, l in gens]
        words = [wg.reduced_word(g.weyl) for g in self.elements]
        self.lengths: List[int] = [len(word) for word in words]
        gamma = {l: (k,) for l, k in self.gen_index.items()}
        self._walks = [tuple(self.perms[k]
                             for k in gamma.get(l, ()) + word[::-1])
                       for l, word in zip(self.labels, words)]
        self.inverse: List[int] = []
        for l, word in zip(self.labels, words):
            h = self.identity
            for k in word + gamma.get(rg.inv(l), ()):
                h = self.perms[k][h]
            self.inverse.append(h)
        # the action itself for a signed permutation, and then kept once
        self.point_matrices: List[Matrix] = [
            m if p == m else p for m, p in zip(self.actions, (
                mat_transpose(self.actions[i]) for i in self.inverse))]
        # act_point reads each row as its (column, coefficient) nonzeros
        sparse = {r: tuple((j, a) for j, a in enumerate(r) if a)
                  for r in set(chain.from_iterable(self.point_matrices))}
        self._point_rows = [tuple(map(sparse.get, m))
                            for m in self.point_matrices]

    def mult(self, g: int, h: int) -> int:
        for perm in self._walks[g]:
            h = perm[h]
        return h

    def inv(self, g: int) -> int:
        return self.inverse[g]

    def subgroup(self, gens: Iterable[int]) -> List[int]:
        """Sorted ids of the subgroup generated by the given ids, closed
        by left multiplication with the generators."""
        gens = list(gens)
        found, frontier = {self.identity}, [self.identity]
        while frontier:
            frontier = [h for h in {self.mult(s, g) for s in gens
                                    for g in frontier} if h not in found]
            found.update(frontier)
        return sorted(found)

    def shift(self, label: str, order: int) -> Vector:
        """Translation part of a label on points of the given order."""
        key = (label, order)
        if key not in self._shifts:
            out = []
            for t in self._translations[label]:
                s = t * order
                if s.denominator != 1:
                    raise WeylError(
                        "translation part with denominator %d does not "
                        "preserve points of order %d" % (t.denominator, order))
                out.append(int(s))
            self._shifts[key] = tuple(out)
        return self._shifts[key]

    def act_point(self, g: int, exponents: Vector, order: int) -> Vector:
        return tuple((sum(a * exponents[j] for j, a in row) + s) % order
                     for row, s in zip(self._point_rows[g],
                                       self.shift(self.labels[g], order)))


# ---------------------------------------------------------------------------
# Stabilizers of finite-order torus points
# ---------------------------------------------------------------------------

@dataclass
class PointStabilizer:
    """Sorted table ids fixing a point: reflection x| relative diagram part;
    ``root_values`` maps each subsystem root alpha to alpha(t) = +-1."""
    elements: List[int]
    subsystem: RootDatum
    reflection_part: List[int]
    diagram_part: List[int]
    root_values: Dict[Vector, int]


def stabilizer_of_point(group: ExtendedGroup, exponents: Vector, order: int
                        ) -> PointStabilizer:
    """All extended elements fixing the point, with the W-deg/R-deg split.

    The reflection part W(subsystem) is closed on the table from the simple
    reflections of the subsystem of the alpha with alpha(t) = 1, or -1 when
    the coroot is halvable (this includes a doubled root 2*alpha with
    2*alpha(t) = 1).  The relative diagram part is the complement to it in
    the stabilizer made of the elements that send the subsystem's simple
    roots to positive roots.
    """
    rd = group.rd
    exponents = tuple(e % order for e in exponents)
    table = group.table
    stab = [g for g in range(len(table.elements))
            if table.act_point(g, exponents, order) == exponents]

    root_values: Dict[Vector, int] = {}
    for r in rd.roots:   # alpha(t) = zeta_order^<alpha, exponents>
        pair = pairing(r.vector, exponents) % order
        if pair == 0:
            root_values[r.vector] = 1
        elif r.halvable and 2 * pair == order:
            root_values[r.vector] = -1
    subsystem = subdatum(rd, root_values)
    reflection_part = table.subgroup(
        table.index[ExtendedWeylElement(WeylElement(m), group.rgroup.identity)]
        for m in subsystem.simple_reflections)
    diagram_part = [
        g for g in stab
        if all(subsystem.is_positive(mat_apply(table.actions[g], s.vector))
               for s in subsystem.simple_roots)]
    return PointStabilizer(stab, subsystem, reflection_part, diagram_part,
                           root_values)


# ---------------------------------------------------------------------------
# Cones (dominant / antidominant-obtuse) -- exact rational arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeMembership:
    dominant: bool
    antidominant_obtuse: bool            # closed cone of nonpositive coroot combos
    antidominant_obtuse_interior: bool   # strict and full-rank in the ambient space
    essentially_interior: bool           # strict, modulo the central subspace

    def labels(self) -> frozenset:
        out = set()
        if self.dominant:
            out.add("dominant")
        if self.antidominant_obtuse:
            out.add("antidominant_obtuse")
        if self.antidominant_obtuse_interior:
            out.add("antidominant_obtuse_interior")
        return frozenset(out) if out else frozenset({"none"})


def _solve_coroot_combination(rd: RootDatum, x: Sequence[int]):
    """Solve x = sum c_i alpha_i^vee + v with alpha_j(v) = 0 for simple
    alpha_j, for an integral x.

    c is the inverse Cartan matrix applied to the pairings <alpha_i, x>.
    Returns (d c, d v), integral, where the inverse Cartan matrix is N / d;
    the cones need only the signs and zeros of c and v.
    """
    inverse, d = rd.inverse_cartan
    simples = rd.simple_roots
    b = [pairing(s.vector, x) for s in simples]
    coeffs = [sum(a * bj for a, bj in zip(row, b)) for row in inverse]
    v = [d * xi for xi in x]
    for c, s in zip(coeffs, simples):
        for i in range(rd.rank):
            v[i] -= c * s.coroot[i]
    return coeffs, v


def cone_classify(rd: RootDatum, x: Sequence[Fraction]) -> ConeMembership:
    """Exact membership in the dominant and antidominant-obtuse cones."""
    if len(x) != rd.rank:
        raise WeylError("vector length does not match rank")
    # the cones are invariant under positive scaling: clear denominators
    # (an int is its own numerator, over 1)
    den = math.lcm(*(v.denominator for v in x))
    x = [v.numerator * (den // v.denominator) for v in x]
    dominant = all(pairing(r.vector, x) >= 0 for r in rd.positive_roots)
    coeffs, resid = _solve_coroot_combination(rd, x)
    in_span = all(v == 0 for v in resid)
    closed = in_span and all(c <= 0 for c in coeffs)
    strict = all(c < 0 for c in coeffs)
    full_rank = len(rd.simple_roots) == rd.rank
    interior = in_span and strict and full_rank
    essentially = strict
    return ConeMembership(dominant, closed, interior, essentially)
