"""Weyl groups, extended groups W. x| R, reduced words, cosets and cones.

Group elements are permutations inside and integer matrices at the
boundary: they permute the orbit of the standard basis ({+-e_i} on the
classical data).  A Weyl group's search numbers its elements once, in
matrix order, as lists of permutations and reduced words.  An extended
group W_ext = W x| R builds on first use one ``GroupTable`` that keeps
per id only a label, length, inverse, walk and point rows, and answers
products, inverses, left multiplication by a generator, subgroup
closure and the action on finite-order torus points by lookup, with
integer arithmetic only; element objects and matrices are built when
asked for.  After the build it is the only group law: the Hecke layer
moves its basis keys, and point stabilizers and minimal coset
representatives are computed, as table ids.  Rational linear algebra
(the inverse Cartan matrix, the centre of a twisted group algebra) goes
through one exact row reduction, ``rref``, which eliminates on integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from fractions import Fraction
from itertools import chain
from operator import mul, ne
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .root_data import RootDatum, pairing, reflect, subdatum

Matrix = Tuple[Tuple[int, ...], ...]
Vector = Tuple[int, ...]
Perm = Tuple[int, ...]

# A table id costs about 625 bytes retained (B6, 46,080 ids: 28.8 MB under
# tracemalloc) and 1,085 bytes of peak RSS (B7, 645,120 ids: 667.5 MB), so
# the cap's 2,000,000 ids admit about 2.2 GB (2.0 GiB) of peak RSS.
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
    under the generators, maps on vectors: ``reflect`` by each simple root
    and the matrices ``extra`` (the R-labels of an extended group); column
    j of its matrix is ``orbit[p[j]]``.  Element objects are built from
    ``search`` on the first ``enumerate``.
    """

    def __init__(self, rd: RootDatum, extra: Iterable[Matrix] = ()):
        self.rd = rd
        self.rank = rd.rank
        self.identity = WeylElement(identity_matrix(rd.rank))
        self.simple_maps = tuple(partial(reflect, alpha=s.vector,
                                         coroot=s.coroot)
                                 for s in rd.simple_roots)
        self._gens = self.simple_maps + tuple(partial(mat_apply, m)
                                              for m in extra)
        self._elements: Optional[List[WeylElement]] = None

    @cached_property
    def orbit(self) -> List[Vector]:
        orbit, seen = list(self.identity.matrix), set(self.identity.matrix)
        for v in orbit:                  # the list grows while it is read
            for u in (f(v) for f in self._gens):
                if u not in seen:
                    seen.add(u)
                    orbit.append(u)
        return orbit

    @cached_property
    def _position(self) -> Dict[Vector, int]:
        return {v: i for i, v in enumerate(self.orbit)}

    def permutation(self, f: Callable[[Vector], Vector]) -> Perm:
        """The permutation of ``orbit`` by which the map on vectors acts."""
        return tuple(self._position[f(v)] for v in self.orbit)

    def matrix_of(self, p: Perm) -> Matrix:
        """The matrix of a permutation of ``orbit``."""
        return tuple(zip(*(self.orbit[p[j]] for j in range(self.rank))))

    @cached_property
    def simple_elements(self) -> Tuple[WeylElement, ...]:
        """The simple reflections as elements, for the interfaces that take
        a matrix: each derived once from its orbit permutation."""
        return tuple(WeylElement(self.matrix_of(self.permutation(f)))
                     for f in self.simple_maps)

    @cached_property
    def search(self) -> Tuple[List[Perm], List[Tuple[int, ...]],
                              List[List[int]]]:
        """(perms, words, right) in matrix order: each element's permutation
        of ``orbit``, its reduced word read right to left and ``right[i][j]``,
        the number of w_j s_i.  Each length level is reached from the last
        by right multiplication with the simple reflections in the outer
        loop, so w s_i is first met through its least right descent i, and
        its letters are (i,) + those of w."""
        simple = list(map(self.permutation, self.simple_maps))
        perms = [tuple(range(len(self.orbit)))]
        words, found = [()], {perms[0]: 0}
        right: List[List[int]] = [[] for _ in simple]
        level = range(1)
        while level:
            start = len(perms)
            for i, s in enumerate(simple):
                for a in level:          # right[i] fills in search order
                    q = tuple(map(perms[a].__getitem__, s))
                    b = found.setdefault(q, len(perms))
                    if b == len(perms):
                        if b >= ENUMERATION_CAP:
                            raise WeylError("group enumeration cap exceeded")
                        perms.append(q)
                        words.append((i,) + words[a])
                    right[i].append(b)
            level = range(start, len(perms))
        # a matrix sorts as the integer whose digits, in base ``base``, are
        # its entries less ``lo`` row by row; column j adds digits[j][p[j]]
        lo = min(chain.from_iterable(self.orbit), default=0)
        base = max(chain.from_iterable(self.orbit), default=0) - lo + 1
        n = self.rank
        digits = [[sum((v[i] - lo) * base ** ((n - i) * n - 1 - j)
                       for i in range(n)) for v in self.orbit]
                  for j in range(n)]
        order = sorted(range(len(perms)), key=lambda a: sum(
            map(list.__getitem__, digits, perms[a])))
        number = sorted(range(len(order)), key=order.__getitem__)
        return ([perms[a] for a in order], [words[a] for a in order],
                [[number[r[a]] for a in order] for r in right])

    def enumerate(self) -> List[WeylElement]:
        """All elements, in matrix order, built on the first call."""
        if self._elements is None:
            self._elements = list(map(WeylElement, map(self.matrix_of,
                                                       self.search[0])))
        return self._elements

    @cached_property
    def _words(self) -> Dict[WeylElement, Tuple[int, ...]]:
        return {w: s[::-1] for w, s in zip(self.enumerate(), self.search[1])}

    def reduced_word(self, w: WeylElement) -> Tuple[int, ...]:
        """Reduced word in simple-reflection indices (0-based), recorded by
        ``search``."""
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

    def check(self, rgroup: "RGroup") -> None:
        """The cocycle is on the labels of ``rgroup``, normalized and a
        cocycle; the constant 1 passes at once.  The identity is checked at
        (g, b, c) for generators g: its defect is a 3-cocycle (Brown,
        Cohomology of Groups, IV), 1 at g y when at g and y, and at e."""
        if set(self.labels) != set(rgroup.labels):
            raise WeylError("cocycle labels are not the R-group labels")
        if all(v == 1 for v in self.table.values()):
            return
        identity, mult = rgroup.identity, rgroup.table
        for a in self.labels:
            if self(identity, a) != 1 or self(a, identity) != 1:
                raise WeylError("cocycle is not normalized")
        for a in rgroup.generators:
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
    is the label ``"e"``, acting by the identity matrix.  The group law
    is checked on ``generators``, in label order each label that left
    multiplication by those before it does not reach from e: any other
    label is g y, y reached earlier, so (g y) c = g (y c) and M_g M_y =
    M_{gy} for all g give associativity and M_a M_b = M_{ab} by induction
    (Clifford and Preston, Semigroups I, 1.2); M_a M_{a^-1} = 1 over ZZ.
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
        for l, v in self.translations.items():
            if len(v) != rank:
                raise WeylError("translation of label %r has %d entries, "
                                "not %d" % (l, len(v), rank))
        e, t = self.identity, self.table
        self._inverse, rows = {}, {}   # rows[a][i] = a labels[i]
        for a in self.labels:
            rows[a] = tuple(t.get((a, b)) for b in self.labels)
            for b, c in zip(self.labels, rows[a]):
                if c not in self.matrices:
                    raise WeylError("R-group table has no label at %r"
                                    % ((a, b),))
                if c == e:
                    self._inverse[a] = b
        if len(t) > len(self.labels) ** 2:   # every pair is a key
            raise WeylError("R-group table has keys that are not pairs of "
                            "labels")
        for a in self.labels:
            if t[(e, a)] != a or t[(a, e)] != a:
                raise WeylError("R-group table: %r is not the identity at %r"
                                % (e, a))
        self.generators, reached = [], {e}
        for a in self.labels:
            if a not in reached:
                self.generators.append(a)
                todo = list(reached)
                for y in todo:
                    for gy in {t[(g, y)] for g in self.generators} - reached:
                        reached.add(gy)
                        todo.append(gy)
        for g in self.generators:
            left = dict(zip(self.labels, rows[g]))
            for b, gb in zip(self.labels, rows[g]):
                if mat_mul(self.matrices[g], self.matrices[b]) != \
                        self.matrices[gb]:
                    raise WeylError("R-group matrices do not multiply as the "
                                    "table at %r" % ((g, b),))
                moved = tuple(map(left.__getitem__, rows[b]))   # g (b c)
                if moved != rows[gb]:
                    c = self.labels[[*map(ne, moved, rows[gb])].index(True)]
                    raise WeylError("R-group table is not associative "
                                    "at %r" % ((g, b, c),))
        for a in self.labels:
            if a not in self._inverse:
                raise WeylError("label %r has no inverse" % (a,))
        if any(map(any, self.translations.values())):
            self._check_translation_law()

    def _check_translation_law(self) -> None:
        """The point action e -> P_a e + t(a) is an action only if
        t(ab) = t(a) + P_a t(b) mod ZZ^rank; checked as the matrices are,
        and at a = e, which makes t(e) integral."""
        for a in (self.identity, *self.generators):
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
        points.  Returns the image of each root per non-identity label."""
        images = {}
        for l in self.labels:
            m = self.matrices[l]
            if len(m) != rd.rank:
                raise WeylError("matrix of label %r is not %dx%d"
                                % (l, rd.rank, rd.rank))
            if l == self.identity:
                continue
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
            # s_alpha moves t by -<alpha, t> alpha^vee
            for s in rd.simple_roots if any(t) else ():
                if not _integral(pairing(s.vector, t) * c for c in s.coroot):
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
        """The table's element objects, in id order."""
        return self.table.elements

    def _id(self, g: ExtendedWeylElement) -> int:
        try:
            return self.table.index[g]
        except KeyError:
            raise WeylError("%r is not an element of this group" % (g,)) \
                from None

    def mult(self, g: ExtendedWeylElement, h: ExtendedWeylElement
             ) -> ExtendedWeylElement:
        t = self.table
        return t.elements[t.mult(self._id(g), self._id(h))]

    def inv(self, g: ExtendedWeylElement) -> ExtendedWeylElement:
        t = self.table
        return t.elements[t.inverse[self._id(g)]]

    def act_point(self, g: ExtendedWeylElement, exponents: Vector, order: int
                  ) -> Vector:
        return self.table.images(exponents, order)[self._id(g)]


class GroupTable:
    """W_ext numbered 0 .. |W_ext|-1, the one place that knows its group
    law: id k |W| + j is (w_j, l_k), the j-th element of W in matrix order
    and the k-th R-label.  Generator i is s_i, generator ``gen_index[l]``
    the R-label l; ``perms[k][h]`` is the id of gen_k * h, so s_i (w, l) =
    (s_i w, l) and gamma (w, l) = (gamma w gamma^-1, gamma l).

    Per id the table keeps one record, read off ``WeylGroup.search`` by
    list lookups: label, length (that of w), inverse, a walk (generator
    indices: that of l, then the letters of w right to left, the search's
    own tuple) and the rows of the point matrix, as positions in the orbit.
    The point matrix of g is the transposed action of g^-1, so ``action``
    reads the columns of g's matrix off the point rows of g^-1.
    ``elements`` and ``index`` are built on first access.
    """

    def __init__(self, group: ExtendedGroup):
        rg = self._rgroup = group.rgroup
        wg = self._weyl = group.weyl
        perms, words, right = wg.search
        nw, e, one = len(words), rg.identity, words.index(())

        def walk(letters):               # the number of s_i1 s_i2 ..
            h = one
            for i in letters:
                h = right[i][h]
            return h

        # in W: w^-1 = s_ik .. s_i1 and s_i w = (w^-1 s_i)^-1; gamma w
        # gamma^-1 has the word of w with each s_i sent to gamma s_i
        # gamma^-1, the simple reflection of the simple root gamma alpha_i
        # (W_ext is finite, as its orbit is, so it keeps an inner product)
        w_inv = list(map(walk, words))
        gens = [(None, [w_inv[r[x]] for x in w_inv]) for r in right]
        simple = {s.vector: i for i, s in enumerate(group.rd.simple_roots)}
        for l in rg.labels:
            if l != e:
                image = group.root_images[l]
                sigma = [simple[image[s]] for s in simple]
                gens.append((l, [walk(map(sigma.__getitem__, reversed(word)))
                                 for word in words]))
        # ids 0 .. |W| - 1 are the search's own int objects, not copies
        ids = sorted(right[0] if right else [one]) + \
            list(range(nw, nw * len(rg.labels)))
        block = {l: ids[k * nw:(k + 1) * nw] for k, l in enumerate(rg.labels)}
        self.perms: List[List[int]] = [list(chain.from_iterable(
            map(block[b if l is None else rg.mult(l, b)].__getitem__, moved)
            for b in rg.labels)) for l, moved in gens]
        self.gen_index: Dict[str, int] = {
            l: k for k, (l, _m) in enumerate(gens) if l is not None}
        gen = {l: self.perms[k] for l, k in self.gen_index.items()}
        self.labels: List[str] = [l for l in rg.labels for _ in range(nw)]
        self.lengths: List[int] = list(map(len, words)) * len(rg.labels)
        self.identity = block[e][one]
        self.inverse: List[int] = [gen.get(rg.inv(l), ids)[block[e][x]]
                                   for l in rg.labels for x in w_inv]
        walks = [words if l == e else [(self.gen_index[l],) + t for t in words]
                 for l in rg.labels]
        self._walks = walks[0] if len(walks) == 1 else list(chain(*walks))
        self._shifts: Dict[Tuple[str, int], Vector] = {}
        # point rows are orbit positions; orbit vectors as their nonzeros
        self._sparse = [tuple((j, a) for j, a in enumerate(v) if a)
                        for v in wg.orbit]
        # column j of the action of (w, l) is orbit[p_w[r_l[j]]], with p_w
        # the permutation of w and r_l the positions of R(l)'s columns
        columns = [tuple(map(p.__getitem__, r)) for r in (
            tuple(map(wg._position.__getitem__, zip(*rg.matrix(l))))
            for l in rg.labels) for p in perms]
        self._point_rows = list(map(columns.__getitem__, self.inverse))

    @cached_property
    def elements(self) -> List[ExtendedWeylElement]:
        return [ExtendedWeylElement(w, l) for l in self._rgroup.labels
                for w in self._weyl.enumerate()]

    @cached_property
    def index(self) -> Dict[ExtendedWeylElement, int]:
        return {g: i for i, g in enumerate(self.elements)}

    def action(self, g: int) -> Matrix:
        """The action matrix of id g, built from the point rows of g^-1."""
        return tuple(zip(*map(self._weyl.orbit.__getitem__,
                              self._point_rows[self.inverse[g]])))

    def mult(self, g: int, h: int) -> int:
        perms = self.perms
        for i in self._walks[g]:
            h = perms[i][h]
        return h

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
            for t in self._rgroup.translations[label]:
                s = t * order
                if s.denominator != 1:
                    raise WeylError(
                        "translation part with denominator %d does not "
                        "preserve points of order %d" % (t.denominator, order))
                out.append(int(s))
            self._shifts[key] = tuple(out)
        return self._shifts[key]

    def images(self, exponents: Vector, order: int) -> List[Vector]:
        """The point moved by every id, in id order, from each orbit
        vector paired with the point once."""
        values = [sum(a * exponents[j] for j, a in v) for v in self._sparse]
        cols = {l: [[(v + s) % order for v in values]
                    for s in self.shift(l, order)] for l in self._rgroup.labels}
        return [tuple(map(list.__getitem__, cols[l], rows))
                for rows, l in zip(self._point_rows, self.labels)]


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
    2*alpha(t) = 1).  A reflection is its own inverse, so its id is the
    one in the stabilizer, with the identity label, whose point rows are
    its matrix's columns.  The relative diagram part is the complement to
    the reflection part in the stabilizer made of the elements that send
    the subsystem's simple roots to positive roots.
    """
    rd = group.rd
    exponents = tuple(e % order for e in exponents)
    table = group.table
    stab = [g for g, x in enumerate(table.images(exponents, order))
            if x == exponents]

    root_values: Dict[Vector, int] = {}
    for r in rd.roots:   # alpha(t) = zeta_order^<alpha, exponents>
        pair = pairing(r.vector, exponents) % order
        if pair == 0:
            root_values[r.vector] = 1
        elif r.halvable and 2 * pair == order:
            root_values[r.vector] = -1
    subsystem = subdatum(rd, root_values)
    columns = {group.weyl.permutation(partial(
        reflect, alpha=s.vector, coroot=s.coroot))[:rd.rank]
        for s in subsystem.simple_roots}
    reflection_part = table.subgroup(
        g for g in stab if table.labels[g] == group.rgroup.identity
        and table._point_rows[g] in columns)
    diagram_part = [
        g for g, m in zip(stab, map(table.action, stab))
        if all(subsystem.is_positive(mat_apply(m, s.vector))
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
        return frozenset({name for name in ("dominant", "antidominant_obtuse",
                                            "antidominant_obtuse_interior")
                          if getattr(self, name)} or {"none"})


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
