import contextlib
import io
import itertools
import json
import math
import operator
import pathlib
import random
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from oracle_helpers import (cocycle_oracle, descent_word, fraction_rref,
                            mat_inv, rgroup_oracle, root_count_length,
                            root_lattice_a2, simple_reflections,
                            stabilizer_oracle, word_matrix)

from heckealg import cli, weyl
from heckealg.checks import (check_braid, graded_test_descriptors,
                             standard_descriptors)
from heckealg.hecke import multiply, spread_invariant
from heckealg.pipeline import BUILTIN_EXAMPLES, assemble, datum_from_json
from heckealg.root_data import build_classical, empty_datum, product
from heckealg.weyl import (Cocycle, ExtendedGroup, ExtendedWeylElement,
                           RGroup, WeylElement, WeylError, WeylGroup,
                           cone_classify, identity_matrix,
                           mat_apply, mat_mul, mat_transpose,
                           min_coset_reps, rref, stabilizer_of_point)


def test_enumeration_orders():
    assert len(WeylGroup(build_classical("B", 2)).enumerate()) == 8
    assert len(WeylGroup(build_classical("A", 2)).enumerate()) == 6
    assert len(WeylGroup(empty_datum(0)).enumerate()) == 1
    assert len(WeylGroup(build_classical("BC", 2)).enumerate()) == 8
    assert len(WeylGroup(build_classical("D", 3)).enumerate()) == 24


def test_reduced_words():
    b2 = build_classical("B", 2)
    wg = WeylGroup(b2)
    assert wg.reduced_word(wg.identity) == ()
    longest = max(wg.enumerate(), key=wg.length)
    word = wg.reduced_word(longest)
    assert len(word) == 4 == wg.length(longest)
    assert word_matrix(b2, word) == longest.matrix

    a2 = build_classical("A", 2)
    wa = WeylGroup(a2)
    braid_l = WeylElement(word_matrix(a2, [0, 1, 0]))
    assert braid_l.matrix == word_matrix(a2, [1, 0, 1])
    assert wa.length(braid_l) == 3
    assert len(wa.reduced_word(braid_l)) == 3
    with pytest.raises(WeylError, match="not an element"):
        wa.length(WeylElement(((2, 0, 0), (0, 1, 0), (0, 0, 1))))


def test_words_multiply_back_and_subadditivity():
    rng = random.Random(2)
    b3 = build_classical("B", 3)
    wg = WeylGroup(b3)
    els = wg.enumerate()
    for _ in range(60):
        w = rng.choice(els)
        v = rng.choice(els)
        word = wg.reduced_word(w)
        assert word_matrix(b3, word) == w.matrix
        assert len(word) == wg.length(w)
        wv = WeylElement(mat_mul(w.matrix, v.matrix))
        lw, lv, lwv = wg.length(w), wg.length(v), wg.length(wv)
        assert lwv <= lw + lv
        if lwv == lw + lv:
            concat = wg.reduced_word(w) + wg.reduced_word(v)
            assert word_matrix(b3, concat) == wv.matrix
            assert len(concat) == lwv


def test_min_coset_reps():
    ga = ExtendedGroup(build_classical("A", 2))
    ta = ga.table
    s1, s2 = (ta.perms[i][ta.identity] for i in (0, 1))
    reps = min_coset_reps(ga, [ta.identity, s1])
    assert sorted(ta.lengths[r] for r in reps) == [0, 1, 2]
    assert reps == sorted(reps, key=lambda g: (ta.lengths[g],
                                               ta.elements[g].weyl.matrix))

    assert min_coset_reps(ga, range(len(ta.elements))) == [ta.identity]

    gb = ExtendedGroup(build_classical("B", 2))
    tb = gb.table
    s_short = tb.perms[1][tb.identity]   # short simple root e_2
    reps = min_coset_reps(gb, [tb.identity, s_short])
    assert len(reps) == 4

    with pytest.raises(WeylError):
        min_coset_reps(ga, [ta.identity, s1, s2])


def test_stabilizer_of_point():
    b2 = build_classical("B", 2)
    g = ExtendedGroup(b2)
    # identity point: full group
    stab = stabilizer_of_point(g, (0, 0), 1)
    assert len(stab.elements) == 8
    assert len(stab.reflection_part) == 8
    assert len(stab.diagram_part) == 1

    # order-2 point (1, 0): e1 -> -1 (halvable, so included), e2 -> +1,
    # long roots excluded; subsystem B1 x B1, stabilizer splits cleanly
    stab = stabilizer_of_point(g, (1, 0), 2)
    assert {r.vector for r in stab.subsystem.roots} == {(1, 0), (-1, 0),
                                                        (0, 1), (0, -1)}
    assert stab.root_values == {(1, 0): -1, (-1, 0): -1, (0, 1): 1,
                                (0, -1): 1}
    assert len(stab.reflection_part) == 4
    assert len(stab.elements) == len(stab.reflection_part) * len(stab.diagram_part)

    # generic point of large prime order: trivial stabilizer
    stab = stabilizer_of_point(g, (1, 3), 101)
    assert len(stab.elements) == 1
    assert len(stab.subsystem.roots) == 0


def test_stabilizer_rank1_realizations():
    # Both integral realizations of the rank-1 negation action fix every
    # order-2 point, and in both the reflection enters the subsystem:
    # alpha = 2e (SL2-style): alpha(t) = (+1); alpha = e with coroot 2e
    # (halvable): alpha(t) = -1, included through the halvable rule.
    sl2 = ExtendedGroup(build_classical("C", 1))
    stab = stabilizer_of_point(sl2, (1,), 2)
    assert len(stab.elements) == 2
    assert len(stab.reflection_part) == 2

    pgl2 = ExtendedGroup(build_classical("B", 1))
    stab = stabilizer_of_point(pgl2, (1,), 2)
    assert len(stab.elements) == 2
    assert len(stab.reflection_part) == 2
    assert {r.vector for r in stab.subsystem.roots} == {(1,), (-1,)}


def test_cone_classify_examples():
    b2 = build_classical("B", 2)
    zero = cone_classify(b2, [Fraction(0), Fraction(0)])
    assert zero.dominant and zero.antidominant_obtuse
    assert not zero.antidominant_obtuse_interior

    neg = [Fraction(-sum(s.coroot[i] for s in b2.simple_roots))
           for i in range(2)]
    m = cone_classify(b2, neg)
    assert m.antidominant_obtuse and m.antidominant_obtuse_interior

    a2 = build_classical("A", 2)
    cor = a2.simple_roots[0].coroot
    m = cone_classify(a2, [Fraction(c) for c in cor])
    # alpha_1^vee pairs negatively with alpha_2, so it is in no cone at all
    assert not m.antidominant_obtuse and not m.antidominant_obtuse_interior
    assert not m.dominant
    assert m.labels() == frozenset({"none"})
    with pytest.raises(WeylError):
        cone_classify(a2, [Fraction(1)])


def test_essentially_interior_vs_interior():
    # A1 in ZZ^2 does not span; strict combinations are essentially
    # interior but never interior in the ambient space
    a1 = build_classical("A", 1)
    x = [Fraction(-1), Fraction(1)]   # = -alpha^vee
    m = cone_classify(a1, x)
    assert m.antidominant_obtuse and m.essentially_interior
    assert not m.antidominant_obtuse_interior


def test_cocycle_validation():
    labels = ("e", "g")
    mult = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"}
    rg = RGroup(labels, dict.fromkeys(labels, identity_matrix(1)), mult)
    triv = Cocycle.trivial(labels)
    triv.check(rg)
    tw = Cocycle(labels, {("e", "e"): 1, ("e", "g"): 1, ("g", "e"): 1,
                          ("g", "g"): -1})
    tw.check(rg)
    bad = Cocycle(labels, {("e", "e"): 1, ("e", "g"): -1, ("g", "e"): 1,
                           ("g", "g"): 1})
    with pytest.raises(WeylError):
        bad.check(rg)


def test_translation_order_compatibility():
    # a half-integer translation cannot act on points of odd order
    from fractions import Fraction as F
    from heckealg.root_data import empty_datum
    rd = empty_datum(1)
    rg = RGroup(("e", "g"), {"e": identity_matrix(1),
                             "g": identity_matrix(1)},
                {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g",
                 ("g", "g"): "e"},
                translations={"g": (F(1, 2),)})
    g = ExtendedGroup(rd, rg)
    lbl = [x for x in g.elements() if x.diagram == "g"][0]
    assert g.act_point(lbl, (0,), 2) == (1,)
    with pytest.raises(WeylError):
        g.act_point(lbl, (0,), 3)


def test_rgroup_must_stabilize_positives():
    a1a1 = build_classical("A", 1)
    flip = ((0, 1), (1, 0))   # swaps e1, e2: sends e1 - e2 to its negative
    rg = RGroup(("e", "g"), {"e": identity_matrix(2), "g": flip},
                {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g",
                 ("g", "g"): "e"})
    with pytest.raises(WeylError):
        ExtendedGroup(a1a1, rg)


def test_rref_rank_and_pivots():
    rows, pivots = rref([[2, 4, 1], [1, 2, 0], [3, 6, 1]], 3)
    assert pivots == [0, 2]
    assert rows == [[1, 2, 0], [0, 0, 1]]
    assert rref([], 0) == ([], [])


def test_rref_matches_fraction_reference():
    """The integer eliminator gives the reduced rows and pivots of
    elimination over Fraction, on square, wide and tall, rank-deficient
    and augmented integer matrices."""
    rng = random.Random(16)
    for _ in range(300):
        height, width = rng.randint(0, 6), rng.randint(0, 6)
        rank = rng.randint(0, min(height, width))
        basis = [[rng.randint(-5, 5) for _ in range(width)]
                 for _ in range(rank)]
        augmented = rng.choice((0, 0, 1, 3))
        rows = [[sum(rng.randint(-3, 3) * b[j] for b in basis)
                 for j in range(width)]
                + [rng.randint(-9, 9) for _ in range(augmented)]
                for _ in range(height)]
        assert rref(rows, width) == fraction_rref(rows, width)


def test_mat_inv_exact_and_rejects_non_unimodular():
    m = ((2, 1), (1, 1))
    assert mat_mul(m, mat_inv(m)) == identity_matrix(2)
    for bad in (((2, 1), (1, 2)), ((1, 1), (1, 1))):
        with pytest.raises(WeylError):
            mat_inv(bad)


def test_rgroup_validation():
    ident = identity_matrix(2)
    z2 = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"}
    with pytest.raises(WeylError, match="no label"):
        RGroup(("e", "g"), {"e": ident, "g": ident},
               {k: v for k, v in z2.items() if k != ("g", "g")})
    with pytest.raises(WeylError, match="multiply"):
        RGroup(("e", "g"), {"e": ident, "g": ((2, 1), (1, 2))}, z2)
    with pytest.raises(WeylError, match="multiply"):
        RGroup(("e", "g"), {"e": ident, "g": ((1, 1), (0, 1))}, z2)
    swap = ((0, 1), (1, 0))
    rg = RGroup(("e", "g"), {"e": ident, "g": swap}, z2)
    b1b1 = product(build_classical("B", 1), build_classical("B", 1))
    table = ExtendedGroup(b1b1, rg).table
    g = table.index[ExtendedWeylElement(WeylElement(ident), "g")]
    assert table.action(table.inverse[g]) == swap
    with pytest.raises(WeylError, match="cocycle labels repeat"):
        Cocycle(("e", "e"), {("e", "e"): 1})


# ---------------------------------------------------------------------------
# R-group and cocycle checks on generators against the exhaustive oracle
# ---------------------------------------------------------------------------

def _label_group(elements, mult, matrix, translation=None, seed=0):
    """(labels, matrices, table, translations) of a finite group given
    by its elements (the identity first), product and matrices, with its
    labels in a seeded random order, the identity named e."""
    names = ["e"] + ["g%d" % i for i in range(1, len(elements))]
    name = dict(zip(elements, names))
    random.Random(seed).shuffle(names)
    rank = len(matrix(elements[0]))
    translation = translation or (lambda x: (Fraction(0),) * rank)
    return (tuple(names), {name[x]: matrix(x) for x in elements},
            {(name[x], name[y]): name[mult(x, y)]
             for x in elements for y in elements},
            {name[x]: tuple(translation(x)) for x in elements})


def _perm_matrix(p):
    return tuple(tuple(int(i == p[j]) for j in range(len(p)))
                 for i in range(len(p)))


def _s3_coboundary(p):
    # t(a) = P_a v - v, P_a = M_{a^-1}^T = M_a, satisfies the law
    v = (Fraction(1, 2), Fraction(1, 3), Fraction(0))
    return tuple(x - y for x, y in zip(mat_apply(_perm_matrix(p), v), v))


S3 = list(itertools.permutations(range(3)))
LABEL_GROUPS = {
    # Z/5 as cyclic shifts of ZZ^5
    "Z5-shifts": (range(5), lambda a, b: (a + b) % 5,
                  lambda a: _perm_matrix([(j + a) % 5 for j in range(5)]),
                  None),
    # (Z/2)^3 as diagonal sign matrices
    "Z2^3-signs": (range(8), operator.xor,
                   lambda a: tuple(tuple((-1) ** (a >> i & 1) * (i == j)
                                         for j in range(3))
                                   for i in range(3)), None),
    "S3-permutations": (S3, lambda p, q: tuple(p[i] for i in q),
                        _perm_matrix, None),
    # every label acts by the identity, as in demo 03
    "Z2^2-identity": (range(4), operator.xor,
                      lambda a: identity_matrix(1), None),
    "Z4-translations": (range(4), lambda a, b: (a + b) % 4,
                        lambda a: identity_matrix(2),
                        lambda a: (Fraction(a, 4), Fraction(a, 2))),
    "S3-translations": (S3, lambda p, q: tuple(p[i] for i in q),
                        _perm_matrix, _s3_coboundary),
}


def _rgroup_accepts(labels, matrices, table, translations):
    try:
        RGroup(labels, matrices, table, translations)
    except WeylError:
        return False
    return True


def _table_mutations(labels, table, rng):
    """Tables with one entry changed, and tables whose rows along one
    left orbit of a label are composed with one permutation fixing e,
    which the checks with that label alone cannot tell from a group."""
    for _ in range(40):
        key = rng.choice(sorted(table))
        yield {**table, key: rng.choice([l for l in labels
                                         if l != table[key]])}
    for _ in range(40):
        a, x = rng.choice(labels), rng.choice(labels)
        rest = [l for l in labels if l != "e"]
        tau = dict(zip(rest, rng.sample(rest, len(rest))), e="e")
        orbit = [x]
        while table[(a, orbit[-1])] not in orbit:
            orbit.append(table[(a, orbit[-1])])
        yield {**table, **{(y, c): table[(y, tau[c])]
                           for y in orbit for c in labels}}


def _mutations(labels, matrices, table, translations, rng):
    yield matrices, table, translations
    for mutated in _table_mutations(labels, table, rng):
        yield matrices, mutated, translations
    for x, y in itertools.combinations(labels, 2):
        yield {**matrices, x: matrices[y], y: matrices[x]}, table, \
            translations
    rank = len(matrices["e"])
    for _ in range(20 if rank else 0):
        label, i = rng.choice(labels), rng.randrange(rank)
        moved = list(translations[label])
        moved[i] += Fraction(rng.randrange(1, 6), 6)
        yield matrices, table, {**translations, label: tuple(moved)}


@pytest.mark.parametrize("name", sorted(LABEL_GROUPS))
def test_rgroup_check_on_generators_matches_the_oracle(name):
    """``RGroup`` accepts a label group exactly when the checks on every
    pair and triple do, on seeded mutations of a small group: a changed
    table entry, rows composed with a permutation, two matrices swapped,
    a changed translation."""
    for seed in range(3):
        rng = random.Random(seed)
        labels, *group = _label_group(*LABEL_GROUPS[name], seed=seed)
        verdicts = set()
        for case in _mutations(labels, *group, rng):
            verdict = rgroup_oracle(labels, *case)
            assert _rgroup_accepts(labels, *case) == verdict, case
            verdicts.add(verdict)
        assert verdicts == {True, False}


def _cocycles(labels, table, rng):
    """Seeded coboundaries f(a) f(b) / f(ab) on the group, each with
    one and with two of its signs flipped."""
    for _ in range(10):
        f = {l: rng.choice((1, -1)) if l != "e" else 1 for l in labels}
        kappa = {(a, b): f[a] * f[b] * f[table[(a, b)]]
                 for a in labels for b in labels}
        yield kappa
        for flips in (1, 2):
            keys = rng.sample(sorted(kappa), flips)
            yield {**kappa, **{k: -kappa[k] for k in keys}}


@pytest.mark.parametrize("name", sorted(LABEL_GROUPS))
def test_cocycle_check_on_generators_matches_the_oracle(name):
    """``Cocycle.check`` accepts exactly when normalization and the
    cocycle identity at every triple hold; on (Z/2)^2, for every
    normalized sign table."""
    for seed in range(3):
        rng = random.Random(seed)
        labels, matrices, table, translations = _label_group(
            *LABEL_GROUPS[name], seed=seed)
        rg = RGroup(labels, matrices, table, translations)
        values = list(_cocycles(labels, table, rng))
        if name == "Z2^2-identity":
            inner = [(a, b) for a in labels for b in labels
                     if "e" not in (a, b)]
            values += [{**Cocycle.trivial(labels).table,
                        **dict(zip(inner, signs))}
                       for signs in itertools.product((1, -1),
                                                      repeat=len(inner))]
        verdicts = set()
        for kappa in values:
            verdict = cocycle_oracle(kappa, labels, table)
            try:
                Cocycle(labels, kappa).check(rg)
                accepted = True
            except WeylError:
                accepted = False
            assert accepted == verdict, kappa
            verdicts.add(verdict)
        assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# The group table against the matrix definition of W_ext
# ---------------------------------------------------------------------------

def _table_test_groups():
    descs = standard_descriptors()
    groups = {name: d.wext for name, d in descs.items()}
    groups.update((name, gd.wext) for name, gd
                  in graded_test_descriptors(descs).items())
    for name, doc in BUILTIN_EXAMPLES.items():
        groups[name] = assemble(datum_from_json(doc)).descriptor.wext
    # two labels acting by the same matrix, with a translation part
    groups["sl-shared-matrix"] = assemble(datum_from_json({
        "group": {"family": "SL", "n": 4, "division_degree": 1},
        "blocks": [{"side": "GL", "dim": 1, "e": 2, "levi": 2,
                    "torsion": 2}],
        "sl_rgroup": {
            "labels": ["e", "g"],
            "matrices": {"e": [[1, 0], [0, 1]], "g": [[1, 0], [0, 1]]},
            "table": {"e,e": "e", "e,g": "g", "g,e": "g", "g,g": "e"},
            "cocycle": {"e,e": 1, "e,g": 1, "g,e": 1, "g,g": -1},
            "translations": {"g": ["1/2", "1/2"]},
        }})).descriptor.wext
    # an R-group of order 3 (its labels are not involutions) cycling the
    # three blocks of A1 x A1 x A1
    a1 = build_classical("A", 1)
    cycles = {"e": 0, "c": 1, "c2": 2}
    rg = RGroup(tuple(cycles),
                {l: tuple(tuple(int(i == (j + 2 * k) % 6) for j in range(6))
                          for i in range(6)) for l, k in cycles.items()},
                {(a, b): next(l for l, k in cycles.items()
                              if k == (cycles[a] + cycles[b]) % 3)
                 for a in cycles for b in cycles})
    groups["A1^3-cyclic"] = ExtendedGroup(product(product(a1, a1), a1), rg)
    # A2 on the root lattice, basis the simple roots: its Weyl matrices
    # are not signed permutations, and the orbit of the basis is the roots
    a2 = root_lattice_a2()
    groups["A2-root-lattice"] = ExtendedGroup(a2)
    z2 = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"}
    swap = ((0, 1), (1, 0))          # the diagram automorphism
    groups["A2-root-lattice-swap"] = ExtendedGroup(a2, RGroup(
        ("e", "g"), {"e": identity_matrix(2), "g": swap}, z2))
    # an R-label sending e_1 to e_1 + e_2, which only the closure of the
    # orbit under the R-labels, not under W, reaches
    shear = ((1, 0), (1, -1))
    groups["rank2-shear-label"] = ExtendedGroup(empty_datum(2), RGroup(
        ("e", "g"), {"e": identity_matrix(2), "g": shear}, z2))
    # a label acting by the identity matrix with no translation: (s, g)
    # acts as the reflection s but is not in W(R_t)
    groups["B1-identity-label"] = ExtendedGroup(
        build_classical("B", 1),
        RGroup(("e", "g"), {l: identity_matrix(1) for l in "eg"}, z2))
    return groups


TABLE_GROUPS = _table_test_groups()
BENCH_DATA = pathlib.Path(__file__).resolve().parents[1] / "bench" / "data"
WORD_GROUPS = dict(TABLE_GROUPS, **{
    "bench-" + path.stem: assemble(datum_from_json(
        json.loads(path.read_text()))).descriptor.wext
    for path in sorted(BENCH_DATA.glob("*.json"))})


@pytest.mark.parametrize("name", sorted(WORD_GROUPS))
def test_recorded_words_and_lengths_match_oracles(name):
    """The words recorded by enumeration are the descent-loop words, and
    lengths, the table's lengths and its inverses agree with the root
    count and the matrices."""
    group = WORD_GROUPS[name]
    wg, rd, rg, table = group.weyl, group.rd, group.rgroup, group.table
    for w in wg.enumerate():
        assert wg.reduced_word(w) == descent_word(rd, w.matrix)
        assert wg.length(w) == root_count_length(rd, w.matrix)
    for g, elem in enumerate(table.elements):
        assert table.lengths[g] == root_count_length(rd, elem.weyl.matrix)
        h = table.inverse[g]
        assert table.labels[h] == rg.inv(elem.diagram)
        assert mat_mul(table.action(g), table.action(h)) == \
            identity_matrix(rd.rank)


@pytest.mark.parametrize("name", sorted(TABLE_GROUPS))
def test_group_table_matches_matrix_definition(name):
    """Products, inverses, action and point matrices and the point action
    of the table agree with (w1 r1 w2 r1^-1, l1 l2) computed on matrices."""
    group = TABLE_GROUPS[name]
    rg = group.rgroup
    els = group.elements()
    assert group.table.elements == els
    assert els[group.table.identity] == group.identity
    r_inv = {l: mat_inv(rg.matrix(l)) for l in rg.labels}

    def conj(label, m):
        if label == rg.identity:     # its matrix is the identity
            return m
        return mat_mul(mat_mul(rg.matrix(label), m), r_inv[label])

    for g in els:
        action = mat_mul(g.weyl.matrix, rg.matrix(g.diagram))
        assert group.table.action(group.table.index[g]) == action
        point = mat_transpose(mat_inv(action))
        inverse = group.table.inverse[group.table.index[g]]
        assert mat_transpose(group.table.action(inverse)) == point
        li = rg.inv(g.diagram)
        assert group.inv(g) == ExtendedWeylElement(
            WeylElement(conj(li, mat_inv(g.weyl.matrix))), li)
        for order in (2, 4):
            for x in ((0,) * group.rd.rank, tuple(range(group.rd.rank))):
                moved = mat_apply(point, x)
                shift = [int(t * order) for t in rg.translations[g.diagram]]
                assert group.act_point(g, x, order) == tuple(
                    (a + s) % order for a, s in zip(moved, shift))
    # columns of r w r^-1 for every label r and Weyl part w
    columns = {l: {h: tuple(zip(*conj(l, h.weyl.matrix))) for h in els}
               for l in rg.labels}
    for g in els:
        cols = columns[g.diagram]
        for h in els:
            gh = group.mult(g, h)
            assert gh.diagram == rg.mult(g.diagram, h.diagram)
            assert gh.weyl.matrix == tuple(
                tuple(sum(map(operator.mul, row, col)) for col in cols[h])
                for row in g.weyl.matrix)
    # the public generator permutations: s_i (w, l) = (s_i w, l) and
    # gamma (w, l) = (gamma w gamma^-1, gamma l)
    table = group.table
    gens = [(k, s, rg.identity)
            for k, s in enumerate(simple_reflections(group.rd))]
    gens += [(table.gen_index[l], rg.matrix(l), l) for l in rg.labels
             if l != rg.identity]
    assert sorted(k for k, _s, _l in gens) == list(range(len(table.perms)))
    for k, m, label in gens:
        perm = table.perms[k]
        for h in els:
            if label == rg.identity:
                want = ExtendedWeylElement(
                    WeylElement(mat_mul(m, h.weyl.matrix)), h.diagram)
            else:
                want = ExtendedWeylElement(
                    WeylElement(conj(label, h.weyl.matrix)),
                    rg.mult(label, h.diagram))
            assert table.elements[perm[table.index[h]]] == want


def _translation_den(group):
    return math.lcm(*(t.denominator for v in group.rgroup.translations
                      .values() for t in v))


def _stabilizer_points(group):
    """The stabilizer test points (the origin, order-2 points, an order-3
    point and a generic point of order 101) in the group's rank, written
    over an order that its R-group translations preserve."""
    rank = group.rd.rank
    den = _translation_den(group)
    first = tuple(int(i == 0) for i in range(rank))
    points = [((0,) * rank, 1), (first, 2), ((1,) * rank, 2),
              (tuple(range(rank)), 3), (tuple(range(1, rank + 1)), 101)]
    return [(tuple(den * e for e in x), den * n) for x, n in points]


@pytest.mark.parametrize("name", sorted(TABLE_GROUPS))
def test_stabilizer_decomposition(name):
    """The stabilizer is W(R_t) x| Gamma_t on table ids: the reflection
    part closed on the table is W(subsystem) enumerated by matrices, and
    (r, d) -> r d is a bijection onto the stabilizer."""
    group = TABLE_GROUPS[name]
    table = group.table
    for x, order in _stabilizer_points(group):
        stab = stabilizer_of_point(group, x, order)
        oracle = sorted(table.index[ExtendedWeylElement(w, group.identity
                                                        .diagram)]
                        for w in WeylGroup(stab.subsystem).enumerate())
        assert stab.reflection_part == oracle
        elements = set(stab.elements)
        assert set(stab.reflection_part) <= elements
        assert set(stab.diagram_part) <= elements
        assert set(stab.reflection_part) & set(stab.diagram_part) == \
            {table.identity}
        products = [table.mult(r, d) for r in stab.reflection_part
                    for d in stab.diagram_part]
        assert len(set(products)) == len(products) == len(elements)
        assert set(products) == elements


def _assert_stabilizer_matches_oracle(group, x, order):
    stab = stabilizer_of_point(group, x, order)
    assert (stab.elements, stab.reflection_part, stab.diagram_part,
            stab.root_values) == stabilizer_oracle(group, x, order)


@pytest.mark.parametrize("name", sorted(
    name for name, group in TABLE_GROUPS.items() if group.rd.rank <= 3))
def test_stabilizer_matches_the_matrix_oracle(name):
    """At every point of order 1, 2 and 4 (written over an order that the
    R-group translations preserve), the stabilizer, both of its parts and
    the root values agree with the construction on matrices and ``index``."""
    group = TABLE_GROUPS[name]
    den = _translation_den(group)
    for order in (1, 2, 4):
        for x in itertools.product(range(order), repeat=group.rd.rank):
            _assert_stabilizer_matches_oracle(
                group, tuple(den * a for a in x), den * order)


def test_stabilizer_matches_the_matrix_oracle_on_sp58():
    """The same comparison on sp58 at 30 seeded points of orders 2 to 10,
    their coordinates biased to 0 and order / 2."""
    group = TABLE_GROUPS["sp58"]
    rng = random.Random(58)
    for _ in range(30):
        order = rng.choice((2, 4, 8, 10))
        x = tuple(rng.choice((0, order // 2, rng.randrange(order)))
                  for _ in range(group.rd.rank))
        _assert_stabilizer_matches_oracle(group, x, order)


def _recorded_mat_mul_calls(monkeypatch):
    """Route every ``heckealg`` module's ``mat_mul`` through a recorder
    and return the list it appends the calls to."""
    calls, real = [], weyl.mat_mul

    def counting_mat_mul(a, b):
        calls.append((a, b))
        return real(a, b)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("heckealg") and \
                getattr(module, "mat_mul", None) is real:
            monkeypatch.setattr(module, "mat_mul", counting_mat_mul)
    return calls


@pytest.mark.parametrize("name", sorted(TABLE_GROUPS))
def test_no_matrix_products_in_enumeration_or_table_build(name, monkeypatch):
    """Enumeration and the table build compose permutations: a fresh
    group of the same datum and R-group builds with no ``mat_mul`` call."""
    group = TABLE_GROUPS[name]
    calls = _recorded_mat_mul_calls(monkeypatch)
    fresh = ExtendedGroup(group.rd, group.rgroup)
    assert all(fresh.table.action(g) == group.table.action(g)
               for g in range(len(group.table.labels)))
    assert fresh.table.perms == group.table.perms
    assert calls == []


def _b6_table_and_count():
    from oracle_helpers import b6_count_at_order_one, b6_table_spot_checks
    b6_count_at_order_one(b6_table_spot_checks(), 2)


def test_b6_table_builds_within_ten_seconds():
    """W(B6) builds its table and counts its 65 classes at order 1, the
    count in under 2 s, in a child interpreter capped at 1 GiB of address
    space and 10 s of wall clock, so that a slower group layer fails here
    instead of stalling the suite."""
    from oracle_helpers import run_capped
    run_capped(_b6_table_and_count, seconds=10)


B6 = {"group": {"family": "Sp", "n": 6},
      "blocks": [{"side": "O", "dim": 1, "e": 6, "ell": 1, "torsion": 1}]}


def _cli(datum, command, *args):
    """(exit code, stdout, stderr) of ``cli.main`` on the datum."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "datum.json"
        path.write_text(json.dumps(datum))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--input", str(path), *args])
    return code, out.getvalue(), err.getvalue()


def _b6_count_in_the_cli():
    code, out, _ = _cli(B6, "count", "--order", "1", "--format", "json")
    assert code == 0 and json.loads(out)["total"] == 65


def test_b6_count_within_104_mib():
    """``count --order 1`` on B6, |W| = 46080, runs in a child capped at
    104 MiB of address space: the table keeps no element object or
    matrix per id."""
    from oracle_helpers import run_capped
    run_capped(_b6_count_in_the_cli, seconds=30, mib=104)


def _d_blocks(k):
    """k D1 blocks and one empty one: |W| = 1, R-group (Z/2)^k, trivial
    cocycle."""
    return {"group": {"family": "Sp", "n": k},
            "blocks": [{"side": "O", "dim": 1, "e": 1, "ell": 0}] * k +
            [{"side": "O", "dim": 1, "e": 0, "ell": 1}]}


def _d8_describe_in_the_cli():
    code, out, _ = _cli(_d_blocks(8), "describe")
    assert code == 0 and "R-group: (Z/2)^8" in out


def _d10_describe_in_the_cli():
    code, out, _ = _cli(_d_blocks(10), "describe")
    assert code == 0 and "R-group: (Z/2)^10" in out


def test_d8_describe_skips_the_trivial_cocycle_identity():
    """``describe`` on 8 D1 blocks, |R| = 256, and on 10, |R| = 1024,
    runs in children capped at 10 s of wall clock and 128 and 512 MiB of
    address space: the trivial cocycle skips the |R|^3 identity check,
    and the R-group checks its group law on generators, not on all
    |R|^2 pairs of matrices."""
    from oracle_helpers import run_capped
    run_capped(_d8_describe_in_the_cli, seconds=10, mib=128)
    run_capped(_d10_describe_in_the_cli, seconds=10, mib=512)


def _d_blocks_refused_in_the_cli():
    for k in (11, 20):
        start = time.perf_counter()
        code, out, err = _cli(_d_blocks(k), "describe")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith("input error: |R| = %d: its table of " % 2 ** k)


def test_d_blocks_with_a_table_past_the_cap_are_refused():
    """``describe`` refuses 11 and 20 D1 blocks, each within 1 s, on the
    closed-form |R| = 2^k, whose |R|^2-entry table passes the enumeration
    cap, before any label is built; in a child capped at 4 s of wall
    clock, interpreter start included, and 128 MiB of address space."""
    from oracle_helpers import run_capped
    run_capped(_d_blocks_refused_in_the_cli, seconds=4, mib=128)


def _b6_stabilizer_on_ids():
    group = ExtendedGroup(build_classical("B", 6))
    made, post_init = [], WeylElement.__post_init__

    def counting(self):
        made.append(self)
        post_init(self)
    WeylElement.__post_init__ = counting
    stab = stabilizer_of_point(group, (1, 0, 0, 0, 0, 0), 2)
    # W(B1 x B5), |W(B1)| |W(B5)| = 2 * 3840, and no diagram part
    assert len(stab.elements) == len(stab.reflection_part) == 7680
    assert stab.diagram_part == [group.table.identity]
    assert made == []
    assert not {"elements", "index"} & set(vars(group.table))


def test_b6_stabilizer_builds_no_element_objects():
    """``stabilizer_of_point`` on W(B6) at an order-2 point, in a child
    capped at 30 s of wall clock and 104 MiB of address space, builds its
    table and finds both parts on ids: no ``WeylElement`` is made, and
    the table's ``elements`` and ``index`` stay unbuilt."""
    from oracle_helpers import run_capped
    run_capped(_b6_stabilizer_on_ids, seconds=30, mib=104)


# 15 GL_12 blocks with Levi GL_1: rank 180 and |W_ext| = (12!)^15
GL15 = {"group": {"family": "GL", "n": 180},
        "blocks": [{"side": "GL", "dim": 1, "e": 12, "levi": 1}] * 15}


def _gl15_count_refused_in_the_cli():
    code, out, err = _cli(GL15, "count", "--order", "1")
    assert (code, out) == (2, "")
    assert err.startswith("input error: |W_ext| = ") and \
        err.endswith(" exceeds the enumeration cap 2000000\n")


def test_gl15_count_refused_within_four_seconds():
    """``count`` refuses 15 GL_12 blocks, rank 180, on the |W_ext| cap in
    a child capped at 4 s of wall clock and 256 MiB of address space:
    assembling the datum applies no dense rank x rank matrix per root."""
    from oracle_helpers import run_capped
    run_capped(_gl15_count_refused_in_the_cli, seconds=4, mib=256)


@pytest.mark.parametrize("name", ["B2", "A1xA1-twisted"])
def test_no_matrix_products_after_table_build(name, monkeypatch):
    """Once the table is built, stabilizers, coset representatives, root
    orbits, braid orders and products run on ids: no ``mat_mul`` call."""
    desc = standard_descriptors()[name]
    group = desc.wext
    group.table
    calls = _recorded_mat_mul_calls(monkeypatch)
    x = tuple(int(i == 0) for i in range(desc.rd.rank))
    stab = stabilizer_of_point(group, x, 2)
    assert len(stab.reflection_part) > 1
    assert min_coset_reps(group, stab.reflection_part)
    assert spread_invariant(desc.rd, group, desc.lam) == desc.lam
    assert check_braid(desc)
    assert multiply(desc, desc.n_simple(0), desc.n_simple(1))
    assert calls == []
