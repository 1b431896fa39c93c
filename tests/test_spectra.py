import random
from fractions import Fraction

import pytest

from heckealg.root_data import build_classical, empty_datum
from heckealg.spectra import (FiniteGroup, FiniteTorusPoint, SpectraError,
                              central_character, classify,
                              count_twisted_irreps, extended_quotient_count,
                              is_distinguished, twisted_algebra_center_dim)
from heckealg.weyl import (Cocycle, ExtendedGroup, GroupTable, RGroup,
                           identity_matrix)
from oracle_helpers import (all_subgroups, bilinear_cocycles,
                            count_twisted_irreps_by_member,
                            distinguished_bruteforce, weyl_finite_group,
                            _partitions, _valid_partition)


# ---------------------------------------------------------------------------
# groups and cocycles for the oracle suite
# ---------------------------------------------------------------------------

def test_count_examples():
    a1 = build_classical("A", 1)
    g = ExtendedGroup(a1)
    fg = FiniteGroup.from_extended(g, cocycle=Cocycle.trivial(("e",)))
    assert count_twisted_irreps(fg) == 2

    # trivial group
    fg0 = FiniteGroup.from_extended(ExtendedGroup(empty_datum(0)))
    assert count_twisted_irreps(fg0) == 1

    # (Z/2)^2 with the alternating cocycle: a single projective irrep
    rd0 = empty_datum(1)
    lbls = ("e", "a", "b", "ab")
    sets = {"e": frozenset(), "a": frozenset("a"), "b": frozenset("b"),
            "ab": frozenset("ab")}
    rev = {v: k for k, v in sets.items()}
    table = {(x, y): rev[sets[x] ^ sets[y]] for x in lbls for y in lbls}
    rg = RGroup(lbls, {l: identity_matrix(1) for l in lbls}, table)
    gg = ExtendedGroup(rd0, rg)
    coc = Cocycle(lbls, {(x, y): (-1) ** ((1 if "b" in x else 0) *
                                          (1 if "a" in y else 0))
                         for x in lbls for y in lbls})
    coc.check(table, "e")
    fg2 = FiniteGroup.from_extended(gg, cocycle=coc)
    assert count_twisted_irreps(fg2) == 1
    assert twisted_algebra_center_dim(fg2) == 1


def _table_group(family, rank):
    """W(family rank) on its table ids, with a mult that counts its calls."""
    table = ExtendedGroup(build_classical(family, rank)).table
    calls = [0]

    def mult(a, b):
        calls[0] += 1
        return table.mult(a, b)
    ids = list(range(len(table.elements)))
    return FiniteGroup(ids, mult, table.inv, table.identity), calls


@pytest.mark.parametrize("family, rank", [("B", 2), ("A", 3)])
def test_conjugacy_class_records(family, rank):
    fg, _ = _table_group(family, rank)
    n, mult, inv = len(fg.elements), fg.mult, fg.inv
    classes = fg.conjugacy_classes()
    assert sorted(x for c in classes for x in c.members) == fg.elements
    for members, centralizer in classes:
        g = members[0]
        assert members == sorted(
            {mult(mult(h, g), inv(h)) for h in fg.elements})
        assert len(members) * len(centralizer) == n
        assert all(mult(c, g) == mult(g, c) for c in centralizer)


@pytest.mark.parametrize("family, rank, expected",
                         [("B", 2, 80), ("A", 3, 240)])
def test_count_twisted_irreps_one_pass_per_class(family, rank, expected):
    """2|G| products per class for its one pass, and none beyond it:
    regularity is tested at the class's first member only."""
    fg, calls = _table_group(family, rank)
    count_twisted_irreps(fg)
    assert calls[0] == expected
    assert expected == 2 * len(fg.elements) * len(fg.conjugacy_classes())


def test_extended_quotient_one_pass_per_orbit(monkeypatch):
    """A starting point that is not its orbit's least point costs one
    pass over W(B2) too."""
    g = ExtendedGroup(build_classical("B", 2))
    g.table   # built before counting starts
    calls = [0]
    act_point = GroupTable.act_point

    def counting(self, *args):
        calls[0] += 1
        return act_point(self, *args)
    monkeypatch.setattr(GroupTable, "act_point", counting)
    total, orbits = extended_quotient_count(
        g, Cocycle.trivial(("e",)), [FiniteTorusPoint(2, (1, 0))])
    assert calls[0] == 8
    assert [(o.representative.exponents, o.orbit_size, o.stabilizer_order)
            for o in orbits] == [((0, 1), 2, 4)]
    assert total == orbits[0].count


def test_counting_oracle_all_subgroups():
    """count_twisted_irreps == centre dimension of the explicit twisted
    algebra, over every subgroup of W(B2) and W(A2) x Z/2 and every
    cocycle in the bilinear test set."""
    cases = []
    gb2 = weyl_finite_group(build_classical("B", 2))
    cases.append(FiniteGroup.from_extended(gb2))
    ga2c = weyl_finite_group(build_classical("A", 2), extra_z2=True)
    cases.append(FiniteGroup.from_extended(ga2c))
    for big in cases:
        for sub_els in all_subgroups(big):
            for fn in bilinear_cocycles(big, sub_els):
                fg = FiniteGroup(sub_els, big.mult, big.inv, big.identity, fn)
                assert count_twisted_irreps(fg) == \
                    twisted_algebra_center_dim(fg)


def test_count_by_representative_matches_every_member():
    """Regularity tested at one member per class counts as testing it at
    every member, over every subgroup of W(B2) and every cocycle in the
    bilinear test set."""
    big = FiniteGroup.from_extended(weyl_finite_group(build_classical("B", 2)))
    for sub_els in all_subgroups(big):
        for fn in bilinear_cocycles(big, sub_els):
            fg = FiniteGroup(sub_els, big.mult, big.inv, big.identity, fn)
            assert count_twisted_irreps(fg) == \
                count_twisted_irreps_by_member(fg)


def test_sum_of_squares_regular_trace():
    """Numerical cross-check: eigenvalue multiplicities of a random
    central element acting on the regular module are the squares d_i^2,
    summing to |H|, with as many clusters as the centre dimension."""
    numpy = pytest.importorskip("numpy")
    rd0 = empty_datum(1)
    lbls = ("e", "a", "b", "ab")
    sets = {"e": frozenset(), "a": frozenset("a"), "b": frozenset("b"),
            "ab": frozenset("ab")}
    rev = {v: k for k, v in sets.items()}
    table = {(x, y): rev[sets[x] ^ sets[y]] for x in lbls for y in lbls}
    rg = RGroup(lbls, {l: identity_matrix(1) for l in lbls}, table)
    gg = ExtendedGroup(rd0, rg)

    for coc_fn, expected_k in (
            ((lambda a, b: 1), 4),
            ((lambda a, b: (-1) ** ((1 if "b" in a.diagram else 0) *
                                    (1 if "a" in b.diagram else 0))), 1)):
        fg = FiniteGroup.from_extended(gg)
        fg.cocycle_fn = coc_fn
        els = fg.elements
        n = len(els)
        idx = {g: i for i, g in enumerate(els)}
        # regular representation matrices
        def reg(g):
            m = numpy.zeros((n, n))
            for h in els:
                m[idx[fg.mult(g, h)], idx[h]] = fg.cocycle_fn(g, h)
            return m
        k = twisted_algebra_center_dim(fg)
        assert k == expected_k
        rng = numpy.random.default_rng(0)
        # a random element of the exact centre acts as a scalar on each
        # isotypic block (of size d_i^2) of the regular module
        from oracle_helpers import twisted_algebra_center_basis
        basis = twisted_algebra_center_basis(fg)
        assert len(basis) == k
        z = numpy.zeros((n, n))
        for vec in basis:
            w = rng.normal()
            for g, c in zip(els, vec):
                if c:
                    z += w * float(c) * reg(g)
        eig = numpy.linalg.eigvals(z)
        assert numpy.abs(eig.imag).max() < 1e-9
        eig = numpy.sort(eig.real)
        clusters = []
        for v in eig:
            if clusters and abs(v - clusters[-1][0]) < 1e-6:
                clusters[-1][1] += 1
            else:
                clusters.append([v, 1])
        sizes = sorted(c[1] for c in clusters)
        assert sum(sizes) == n
        assert len(sizes) == k
        import math
        assert all(math.isqrt(s) ** 2 == s for s in sizes)


def test_counting_against_central_extension():
    """Third oracle: the number of projective irreps equals
    #classes(H+) - #classes(H) for the {+-1}-central extension H+ built
    from the cocycle."""
    def classes_of(elements, mult, inv):
        seen, k = set(), 0
        for g in elements:
            if g in seen:
                continue
            cl = {mult(mult(h, g), inv(h)) for h in elements}
            seen |= cl
            k += 1
        return k

    big = FiniteGroup.from_extended(
        weyl_finite_group(build_classical("B", 2)))
    for sub in all_subgroups(big):
        for fn in bilinear_cocycles(big, sub):
            fg = FiniteGroup(sub, big.mult, big.inv, big.identity, fn)
            els = [(g, e) for g in sub for e in (1, -1)]

            def mult(a, b):
                return (big.mult(a[0], b[0]),
                        a[1] * b[1] * fn(a[0], b[0]))

            def inv(a):
                gi = big.inv(a[0])
                return (gi, a[1] * fn(a[0], gi))

            expected = classes_of(els, mult, inv) - \
                classes_of(sub, big.mult, big.inv)
            assert count_twisted_irreps(fg) == expected


def test_extended_quotient_examples():
    b1 = build_classical("B", 1)
    g = ExtendedGroup(b1)
    pts = [FiniteTorusPoint(2, (0,)), FiniteTorusPoint(2, (1,))]
    total, orbits = extended_quotient_count(g, Cocycle.trivial(("e",)), pts)
    assert total == 4 and len(orbits) == 2

    # free orbit contributes exactly 1
    total, orbits = extended_quotient_count(
        g, Cocycle.trivial(("e",)), [FiniteTorusPoint(5, (1,))])
    assert any(o.orbit_size == 2 and o.count == 1 for o in orbits)

    assert extended_quotient_count(g, Cocycle.trivial(("e",)), [])[0] == 0


def test_extended_quotient_bruteforce_orders():
    """Totals agree with point-by-point summation over the whole torus
    at orders N in {1, 2, 3, 4, 6}."""
    b2 = build_classical("B", 2)
    g = ExtendedGroup(b2)
    coc = Cocycle.trivial(("e",))
    for n in (1, 2, 3, 4, 6):
        pts = [FiniteTorusPoint(n, (i, j)) for i in range(n)
               for j in range(n)]
        total, orbits = extended_quotient_count(g, coc, pts)
        # brute force: per point, count(stabilizer) / |orbit|
        acc = Fraction(0)
        for p in pts:
            stab = [w for w in g.elements()
                    if g.act_point(w, p.exponents, n) == p.exponents]
            orbit = {g.act_point(w, p.exponents, n) for w in g.elements()}
            fg = FiniteGroup.from_extended(g, stab, coc)
            acc += Fraction(count_twisted_irreps(fg), len(orbit))
        assert acc == total


def test_extended_quotient_translate_invariance():
    b2 = build_classical("B", 2)
    g = ExtendedGroup(b2)
    coc = Cocycle.trivial(("e",))
    pts = [FiniteTorusPoint(4, (1, 2))]
    t1, _ = extended_quotient_count(g, coc, pts)
    # W-translates of the input point set give the same closure
    moved = [FiniteTorusPoint(4, g.act_point(w, (1, 2), 4))
             for w in g.elements()]
    t2, _ = extended_quotient_count(g, coc, moved)
    assert t1 == t2


def test_central_character_examples():
    cc = central_character(FiniteTorusPoint(2, (0, 0)), [[2]])
    assert cc.z_exponents == (Fraction(1), Fraction(-1))
    cc = central_character(FiniteTorusPoint(2, (0, 0, 0)), [[3]])
    assert cc.z_exponents == (Fraction(2), Fraction(0), Fraction(-2))
    cc = central_character(FiniteTorusPoint(2, (0, 0)), [[1, 1]])
    assert cc.z_exponents == (Fraction(0), Fraction(0))
    with pytest.raises(SpectraError):
        central_character(FiniteTorusPoint(2, (0, 0)), [[3]])


def test_central_character_canonicalized():
    a1 = build_classical("A", 1)
    g = ExtendedGroup(a1)
    cc1 = central_character(FiniteTorusPoint(3, (1, 2)), [[1], [1]], g)
    cc2 = central_character(FiniteTorusPoint(3, (2, 1)), [[1], [1]], g)
    assert cc1 == cc2


def test_classify_examples():
    b2 = build_classical("B", 2)
    res = classify([[Fraction(0), Fraction(0)]], b2)
    assert res.tempered and not res.discrete_series

    neg = [Fraction(-sum(s.coroot[i] for s in b2.simple_roots))
           for i in range(2)]
    res = classify([neg], b2)
    assert res.tempered and res.discrete_series and res.essentially_discrete

    pos = [Fraction(1), Fraction(0)]
    res = classify([pos], b2)
    assert not res.tempered and not res.discrete_series

    # z = 1 crossed-product point modules with unitary finite parts have
    # zero real-split weight exponents: everything is tempered
    res = classify([[Fraction(0), Fraction(0)]] * 5, b2)
    assert res.tempered


def test_distinguished_examples():
    assert is_distinguished("GL", (4,))
    assert not is_distinguished("GL", (2, 1))
    assert is_distinguished("Sp", (2, 4))
    assert not is_distinguished("Sp", (2, 2))
    assert is_distinguished("SO", (1, 3, 5))
    assert not is_distinguished("SO", (3, 3))


def test_distinguished_bruteforce_crosscheck():
    for total in range(1, 11):
        for parts in _partitions(total):
            if total % 2 == 0 and _valid_partition("Sp", parts):
                assert is_distinguished("Sp", parts) == \
                    distinguished_bruteforce("Sp", parts), parts
            if _valid_partition("SO", parts):
                assert is_distinguished("SO", parts) == \
                    distinguished_bruteforce("SO", parts), parts
            assert is_distinguished("GL", parts) == \
                distinguished_bruteforce("GL", parts), parts
