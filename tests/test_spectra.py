import itertools
import json
import pathlib
from fractions import Fraction

import pytest

from heckealg import cli, spectra
from heckealg.pipeline import BUILTIN_EXAMPLES, assemble, datum_from_json
from heckealg.root_data import build_classical, empty_datum
from heckealg.spectra import (FiniteGroup, SpectraError, classify,
                              common_order, count_twisted_irreps,
                              extended_quotient_count, is_distinguished,
                              twisted_algebra_center_dim)
from heckealg.weyl import (Cocycle, ExtendedGroup, GroupTable, RGroup,
                           WeylElement, WeylError, identity_matrix)
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
    coc.check(rg)
    fg2 = FiniteGroup.from_extended(gg, cocycle=coc)
    assert count_twisted_irreps(fg2) == 1
    assert twisted_algebra_center_dim(fg2) == 1
    # the same count where the point's stabilizer is the whole group
    total, _ = extended_quotient_count(gg, coc, 1, [(0,)])
    assert total == 1


def test_extended_quotient_count_checks_the_cocycle():
    """The count refuses a sign table that fails the cocycle identity and
    one on other labels than the R-group's, before it counts."""
    lbls = ("e", "a", "b", "ab")
    bits = {"e": 0, "a": 1, "b": 2, "ab": 3}
    table = {(x, y): lbls[bits[x] ^ bits[y]] for x in lbls for y in lbls}
    group = ExtendedGroup(empty_datum(1), RGroup(
        lbls, {l: identity_matrix(1) for l in lbls}, table))
    broken = Cocycle(lbls, {**Cocycle.trivial(lbls).table, ("a", "b"): -1})
    with pytest.raises(WeylError, match=r"fails at \('a', 'a', 'b'\)"):
        extended_quotient_count(group, broken, 1, [(0,)])
    with pytest.raises(WeylError, match="cocycle labels"):
        extended_quotient_count(group, Cocycle.trivial(("e", "x")), 1,
                                [(0,)])


def _table_group(family, rank, table_gens=False):
    """W(family rank) on its table ids, with a mult that counts its calls;
    generated by the table's generators or by those the group picks."""
    table = ExtendedGroup(build_classical(family, rank)).table
    calls = [0]

    def mult(a, b):
        calls[0] += 1
        return table.mult(a, b)
    ids = list(range(len(table.elements)))
    gens = [perm[table.identity] for perm in table.perms] if table_gens \
        else None
    return FiniteGroup(ids, mult, table.inverse.__getitem__, table.identity,
                       generators=gens), calls, table


CLASS_GROUPS = pytest.mark.parametrize(
    "family, rank, table_gens",
    [("B", 2, False), ("B", 2, True), ("A", 3, False), ("A", 3, True),
     ("B", 3, False)],
    ids=["B2-picked", "B2-table", "A3-picked", "A3-table", "B3-picked"])


@CLASS_GROUPS
def test_conjugacy_classes_and_centralizer_generators(family, rank,
                                                      table_gens):
    """The classes partition the group, each is the set of conjugates of
    its first member, and the centralizer generators of that member
    commute with it and generate all of its centralizer."""
    fg, _, table = _table_group(family, rank, table_gens)
    mult, inv = fg.mult, fg.inv
    classes = fg.conjugacy_classes()
    assert sorted(x for c in classes for x in c.members) == fg.elements
    for members, centralizer in classes:
        g = members[0]
        assert members == sorted(
            {mult(mult(h, g), inv(h)) for h in fg.elements})
        assert all(mult(c, g) == mult(g, c) for c in centralizer)
        generated = table.subgroup(centralizer)
        assert generated == [h for h in fg.elements
                             if mult(h, g) == mult(g, h)]
        assert len(generated) * len(members) == len(fg.elements)


@CLASS_GROUPS
def test_classes_cost_a_few_products_per_element_and_generator(
        family, rank, table_gens):
    """Under the trivial cocycle the count is the number of classes, for
    at most 4 |G| #gens products after the generators are known; picking
    the generators takes at most |G| (#gens + 1) more."""
    fg, calls, _ = _table_group(family, rank, table_gens)
    n, gens = len(fg.elements), fg.generators
    assert calls[0] <= (0 if table_gens else n * (len(gens) + 1))
    calls[0] = 0
    count = count_twisted_irreps(fg)
    assert calls[0] <= 4 * n * len(gens)
    assert count == len(fg.conjugacy_classes()) == \
        count_twisted_irreps_by_member(fg)


def test_extended_quotient_one_pass_per_orbit(monkeypatch):
    """A starting point that is not its orbit's least point costs one
    pass over W(B2) too."""
    g = ExtendedGroup(build_classical("B", 2))
    g.table   # built before counting starts
    passes = []
    images = GroupTable.images

    def counting(self, *args):
        out = images(self, *args)
        passes.append(len(out))
        return out
    monkeypatch.setattr(GroupTable, "images", counting)
    total, orbits = extended_quotient_count(
        g, Cocycle.trivial(("e",)), 2, [(1, 0)])
    assert passes == [8]
    assert [(o.representative, o.orbit_size, o.stabilizer_order)
            for o in orbits] == [((0, 1), 2, 4)]
    assert total == orbits[0].count


def test_count_builds_no_element_objects_or_matrices(monkeypatch):
    """Counting sp58 at order 2 on ``count``'s points reads ids only: the
    table builds no element objects or index, no action matrix, and no
    ``WeylElement`` is made."""
    desc = assemble(datum_from_json(BUILTIN_EXAMPLES["sp58"])).descriptor
    made = []
    post_init = WeylElement.__post_init__

    def counting(self):
        made.append(self)
        post_init(self)
    monkeypatch.setattr(WeylElement, "__post_init__", counting)
    monkeypatch.setattr(GroupTable, "action", lambda *args: made.append(args))
    common = common_order(desc.wext, [2])
    points = itertools.product(range(0, common, common // 2),
                               repeat=desc.rd.rank)
    total, orbits = extended_quotient_count(desc.wext, desc.cocycle, common,
                                            points)
    assert (total, len(orbits)) == (560, 12)
    assert not {"elements", "index"} & set(vars(desc.wext.table))
    assert made == []


B3_DATUM = {"group": {"family": "Sp", "n": 3},
            "blocks": [{"side": "O", "dim": 1, "e": 3, "ell": 1,
                        "torsion": 1}]}


@pytest.mark.parametrize("args, most, total", [
    (["--example", "sp2-iwahori"], 2, 5),
    # stabilizers W(B2) x W(B1) and W(B2): in id order 4 and 3 generators
    (["--input", "b3.json"], 3, 65)])
def test_stabilizer_generators_shortest_first(args, most, total, tmp_path,
                                              monkeypatch, capsys):
    """Every stabilizer at order 4 gets at most ``most`` generators, picked
    in order of length, and the total stays the same."""
    (tmp_path / "b3.json").write_text(json.dumps(B3_DATUM))
    monkeypatch.chdir(tmp_path)
    gens = []
    count = spectra.count_twisted_irreps

    def recording(group):
        gens.append(len(group.generators))
        return count(group)
    monkeypatch.setattr(spectra, "count_twisted_irreps", recording)
    assert cli.main(["count", "--order", "4", "--format", "json"] + args) == 0
    assert json.loads(capsys.readouterr().out)["total"] == total
    assert gens and max(gens) <= most


def test_extended_quotient_order_covers_translations():
    """The SL datum translates by (1/2, 1/2): order 3 cannot carry it."""
    sl = pathlib.Path(__file__).resolve().parents[1] / "bench" / "data" / \
        "sl.json"
    desc = assemble(datum_from_json(sl.read_text())).descriptor
    with pytest.raises(SpectraError):
        extended_quotient_count(desc.wext, desc.cocycle, 3, [(0, 0)])
    assert extended_quotient_count(desc.wext, desc.cocycle, 2, [(0, 0)])[0] > 0


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
    total, orbits = extended_quotient_count(g, Cocycle.trivial(("e",)), 2,
                                            [(0,), (1,)])
    assert total == 4 and len(orbits) == 2

    # free orbit contributes exactly 1
    total, orbits = extended_quotient_count(
        g, Cocycle.trivial(("e",)), 5, [(1,)])
    assert any(o.orbit_size == 2 and o.count == 1 for o in orbits)

    assert extended_quotient_count(g, Cocycle.trivial(("e",)), 1, [])[0] == 0


def test_extended_quotient_bruteforce_orders():
    """Totals agree with point-by-point summation over the whole torus
    at orders N in {1, 2, 3, 4, 6}."""
    b2 = build_classical("B", 2)
    g = ExtendedGroup(b2)
    coc = Cocycle.trivial(("e",))
    for n in (1, 2, 3, 4, 6):
        pts = [(i, j) for i in range(n) for j in range(n)]
        total, orbits = extended_quotient_count(g, coc, n, pts)
        # brute force: per point, count(stabilizer) / |orbit|
        acc = Fraction(0)
        for p in pts:
            stab = [w for w in g.elements() if g.act_point(w, p, n) == p]
            orbit = {g.act_point(w, p, n) for w in g.elements()}
            fg = FiniteGroup.from_extended(g, stab, coc)
            acc += Fraction(count_twisted_irreps(fg), len(orbit))
        assert acc == total


def test_extended_quotient_translate_invariance():
    b2 = build_classical("B", 2)
    g = ExtendedGroup(b2)
    coc = Cocycle.trivial(("e",))
    t1, _ = extended_quotient_count(g, coc, 4, [(1, 2)])
    # W-translates of the input point set give the same closure
    moved = [g.act_point(w, (1, 2), 4) for w in g.elements()]
    t2, _ = extended_quotient_count(g, coc, 4, moved)
    assert t1 == t2


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
