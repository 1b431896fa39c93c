"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  All comparisons are exact (integer / rational
arithmetic); the only tolerances are the stated wall-clock budgets.
"""

import random
import time
from fractions import Fraction

from heckealg.checks import (check_associativity, check_bernstein,
                             check_braid, check_center, check_coset_cones,
                             check_degeneration, check_im, check_quadratic,
                             coset_cone_cases, graded_test_descriptors,
                             standard_descriptors)
from heckealg.hecke import affine_to_graded, spread_invariant, AffineDescriptor
from heckealg.params import lambda_from_jordan
from heckealg.pipeline import (BUILTIN_EXAMPLES, assemble, datum_from_json,
                               root_component)
from heckealg.root_data import build_classical, weyl_order_classical
from heckealg.spectra import (FiniteGroup, count_twisted_irreps,
                              extended_quotient_count,
                              twisted_algebra_center_dim)
from heckealg.weyl import Cocycle, ExtendedGroup, WeylGroup

from oracle_helpers import (all_subgroups, bilinear_cocycles,
                            c_lambda_roundtrip, lambda_c_roundtrip,
                            weyl_finite_group)


def _report(num, title, elapsed=None, budget=None):
    stamp = ""
    if elapsed is not None:
        stamp = "  (%.2fs" % elapsed
        stamp += " < %ds)" % budget if budget else ")"
    print("ACCEPTANCE %2d PASS  %s%s" % (num, title, stamp))


def test_criterion_1_sp58_example():
    t0 = time.monotonic()
    rep = assemble(datum_from_json(BUILTIN_EXAMPLES["sp58"]))

    assert rep.block_systems == [("BC", 2), ("B", 3)]
    assert rep.block_reduced == [("B", 2), ("B", 3)]
    assert rep.group_order == 8 * 48 == 384
    assert rep.descriptor.wext.rgroup.order() == 1
    assert rep.rgroup_structure == "trivial"

    values = {(s.name, s.lam, s.lam_star) for s in rep.simple_roots}
    assert values == {("alpha1", 1, None), ("alpha2", 3, 2),
                      ("beta1", 1, None), ("beta2", 1, None),
                      ("beta3", 5, 1)}

    rels = [r["relation"] for r in rep.specializations()]
    assert rels == [
        "(T[alpha1] - q^{t(tau)})*(T[alpha1] + 1) = 0",
        "(T[alpha2] - q^{3t(tau)})*(T[alpha2] + 1) = 0",
        "(T[beta1] - q)*(T[beta1] + 1) = 0",
        "(T[beta2] - q)*(T[beta2] + 1) = 0",
        "(T[beta3] - q^5)*(T[beta3] + 1) = 0",
    ]
    exps = {r["exponent"] for r in rep.specializations()}
    assert exps == {"t(tau)", 1, "3t(tau)", 5}

    doc = rep.to_json()
    assert doc["weyl_order"] == 384
    assert doc["root_systems"] == ["BC2", "B3"]
    assert doc["reduced_root_systems"] == ["B2", "B3"]

    # the same through the actual `describe` command
    import contextlib
    import io
    import json as jsonlib
    from heckealg.cli import main as cli_main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["describe", "--example", "sp58", "--format", "json"])
    assert code == 0
    cli_doc = jsonlib.loads(buf.getvalue())
    assert cli_doc["weyl_order"] == 384
    assert cli_doc["rgroup"] == {"order": 1, "structure": "trivial"}
    assert [r["relation"] for r in cli_doc["specializations"]] == rels

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, "Sp58 worked example reproduced exactly (API + CLI)",
            elapsed, 1)


def test_criterion_2_gl_pipeline():
    t0 = time.monotonic()
    configs = [
        # (blocks, expected systems, expected exponent multiset)
        ([(2, 3, 1, 1)], [("A", 2)], {2}),
        ([(1, 2, 1, 2)], [("A", 1)], {2}),
        ([(4, 2, 1, 1)], [("A", 1)], {4}),
        ([(2, 3, 2, 2), (1, 2, 1, 1)], [("A", 1), ("A", 2)], {1, 4}),
        ([(3, 2, 1, 2), (1, 1, 3, 1)], [None, ("A", 1)], {6}),
        ([(2, 1, 1, 1), (1, 1, 2, 5)], [None, None], set()),   # cuspidal
    ]
    for blocks, systems, exponents in configs:
        n = sum(e * m for (_, e, m, _) in blocks)
        doc = {"group": {"family": "GL", "n": n, "division_degree": 12},
               "blocks": [{"side": "GL", "dim": d, "e": e, "levi": m,
                           "torsion": t} for (d, e, m, t) in blocks]}
        rep = assemble(datum_from_json(doc))
        assert sorted(rep.block_systems, key=str) == sorted(systems, key=str)
        for s in rep.simple_roots:
            block = rep.datum.blocks[s.block]
            assert s.lam == block.dim
            assert s.exponent() == block.dim * block.torsion
        assert {r["exponent"] for r in rep.specializations()} == exponents
        assert rep.torus_dim == sum(e for (_, e, _, _) in blocks)
        # one z-variable per block; cuspidal case is the torus algebra
        assert rep.descriptor.d == len(blocks)
        if all(e <= 1 for (_, e, _, _) in blocks):
            assert len(rep.descriptor.rd.roots) == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(2, "GL pipeline on %d block configurations" % len(configs),
            elapsed, 1)


def test_criterion_3_table_rows():
    rows = [
        ("S", 0, 5, None),
        ("S", 3, 0, ("C", 3)),
        ("S", 2, 6, ("BC", 2)),
        ("O", 0, 4, None),
        ("O", 4, 0, ("D", 4)),
        ("O", 3, 9, ("B", 3)),
        ("GL", 1, 0, None),
        ("GL", 4, 0, ("A", 3)),
    ]
    for side, e, ell, expect in rows:
        assert root_component(side, e, ell) == expect, (side, e, ell)
    import math
    for e in range(1, 6):
        assert weyl_order_classical("C", e) == 2 ** e * math.factorial(e)
        assert weyl_order_classical("BC", e) == 2 ** e * math.factorial(e)
        assert weyl_order_classical("B", e) == 2 ** e * math.factorial(e)
        assert weyl_order_classical("D", e) == \
            (1 if e == 1 else 2 ** (e - 1) * math.factorial(e))
        if e >= 2:
            assert weyl_order_classical("A", e - 1) == math.factorial(e)
        # cross-check by enumeration at small rank
        if e <= 4:
            for fam in ("B", "C", "D"):
                if fam == "D" and e < 2:
                    continue
                rd = build_classical(fam, e)
                assert len(WeylGroup(rd).enumerate()) == \
                    weyl_order_classical(fam, e)
    # the D-row carries the extra flip: the full symmetry group of the
    # block has order 2^e e! even though the Weyl group has 2^{e-1} e!
    import math
    for e in (2, 3):
        doc = {"group": {"family": "SOodd", "n": e + 1},
               "blocks": [
                   {"side": "O", "dim": 1, "e": e, "ell": 0, "torsion": 1},
                   {"side": "S", "dim": 1, "e": 0, "ell": 2, "torsion": 1},
               ]}
        rep = assemble(datum_from_json(doc))
        assert rep.group_order == 2 ** (e - 1) * math.factorial(e)
        assert rep.group_order * rep.descriptor.wext.rgroup.order() == \
            2 ** e * math.factorial(e)
    _report(3, "inertial-block table: all 8 rows and W-orders for e <= 5")


def test_criterion_4_relation_suite():
    t0 = time.monotonic()
    descs = standard_descriptors()
    required = {"A1", "BC1", "A2", "B2", "BC2",
                "A1xA1-trivial", "A1xA1-twisted"}
    assert required <= set(descs)
    for name, desc in descs.items():
        rng = random.Random(0)
        assert check_quadratic(desc), name
        assert check_bernstein(desc, rng, samples=50), name
        assert check_braid(desc), name
        assert check_associativity(desc, rng, 200), name
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(4, "quadratic/Bernstein/braid + 200-triple associativity on "
            "7 descriptors", elapsed, 60)


def test_criterion_5_center():
    t0 = time.monotonic()
    descs = standard_descriptors()
    tested = 0
    for name, desc in descs.items():
        if desc.rd.rank <= 3:
            assert check_center(desc), name
            tested += 1
    assert tested >= 5
    elapsed = time.monotonic() - t0
    _report(5, "symmetrized orbit sums (x) z-monomials central on %d "
            "rank <= 3 descriptors" % tested, elapsed)


def test_criterion_6_z1_degeneration():
    t0 = time.monotonic()
    for name, desc in standard_descriptors().items():
        assert check_degeneration(desc), name
    elapsed = time.monotonic() - t0
    _report(6, "z = 1 multiplication equals the crossed product "
            "O(T) x| ZZ[W, cocycle]", elapsed)


def test_criterion_7_im_involution():
    t0 = time.monotonic()
    descs = standard_descriptors()
    for name, gd in graded_test_descriptors(descs).items():
        assert check_im(gd, random.Random(0), 100), name
    elapsed = time.monotonic() - t0
    _report(7, "IM is an algebra involution on 100 random pairs per "
            "graded descriptor", elapsed)


def test_criterion_8_coset_cones():
    t0 = time.monotonic()
    cases = coset_cone_cases()
    names = {n.split("@")[0] for n, _, _ in cases}
    assert names == {"B2", "B3", "A3"}
    for name, rd, pt in cases:
        results = check_coset_cones(name, rd, pt, random.Random(0),
                                    samples=1000)
        for rname, ok, detail in results:
            assert ok, rname
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(8, "minimal coset reps unique; cone identities on 1000 "
            "vectors x %d cases" % len(cases), elapsed, 30)


def test_criterion_9_counting_oracle():
    t0 = time.monotonic()
    # count_twisted_irreps == centre dimension for every subgroup of
    # W(B2) and W(A2) x Z/2 and every cocycle in the bilinear test set
    checked = 0
    for big in (FiniteGroup.from_extended(
                    weyl_finite_group(build_classical("B", 2))),
                FiniteGroup.from_extended(
                    weyl_finite_group(build_classical("A", 2),
                                      extra_z2=True))):
        for sub_els in all_subgroups(big):
            for fn in bilinear_cocycles(big, sub_els):
                fg = FiniteGroup(sub_els, big.mult, big.inv, big.identity, fn)
                assert count_twisted_irreps(fg) == \
                    twisted_algebra_center_dim(fg)
                checked += 1
    # extended-quotient totals against brute-force point sums
    b2 = build_classical("B", 2)
    g = ExtendedGroup(b2)
    coc = Cocycle.trivial(("e",))
    for n in (1, 2, 3, 4, 6):
        pts = [(i, j) for i in range(n) for j in range(n)]
        total, _orbits = extended_quotient_count(g, coc, n, pts)
        acc = Fraction(0)
        for p in pts:
            stab = [w for w in g.elements() if g.act_point(w, p, n) == p]
            orbit = {g.act_point(w, p, n) for w in g.elements()}
            acc += Fraction(count_twisted_irreps(
                FiniteGroup.from_extended(g, stab, coc)), len(orbit))
        assert acc == total
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(9, "counting oracle on %d (subgroup, cocycle) pairs + "
            "brute-force totals at N in {1,2,3,4,6}" % checked, elapsed, 60)


def test_criterion_10_parameter_calculus():
    t0 = time.monotonic()
    # reference values of the worked classical example
    assert (lambda_from_jordan(5, 3).lam,
            lambda_from_jordan(5, 3).lam_star) == (5, 1)
    assert (lambda_from_jordan(4, 0).lam,
            lambda_from_jordan(4, 0).lam_star) == (3, 2)
    # c <-> lambda roundtrips on all admissible inputs with a, a' <= 41
    svals = [a for a in range(0, 42, 2)]
    ovals = [a for a in range(-1, 42, 2)]
    for vals in (svals, ovals):
        for a in vals:
            for ap in vals:
                pair = lambda_from_jordan(a, ap)
                c, cs = lambda_c_roundtrip(pair.lam, pair.lam_star, True)
                assert c_lambda_roundtrip(c, cs, True) == \
                    (pair.lam, pair.lam_star)
                if a >= ap:
                    assert (c, cs) == (a + 1, ap + 1)
    for lam in range(0, 42):
        c, cs = lambda_c_roundtrip(lam, None, False)
        assert c_lambda_roundtrip(c, cs, False) == (lam, None)
    # affine_to_graded: k = a + 1 at alpha(t) = 1 and k = a' + 1 at -1
    b1 = build_classical("B", 1)
    w = ExtendedGroup(b1)
    for a, ap in ((5, 3), (7, 1), (3, 3), (41, 39)):
        pair = lambda_from_jordan(a, ap)
        desc = AffineDescriptor(
            b1, w, spread_invariant(b1, w, {(1,): pair.lam}),
            spread_invariant(b1, w, {(1,): pair.lam_star}),
            Cocycle.trivial(("e",)))
        assert affine_to_graded(desc, (0,), 1).k[(1,)] == a + 1
        assert affine_to_graded(desc, (1,), 2).k[(1,)] == ap + 1
    elapsed = time.monotonic() - t0
    _report(10, "parameter calculus: reference values, roundtrips to 41, "
            "graded k = a+1 / a'+1", elapsed)
