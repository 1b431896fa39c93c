import json
import random

import pytest

from heckealg import root_data
from heckealg.checks import (check_associativity, check_bernstein,
                             check_center, check_quadratic)
from heckealg.hecke import multiply
from heckealg.pipeline import (BUILTIN_EXAMPLES, BlockDatum, InertialDatum,
                               ValidationError, assemble, build_rgroup,
                               datum_from_json, root_component,
                               specialize_report, validate)
from heckealg.root_data import weyl_order_classical
from heckealg.weyl import WeylGroup
from fractions import Fraction


def sp58():
    return datum_from_json(BUILTIN_EXAMPLES["sp58"])


@pytest.mark.parametrize("example, validated",
                         [("sp58", [2, 3]), ("gl-a2", [3])])
def test_assemble_validates_each_block_datum_once(example, validated,
                                                  monkeypatch):
    """Each block's root datum is validated when it is built, and their
    sum is not validated again (one block: the sum is the block)."""
    ranks, real = [], root_data.RootDatum._validate

    def counting(self):
        ranks.append(self.rank)
        return real(self)
    monkeypatch.setattr(root_data.RootDatum, "_validate", counting)
    report = assemble(datum_from_json(BUILTIN_EXAMPLES[example]))
    assert ranks == validated
    assert report.descriptor.rd.rank == sum(validated)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_sp58_valid():
    d = validate(sp58())
    assert d.family == "Sp" and len(d.blocks) == 2


def test_bad_ell():
    doc = {"group": {"family": "Sp", "n": 3},
           "blocks": [{"side": "S", "dim": 1, "e": 1, "ell": 5,
                       "torsion": 1}]}
    with pytest.raises(ValidationError) as exc:
        validate(datum_from_json(doc))
    assert "d(d+1)" in str(exc.value)


def test_rank_mismatch_classical():
    doc = {"group": {"family": "Sp", "n": 3},
           "blocks": [{"side": "S", "dim": 1, "e": 1, "ell": 2,
                       "torsion": 1}]}
    with pytest.raises(ValidationError) as exc:
        validate(datum_from_json(doc))
    assert "accounting" in str(exc.value)


def test_rank_mismatch_gl():
    doc = {"group": {"family": "GL", "n": 5},
           "blocks": [{"side": "GL", "dim": 1, "e": 2, "levi": 2,
                       "torsion": 1}]}
    with pytest.raises(ValidationError) as exc:
        validate(datum_from_json(doc))
    assert "e_i m_i" in str(exc.value)


def test_nonpositive_block_dim_rejected():
    # the JSON schema already demands dim >= 1; data built in Python meet
    # the same rule in validate
    datum = InertialDatum("GL", 2, (BlockDatum("GL", 0, 2, levi=1),))
    with pytest.raises(ValidationError) as exc:
        validate(datum)
    assert "dim must be >= 1" in str(exc.value)


def test_sl_rgroup_rejected_outside_sl():
    doc = dict(BUILTIN_EXAMPLES["sp58"])
    doc = json.loads(json.dumps(doc))
    doc["sl_rgroup"] = {"labels": ["e"], "matrices": {"e": [[1]]},
                        "table": {"e,e": "e"}, "cocycle": {"e,e": 1}}
    with pytest.raises(ValidationError) as exc:
        validate(datum_from_json(doc))
    assert "SL" in str(exc.value)


def test_classical_side_in_gl_datum():
    doc = {"group": {"family": "GL", "n": 3},
           "blocks": [{"side": "O", "dim": 1, "e": 1, "ell": 1,
                       "torsion": 1}]}
    with pytest.raises(ValidationError) as exc:
        validate(datum_from_json(doc))
    assert "GL" in str(exc.value)


def test_gl_division_degree_divisibility():
    doc = {"group": {"family": "GL", "n": 6, "division_degree": 2},
           "blocks": [{"side": "GL", "dim": 4, "e": 3, "levi": 2,
                       "torsion": 1}]}
    with pytest.raises(ValidationError) as exc:
        validate(datum_from_json(doc))
    assert "divide" in str(exc.value)


def test_empty_block_rejected():
    doc = {"group": {"family": "Sp", "n": 0},
           "blocks": [{"side": "S", "dim": 1, "e": 0, "ell": 0,
                       "torsion": 1}]}
    with pytest.raises(ValidationError) as exc:
        validate(datum_from_json(doc))
    assert "empty block" in str(exc.value)


def test_unknown_fields_rejected():
    doc = {"group": {"family": "Sp", "n": 3}, "blocks": [], "bogus": 1}
    with pytest.raises(ValidationError):
        datum_from_json(doc)
    doc2 = {"group": {"family": "Sp", "n": 3},
            "blocks": [{"side": "S", "dim": 1, "e": 1, "frobnitz": 2}]}
    with pytest.raises(ValidationError):
        datum_from_json(doc2)


# ---------------------------------------------------------------------------
# root_component: all eight table rows
# ---------------------------------------------------------------------------

def test_root_component_table():
    assert root_component("S", 0, 7) is None
    assert root_component("S", 3, 0) == ("C", 3)
    assert root_component("S", 2, 6) == ("BC", 2)
    assert root_component("O", 0, 3) is None
    assert root_component("O", 3, 0) == ("D", 3)
    assert root_component("O", 3, 9) == ("B", 3)
    assert root_component("GL", 1, 0) is None
    assert root_component("GL", 4, 0) == ("A", 3)


def test_table_weyl_orders():
    # W-orders of the table rows for e <= 5, against enumeration
    import math
    from heckealg.pipeline import _block_datum
    for e in range(1, 6):
        for side, ell, expect in (
                ("S", 0, 2 ** e * math.factorial(e)),
                ("S", 2, 2 ** e * math.factorial(e)),
                ("O", 0, 2 ** (e - 1) * math.factorial(e) if e > 1 else 1),
                ("O", 1, 2 ** e * math.factorial(e)),
                ("GL", 0, math.factorial(e))):
            fr = root_component(side, e, ell)
            if fr is None:
                assert e <= 1 and side == "GL"
                continue
            assert weyl_order_classical(*fr) == expect
            if e <= 4:
                rd = _block_datum(fr, e)
                assert len(WeylGroup(rd).enumerate()) == expect


# ---------------------------------------------------------------------------
# R-groups
# ---------------------------------------------------------------------------

def _rgroup_of(family, blocks, n):
    datum = validate(InertialDatum(family, n, tuple(blocks)))
    from heckealg.pipeline import _block_datum
    offsets = [0]
    for b in datum.blocks:
        fr = root_component(b.side, b.e, b.ell_total())
        offsets.append(offsets[-1] + _block_datum(fr, b.e).rank)
    return build_rgroup(datum, offsets)


def test_rgroup_sp_two_generators():
    blocks = [BlockDatum("O", 1, 2, 0, None, 1),
              BlockDatum("O", 3, 1, 0, None, 1),
              BlockDatum("S", 1, 1, 2, None, 1),
              BlockDatum("O", 1, 0, 1, None, 1)]
    # standard representation dimension 4 + 6 + 4 + 1 = 15 = 2*7 + 1
    rg, coc, structure = _rgroup_of("Sp", blocks, 7)
    assert rg.order() == 4
    assert "(Z/2)^2" in structure


def test_rgroup_soeven_pure_gl():
    # pure-GL Levi, two odd-dimensional D-blocks: only the product flip
    blocks = [BlockDatum("O", 1, 2, 0, None, 1),
              BlockDatum("O", 3, 1, 0, None, 1)]
    n = (1 * 4 + 3 * 2) // 2
    rg, coc, structure = _rgroup_of("SOeven", blocks, n)
    assert rg.order() == 2
    lbl = [l for l in rg.labels if l != "e"][0]
    assert "*" in lbl  # a product r_i * r_j


def test_rgroup_trivial():
    rep = assemble(sp58())
    assert rep.descriptor.wext.rgroup.order() == 1
    assert rep.rgroup_structure == "trivial"


# ---------------------------------------------------------------------------
# assemble
# ---------------------------------------------------------------------------

def test_assemble_gl_a2():
    rep = assemble(datum_from_json(BUILTIN_EXAMPLES["gl-a2"]))
    assert rep.block_systems == [("A", 2)]
    assert rep.group_order == 6
    assert all(s.lam == 2 for s in rep.simple_roots)
    assert all(r["exponent"] == 2 for r in rep.specializations())
    assert rep.torus_dim == 3


def test_assemble_cuspidal():
    rep = assemble(datum_from_json(BUILTIN_EXAMPLES["gl-cuspidal"]))
    assert rep.block_systems == [None]
    assert rep.torus_dim == 1
    assert rep.group_order == 1
    assert len(rep.descriptor.rd.roots) == 0
    assert rep.simple_roots == []


def test_assemble_gl_multiblock():
    doc = {"group": {"family": "GL", "n": 10, "division_degree": 2},
           "blocks": [
               {"side": "GL", "dim": 2, "e": 3, "levi": 2, "torsion": 2},
               {"side": "GL", "dim": 1, "e": 2, "levi": 1, "torsion": 1},
               {"side": "GL", "dim": 1, "e": 1, "levi": 2, "torsion": 3},
           ]}
    rep = assemble(datum_from_json(doc))
    assert sorted(filter(None, (None if fr is None else fr for fr in
                                rep.block_systems)),
                  key=str) == [("A", 1), ("A", 2)]
    assert rep.torus_dim == 6
    assert rep.descriptor.d == 3
    exps = sorted(r["exponent"] for r in rep.specializations())
    # f = d*t per block: A2-block d=2 t=2 -> 4, A1-block d=1 t=1 -> 1
    assert exps == [1, 4, 4]


def test_classical_with_gl_side_block():
    # non-self-dual pairs inside a symplectic datum contribute a type-A
    # component with lambda = 1
    doc = {"group": {"family": "Sp", "n": 6},
           "blocks": [
               {"side": "GL", "dim": 2, "e": 2, "torsion": 3},
               {"side": "O", "dim": 1, "e": 1, "ell": 1, "partner_ell": 0,
                "torsion": 1},
           ]}
    # accounting: 2*2*2 + 1*(2 + 1) = 11... adjust to 2n+1 = 13 via e=1
    doc["blocks"][1]["ell"] = 0
    doc["blocks"][1]["partner_ell"] = 1
    doc["group"]["n"] = (2 * 2 * 2 + 1 * (2 + 1) - 1) // 2
    rep = assemble(datum_from_json(doc))
    systems = {None if fr is None else fr for fr in rep.block_systems}
    assert ("A", 1) in systems and ("B", 1) in systems
    a_roots = [s for s in rep.simple_roots
               if rep.datum.blocks[s.block].side == "GL"]
    assert all(s.lam == 1 and s.lam_star is None for s in a_roots)
    assert all(s.exponent() == 3 for s in a_roots)


def test_sp58_weyl_order_by_enumeration():
    rep = assemble(sp58())
    assert rep.group_order == 384
    assert len(WeylGroup(rep.descriptor.rd).enumerate()) == 384


def test_assemble_deterministic_under_reordering():
    d1 = sp58()
    d2 = InertialDatum(d1.family, d1.n, tuple(reversed(d1.blocks)),
                       d1.division_degree, d1.sl_rgroup)
    r1 = assemble(d1)
    r2 = assemble(d2)
    assert r1.to_json() == r2.to_json()
    assert r1.to_text() == r2.to_text()


def test_assembled_descriptor_passes_invariants():
    rep = assemble(sp58())
    desc = rep.descriptor
    assert check_quadratic(desc)
    assert check_bernstein(desc, random.Random(0), samples=3)
    assert check_associativity(desc, random.Random(0), 4, max_length=2)

    rep2 = assemble(datum_from_json(BUILTIN_EXAMPLES["gl-a2"]))
    assert check_quadratic(rep2.descriptor)
    assert check_center(rep2.descriptor)


def test_specialize_report_values():
    rep = assemble(datum_from_json(BUILTIN_EXAMPLES["gl-a2"]))
    rels = specialize_report(rep, Fraction(3))
    assert all(r["q_power_value"] == "9" for r in rels)

    rep = assemble(sp58())
    rels = specialize_report(rep, Fraction(2))
    by_name = {r["root"]: r for r in rels}
    assert by_name["beta3"]["q_power_value"] == "32"       # q^5
    assert "q_power_value" not in by_name["alpha1"]        # symbolic torsion


# ---------------------------------------------------------------------------
# SL case
# ---------------------------------------------------------------------------

def sl_datum():
    return {
        "group": {"family": "SL", "n": 4, "division_degree": 1},
        "blocks": [
            {"side": "GL", "dim": 1, "e": 2, "levi": 2, "torsion": 2},
        ],
        "sl_rgroup": {
            "labels": ["e", "g"],
            "matrices": {"e": [[1, 0], [0, 1]], "g": [[1, 0], [0, 1]]},
            "table": {"e,e": "e", "e,g": "g", "g,e": "g", "g,g": "e"},
            "cocycle": {"e,e": 1, "e,g": 1, "g,e": 1, "g,g": -1},
            "translations": {"g": ["1/2", "1/2"]},
        },
    }


def test_sl_assemble():
    rep = assemble(datum_from_json(sl_datum()))
    assert rep.descriptor.wext.rgroup.order() == 2
    assert rep.character_lattice is not None
    assert rep.character_lattice["constraint"] == [2, 2]
    # roots satisfy the constraint
    from oracle_helpers import is_in_character_lattice
    for r in rep.descriptor.rd.roots:
        assert is_in_character_lattice(rep, r.vector)
    # twisted cocycle reaches the algebra: N_g^2 = -1
    desc = rep.descriptor
    ng = desc.n_gamma("g")
    assert multiply(desc, ng, ng) == desc.unit().scale(-1)


def test_quadratic_relations_hold_in_specialized_algebra():
    # instantiate the worked example with a concrete torsion and verify
    # (T_s - q^{lambda*t})(T_s + 1) = 0 inside the algebra at z = q^{t/2}
    doc = json.loads(json.dumps(BUILTIN_EXAMPLES["sp58"]))
    doc["blocks"][0]["torsion"] = 2          # symbolic t(tau) -> 2
    rep = assemble(datum_from_json(doc))
    q = Fraction(4)                          # q^{1/2} = 2 stays rational
    zvals = []
    for b in rep.datum.blocks:
        t = b.torsion
        half = Fraction(t, 2)
        z = q ** half.numerator if half.denominator == 1 else \
            Fraction(2) ** t                 # q^{t/2} with q = 4
        zvals.append(Fraction(z))
    spec = rep.descriptor.specialized(tuple(zvals))
    simples = {tuple(s.vector): s for s in rep.simple_roots}
    for i, info in enumerate(spec.simple_info):
        srep = simples[info.root.vector]
        t = rep.datum.blocks[srep.block].torsion
        ns = spec.n_simple(i)
        T = ns.scale(zvals[info.zvar - 1] ** info.lam)
        qpow = q ** (info.lam * t)
        lhs = multiply(spec, T - spec.unit().scale(qpow),
                       T + spec.unit())
        assert not lhs, srep.name


def test_graded_parameters_of_sp58():
    # graded reduction of the assembled algebra: at the identity point
    # the short-root parameters become a + 1, at the sign-flip point
    # a' + 1 (with a, a' the largest cuspidal parts 4, 0 and 5, 3)
    from heckealg.hecke import affine_to_graded
    rep = assemble(sp58())
    desc = rep.descriptor
    rank = desc.rd.rank

    gd = affine_to_graded(desc, (0,) * rank, 1)
    short_bc2 = (0, 1, 0, 0, 0)      # e_2 of the BC2 block
    short_b3 = (0, 0, 0, 0, 1)       # e_5 of the B3 block
    long_bc2 = (1, -1, 0, 0, 0)
    assert gd.k[short_bc2] == 5      # a + 1 with a = 4
    assert gd.k[short_b3] == 6       # a + 1 with a = 5
    assert gd.k[long_bc2] == 2

    gd = affine_to_graded(desc, (1,) * rank, 2)
    assert gd.k[short_bc2] == 1      # a' + 1 with a' = 0
    assert gd.k[short_b3] == 4       # a' + 1 with a' = 3
    assert gd.k[long_bc2] == 2


def test_json_roundtrip_and_text():
    rep = assemble(sp58())
    doc = rep.to_json()
    json.dumps(doc)             # serializable
    text = rep.to_text()
    assert "BC2 x B3" in text
    assert "(T[alpha2] - q^{3t(tau)})*(T[alpha2] + 1) = 0" in text
