import pytest

from heckealg.root_data import (RootDatumError, build_classical,
                                coroot_halvable, empty_datum, is_doubled,
                                pairing, product, reflect,
                                weyl_order_classical)


def test_a1_roots():
    rd = build_classical("A", 1)
    assert rd.rank == 2
    assert sorted(r.vector for r in rd.roots) == [(-1, 1), (1, -1)]


def test_bc2_enumeration():
    rd = build_classical("BC", 2)
    vecs = {r.vector for r in rd.roots}
    expect = set()
    for i in range(2):
        for s in (1, -1):
            e = [0, 0]
            e[i] = s
            expect.add(tuple(e))
            expect.add(tuple(2 * x for x in e))
    for si in (1, -1):
        for sj in (1, -1):
            expect.add((si, sj))
    assert vecs == expect
    assert len(rd.roots) == 12
    # reduced part is B2 under the shared convention
    b2 = {r.vector for r in build_classical("B", 2).roots}
    reduced = {r.vector for r in rd.nondivisible_roots}
    assert reduced == b2
    assert len(b2) == 8


def test_d3_enumeration():
    rd = build_classical("D", 3)
    assert len(rd.roots) == 12
    assert all(sum(abs(c) for c in r.vector) == 2 for r in rd.roots)


def test_positive_half():
    for fam, n in (("A", 2), ("B", 3), ("C", 2), ("D", 3), ("BC", 2)):
        rd = build_classical(fam, n)
        assert 2 * len(rd.positive_roots) == len(rd.roots)


def test_root_axioms():
    for fam, n in (("A", 2), ("B", 2), ("C", 3), ("D", 3), ("BC", 2)):
        rd = build_classical(fam, n)
        for a in rd.roots:
            for b in rd.roots:
                assert rd.has_root(reflect(b.vector, a.vector, a.coroot))
                assert isinstance(pairing(b.vector, a.coroot), int)


def test_product():
    bc2 = build_classical("BC", 2)
    b3 = build_classical("B", 3)
    prod = product(bc2, b3)
    assert prod.rank == 5
    assert len(prod.roots) == len(bc2.roots) + len(b3.roots)
    assert prod.num_z_vars == 2
    assert {r.component_index for r in prod.roots} == {1, 2}

    empty = empty_datum(0, 1)
    same = product(empty, b3)
    assert same.rank == 3 and len(same.roots) == 18

    a1a1 = product(build_classical("A", 1), build_classical("A", 1))
    assert len(a1a1.roots) == 4 and a1a1.num_z_vars == 2


def test_doubled_and_halvable():
    bc2 = build_classical("BC", 2)
    assert is_doubled(bc2, bc2.root((1, 0)))
    assert not is_doubled(bc2, bc2.root((1, 1)))
    b2 = build_classical("B", 2)
    assert coroot_halvable(b2, b2.root((1, 0)))      # coroot 2 e_1
    assert not is_doubled(b2, b2.root((1, 0)))
    a2 = build_classical("A", 2)
    for r in a2.roots:
        assert not is_doubled(a2, r)
        assert not coroot_halvable(a2, r)


def test_foreign_root_rejected():
    b2 = build_classical("B", 2)
    a2 = build_classical("A", 2)
    with pytest.raises(RootDatumError):
        b2.root((3, 3))
    with pytest.raises(RootDatumError):
        is_doubled(b2, a2.roots[0])


def test_guards():
    with pytest.raises(RootDatumError):
        build_classical("E", 8)
    with pytest.raises(RootDatumError):
        build_classical("B", 13)
    with pytest.raises(RootDatumError):
        build_classical("D", 1)
    with pytest.raises(RootDatumError):
        build_classical("A", 0)


def test_invalid_construction_rejected():
    from heckealg.root_data import Root, RootDatum, subdatum
    # pairing <alpha, alpha^vee> != 2
    with pytest.raises(RootDatumError):
        Root((1, 0), (1, 0), 1)
    # not closed under negation
    with pytest.raises(RootDatumError):
        RootDatum(2, [Root((1, -1), (1, -1), 1)], 1)
    # component index out of range
    with pytest.raises(RootDatumError):
        RootDatum(2, [Root((1, -1), (1, -1), 2),
                      Root((-1, 1), (-1, 1), 2)], 1)
    # subdatum over non-roots
    b2 = build_classical("B", 2)
    with pytest.raises(RootDatumError):
        subdatum(b2, [(3, 0)])
    # reassigning z-variables across a diagram orbit must stay constant
    # on irreducible components
    a2 = build_classical("A", 2)
    from heckealg.root_data import Root as R
    mixed = [R(r.vector, r.coroot, 1 if r.vector[0] == 1 else 2)
             for r in a2.roots]
    with pytest.raises(RootDatumError):
        RootDatum(3, mixed, 2)


def test_weyl_order_formulas():
    assert weyl_order_classical("A", 2) == 6
    assert weyl_order_classical("B", 3) == 48
    assert weyl_order_classical("BC", 2) == 8
    assert weyl_order_classical("D", 4) == 192
    assert weyl_order_classical("D", 1) == 1
