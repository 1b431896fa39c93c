import pytest

from heckealg.checks import standard_descriptors
from heckealg.coeffs import _signed_permutation
from heckealg.root_data import (RootDatumError, build_classical, empty_datum,
                                pairing, product, reflect, vscale,
                                weyl_order_classical)
from heckealg.weyl import WeylGroup, mat_apply

from oracle_helpers import (reflection_matrix, root_lattice_a2,
                            simple_reflections)


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


def test_reflect_agrees_with_the_dense_oracle():
    """``reflect`` is the reflection matrix of the oracle applied to every
    root, on every root pair of the standard descriptors and of A2 on its
    root lattice, whose reflections are not signed permutations; a root
    pairing to 0 with the coroot comes back as itself.  The matrices that
    ``WeylGroup.simple_elements`` derives from the orbit permutations are
    the oracle's."""
    data = {name: d.rd for name, d in standard_descriptors().items()}
    data["A2-root-lattice"] = root_lattice_a2()
    assert not any(map(_signed_permutation,
                       simple_reflections(data["A2-root-lattice"])))
    for name, rd in data.items():
        for a in rd.roots:
            matrix = reflection_matrix(a.vector, a.coroot)
            for b in rd.roots:
                image = reflect(b.vector, a.vector, a.coroot)
                assert image == mat_apply(matrix, b.vector), (name, a, b)
                if not pairing(b.vector, a.coroot):
                    assert image is b.vector
        assert [w.matrix for w in WeylGroup(rd).simple_elements] == \
            list(simple_reflections(rd)), name


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

    # n-ary: the sum of three is the sum of the first two with the third,
    # and its simple roots are the summands' in summand order
    three = product(bc2, empty_datum(1), b3)
    nested = product(product(bc2, empty_datum(1)), b3)
    assert three.rank == 6 and three.num_z_vars == 3
    assert [(r.vector, r.coroot, r.component_index) for r in three.roots] \
        == [(r.vector, r.coroot, r.component_index) for r in nested.roots]
    assert [s.vector for s in three.simple_roots] == \
        [s.vector[:2] + (0,) * 4 for s in bc2.simple_roots] + \
        [(0,) * 3 + s.vector for s in b3.simple_roots]
    assert [s.component_index for s in three.simple_roots] == [1, 1, 3, 3, 3]


def test_doubled_and_halvable():
    bc2 = build_classical("BC", 2)
    assert bc2.has_root(vscale(bc2.root((1, 0)).vector, 2))
    assert not bc2.has_root(vscale(bc2.root((1, 1)).vector, 2))
    b2 = build_classical("B", 2)
    assert b2.root((1, 0)).halvable                  # coroot 2 e_1
    assert not b2.has_root(vscale(b2.root((1, 0)).vector, 2))
    a2 = build_classical("A", 2)
    for r in a2.roots:
        assert not a2.has_root(vscale(r.vector, 2))
        assert not r.halvable


def test_foreign_root_rejected():
    b2 = build_classical("B", 2)
    a2 = build_classical("A", 2)
    with pytest.raises(RootDatumError):
        b2.root((3, 3))
    with pytest.raises(RootDatumError):
        b2.root(a2.roots[0].vector)


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
    # a line through a root holds 2 or 4 roots ({+-a} or {+-a, +-2a}); the
    # check at a, whose negative is present, sees a, -a and 2a
    with pytest.raises(RootDatumError, match=r"line through \(1,\) has 3 "):
        RootDatum(1, [Root((1,), (2,), 1), Root((-1,), (-2,), 1),
                      Root((2,), (1,), 1)], 1)
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
