import hashlib
import json
import pathlib
import random
from fractions import Fraction
from math import gcd

import pytest

from heckealg.checks import (check_associativity, check_bernstein, check_braid,
                             check_center, check_degeneration, check_im,
                             check_quadratic, graded_test_descriptors,
                             random_element, standard_descriptors)
from heckealg import hecke
from heckealg.checks import random_graded
from heckealg.coeffs import (MAX_EXP, LaurentZ, PackedRangeError,
                             TorusAlgebraElement, _signed_permutation,
                             block, settle)
from heckealg.hecke import (AffineDescriptor, GradedDescriptor, HeckeElement,
                            HeckeError, affine_to_graded, bernstein_divide,
                            graded_multiply, im_involution, is_central,
                            multiply, multiply_crossed, quotient_z1,
                            serialize_element, spread_invariant, symmetrize)
from heckealg.root_data import build_classical, product
from heckealg.weyl import (Cocycle, ExtendedGroup, ExtendedWeylElement,
                           WeylError, identity_matrix)

from oracle_helpers import (load_bench_module, monomials, reflection_matrix,
                            root_lattice_a2, specialize_element)

DESCS = standard_descriptors()


def one(desc):
    return desc.scalar_one()


# ---------------------------------------------------------------------------
# bernstein_divide
# ---------------------------------------------------------------------------

def test_divide_zero_pairing():
    a1 = build_classical("A", 1)
    alpha = a1.root((1, -1))
    d = bernstein_divide((1, 1), alpha, False, LaurentZ.one(1))
    assert not d


def test_divide_gl2_examples():
    a1 = build_classical("A", 1)
    alpha = a1.root((1, -1))
    lone = LaurentZ.one(1)
    d = bernstein_divide((1, 0), alpha, False, lone)
    assert d == TorusAlgebraElement.theta((1, 0), lone)
    d2 = bernstein_divide((2, 0), alpha, False, lone)
    assert d2 == TorusAlgebraElement(2, {(2, 0): lone, (1, 1): lone})


def test_divide_multiplies_back():
    rng = random.Random(9)
    for name in ("A2", "B2", "BC2"):
        desc = DESCS[name]
        rd = desc.rd
        lone = desc.scalar_one()
        for info in desc.simple_info:
            for _ in range(25):
                x = tuple(rng.randint(-3, 3) for _ in range(rd.rank))
                pairing = sum(a * b for a, b in zip(x, info.root.coroot))
                if info.halvable and pairing % 2:
                    continue
                d = bernstein_divide(x, info.root, info.halvable, lone)
                mult = 2 if info.halvable else 1
                denom = TorusAlgebraElement.theta((0,) * rd.rank, lone) - \
                    TorusAlgebraElement.theta(
                        tuple(-mult * c for c in info.root.vector), lone)
                sx = tuple(x[i] - pairing * info.root.vector[i]
                           for i in range(rd.rank))
                expect = TorusAlgebraElement.theta(x, lone) - \
                    TorusAlgebraElement.theta(sx, lone)
                assert d * denom == expect


def test_divide_parity_violation():
    bc1 = DESCS["BC1"]
    info = bc1.simple_info[0]
    with pytest.raises(HeckeError):
        # odd pairing: <e1, 2 e1> = 2 is even, so force oddness by using
        # the doubled divide against a vector with odd pairing
        bernstein_divide((1,), build_classical("C", 1).root((2,)), True,
                         bc1.scalar_one())


# ---------------------------------------------------------------------------
# multiply: the three defining relations and worked examples
# ---------------------------------------------------------------------------

def test_quadratic_relation_shape():
    desc = DESCS["A1"]
    ns = desc.n_simple(0)
    sq = multiply(desc, ns, ns)
    expect = desc.unit() + ns.scale(desc.zbracket(1, 2))
    assert sq == expect


def test_theta_times_theta():
    desc = DESCS["B2"]
    assert multiply(desc, desc.theta_elem((1, 0)), desc.theta_elem((-1, 2))) \
        == desc.theta_elem((0, 2))


def test_unit_is_identity():
    rng = random.Random(21)
    for name, desc in DESCS.items():
        for _ in range(5):
            a = random_element(desc, rng)
            assert multiply(desc, desc.unit(), a) == a, name
            assert multiply(desc, a, desc.unit()) == a, name


def test_ns_theta_example():
    # GL2: N_s theta_{e1} = theta_{e2} N_s + (z^l - z^-l) theta_{e1}
    a1 = build_classical("A", 1)
    w = ExtendedGroup(a1)
    desc = AffineDescriptor(a1, w, spread_invariant(a1, w, {(1, -1): 1}), {},
                            Cocycle.trivial(("e",)))
    lhs = multiply(desc, desc.n_simple(0), desc.theta_elem((1, 0)))
    bracket = desc.zbracket(1, 1)
    rhs = multiply(desc, desc.theta_elem((0, 1)), desc.n_simple(0)) + \
        desc.theta_elem((1, 0)).scale(bracket)
    assert lhs == rhs


def test_relation_suites_small():
    rng = random.Random(0)
    for name, desc in DESCS.items():
        assert check_quadratic(desc), name
        assert check_braid(desc), name
        assert check_bernstein(desc, random.Random(1), samples=8), name
        assert check_associativity(desc, rng, 12), name


def test_descriptor_parameter_validation():
    b2 = build_classical("B", 2)
    w = ExtendedGroup(b2)
    lam = spread_invariant(b2, w, {(1, -1): 1, (0, 1): 2})
    lam_star = spread_invariant(b2, w, {(0, 1): 1})
    # missing lambda on an orbit
    with pytest.raises(HeckeError):
        AffineDescriptor(b2, w, spread_invariant(b2, w, {(1, -1): 1}),
                         lam_star, Cocycle.trivial(("e",)))
    # lambda* on a non-halvable root
    with pytest.raises(HeckeError):
        AffineDescriptor(b2, w, lam,
                         spread_invariant(b2, w, {(0, 1): 1, (1, -1): 1}),
                         Cocycle.trivial(("e",)))
    # non-invariant lambda (distinct values inside one orbit)
    bad = dict(lam)
    bad[(0, 1)] = 7
    with pytest.raises(HeckeError):
        AffineDescriptor(b2, w, bad, lam_star, Cocycle.trivial(("e",)))
    # negative parameter
    with pytest.raises(HeckeError):
        AffineDescriptor(b2, w, spread_invariant(
            b2, w, {(1, -1): -1, (0, 1): 2}), lam_star,
            Cocycle.trivial(("e",)))
    # specialization needs positive rationals
    good = AffineDescriptor(b2, w, lam, lam_star, Cocycle.trivial(("e",)))
    with pytest.raises(HeckeError):
        good.specialized((Fraction(-2),))


def test_descriptor_refuses_a_cocycle_on_other_labels():
    """A cocycle on other labels than the R-group's is refused when the
    descriptor is built, not by a KeyError in the first N_gamma product."""
    desc = DESCS["A1xA1-twisted"]
    with pytest.raises(WeylError, match="cocycle labels"):
        AffineDescriptor(desc.rd, desc.wext, desc.lam, desc.lam_star,
                         Cocycle.trivial(("e",)))


def test_invariance_checks_read_the_kept_root_images(monkeypatch):
    """W_ext-invariance of lambda, lambda* and the z-variables is checked
    on the simple reflections' and the extended group's root images, with
    no matrix applied: the swap label of A1 x A1 refuses lambda 1 and 2 on
    its two factors, and two z-variables; the reflection s_{e1-e2} of B2
    refuses lambda* 2 on +-e1 and 1 on +-e2."""
    def no_matrix(*args):
        raise AssertionError("mat_apply called")
    good = DESCS["A1xA1-twisted"]
    rd, w, cocycle = good.rd, good.wext, good.cocycle
    monkeypatch.setattr(hecke, "mat_apply", no_matrix)
    AffineDescriptor(rd, w, good.lam, {}, cocycle)
    lam = {v: 1 + any(v[2:]) for v in good.lam}
    with pytest.raises(HeckeError, match="lambda is not W-invariant"):
        AffineDescriptor(rd, w, lam, {}, cocycle)
    two = product(build_classical("A", 1), build_classical("A", 1))
    with pytest.raises(HeckeError, match="z-variable"):
        AffineDescriptor(two, ExtendedGroup(two, w.rgroup), good.lam, {},
                         cocycle)
    b2 = DESCS["B2"]
    lam_star = {v: 1 + (v[0] != 0) for v in b2.lam_star}
    with pytest.raises(HeckeError, match=r"lambda\* is not W-invariant"):
        AffineDescriptor(b2.rd, b2.wext, b2.lam, lam_star, b2.cocycle)


def test_descriptor_mismatch_rejected():
    from heckealg.weyl import WeylElement
    desc = DESCS["B2"]
    # a lattice automorphism that does not permute the B2 roots
    shear = WeylElement(((1, 1), (0, 1)))
    bogus = desc.element({ExtendedWeylElement(shear, "e"):
                          TorusAlgebraElement.theta((0, 0), one(desc))})
    with pytest.raises(HeckeError):
        multiply(desc, bogus, desc.unit())
    # keys that permute the roots but lie outside W_ext: -I in A2, and the
    # block swap of A1 x A1 paired with the identity label (the swap is
    # the R-group's, not a Weyl group element)
    a2, a1a1 = DESCS["A2"], DESCS["A1xA1-twisted"]
    for d, m in ((a2, tuple(tuple(-int(i == j) for j in range(3))
                            for i in range(3))),
                 (a1a1, a1a1.wext.rgroup.matrix("g"))):
        bogus = d.element({ExtendedWeylElement(WeylElement(m), "e"):
                           TorusAlgebraElement.theta((0,) * d.rd.rank,
                                                     one(d))})
        with pytest.raises(HeckeError):
            multiply(d, bogus, d.unit())
        with pytest.raises(HeckeError):
            multiply(d, d.n_simple(0), bogus)
        for label in d.wext.rgroup.labels:
            with pytest.raises(HeckeError):
                multiply(d, d.n_gamma(label), bogus)
    # symbolic element fed to a specialized descriptor, although the
    # symbolic scalar 1 equals Fraction(1), and the other way round
    spec = DESCS["A1"].specialized((Fraction(2),))
    with pytest.raises(HeckeError):
        multiply(spec, DESCS["A1"].unit(), DESCS["A1"].unit())
    with pytest.raises(HeckeError):
        multiply(spec, spec.unit(), DESCS["A1"].unit())
    with pytest.raises(HeckeError):
        multiply(DESCS["A1"], spec.unit(), spec.unit())
    # the IM involution, the text form and the crossed product check their
    # inputs as multiply does: a rank-3 coefficient or an unknown label in
    # B2, and a symbolic coefficient at z = 1
    gd = graded_test_descriptors(DESCS)["B2@1"]
    for key, c in ((gd.wext.identity, TorusAlgebraElement(
            3, {(1, 1, 1): LaurentZ.one(1)})),
                   (ExtendedWeylElement(gd.weyl.identity, "nolabel"),
                    TorusAlgebraElement.theta((1, 0), LaurentZ.one(1)))):
        with pytest.raises(HeckeError):
            im_involution(gd, gd.element({key: c}))
    q1 = quotient_z1(desc)
    with pytest.raises(HeckeError):
        serialize_element(q1, q1.element({q1.wext.identity: TorusAlgebraElement(
            3, {(1, 1, 1): Fraction(1)})}))
    with pytest.raises(HeckeError):
        multiply_crossed(q1, q1.element({q1.wext.identity:
                                         TorusAlgebraElement.theta((0, 0), 1)}),
                         q1.unit())


def test_mixed_scalar_modes_rejected_in_any_order():
    # one Fraction among int scalars, or one int among Fractions, is
    # refused wherever it sits in the coefficient's dict
    b2 = DESCS["B2"]
    spec = b2.specialized((Fraction(3, 2),))
    for desc, terms in ((b2, [((0, 0), LaurentZ.one(1)),
                              ((1, 0), Fraction(1, 2))]),
                        (spec, [((0, 0), Fraction(1)), ((1, 0), 2)])):
        for order in (terms, terms[::-1]):
            mixed = desc.element({desc.wext.identity:
                                  TorusAlgebraElement(2, dict(order))})
            with pytest.raises(HeckeError):
                multiply(desc, desc.n_simple(0), mixed)
            with pytest.raises(HeckeError):
                multiply(desc, mixed, desc.unit())


def _ns_step_oracle(desc, info, c, shorter):
    """s(c) by act_matrix and the correction as a sum of bernstein_divide
    terms, the right-hand side of check_bernstein."""
    rank = desc.rd.rank
    cs = c.act_matrix(reflection_matrix(info.root.vector, info.root.coroot))
    corr = TorusAlgebraElement(rank)
    for x, e, v in monomials(c, desc.d):
        div = bernstein_divide(x, info.root, info.halvable,
                               desc.zmonomial(e) * v)
        corr = corr + div.scale(desc.zbracket(info.zvar, info.lam))
        if info.halvable:
            corr = corr + div.shift(tuple(-a for a in info.root.vector)) \
                .scale(desc.zbracket(info.zvar, info.lam_star))
    if shorter:
        corr = corr + cs.scale(desc.zbracket(info.zvar, info.lam))
    return cs, corr


def _ns_step(desc, info, c, shorter):
    """(s(c), correction): the coefficients of s u and u after ``_ns_mul``
    on c N_u, with u = s when ``shorter`` and u = e otherwise."""
    table, i = desc.wext.table, info.index
    u = table.perms[i][table.identity] if shorter else table.identity
    out = settle(hecke._ns_mul(desc, i, block({u: c})), c)
    return tuple(out.get(v, TorusAlgebraElement.zero(c.rank))
                 for v in (table.perms[i][u], u))


def _largest_exponent(elem, nvars):
    return max((max(map(abs, x + e), default=0)
                for x, e, _ in monomials(elem, nvars)), default=0)


@pytest.mark.parametrize("name", sorted(DESCS))
def test_ns_step_matches_bernstein_oracle(name):
    base = DESCS[name]
    rng = random.Random(1989)
    rank = base.rd.rank
    forms = (base, base.specialized(tuple(Fraction(3 + j, 2)
                                          for j in range(base.d))),
             quotient_z1(base))
    for desc in forms:
        for info in desc.simple_info:
            root = info.root.vector
            _, _, factor, quad = desc._steps[info.index]
            for _ in range(6):
                c = TorusAlgebraElement(rank, {
                    tuple(rng.randint(-4, 4) for _ in range(rank)):
                    desc.zmonomial([rng.randint(-2, 2) for _ in
                                    range(desc.d)]) * rng.choice((-3, 1, 2))
                    for _ in range(rng.randint(1, 5))})
                reach = max(abs(sum(a * b for a, b in zip(x, info.root.coroot)))
                            for x, _, _ in monomials(c, desc.d))
                for shorter in (False, True):
                    cs, corr = _ns_step(desc, info, c, shorter)
                    ocs, ocorr = _ns_step_oracle(desc, info, c, shorter)
                    assert cs == ocs and cs.bound == ocs.bound
                    assert corr == ocorr
                    # no looser than the bounds of a separate telescope and
                    # bracket product
                    bound = c.bound + factor.bound
                    if factor:
                        bound += reach * max(map(abs, root))
                    if shorter:
                        bound = max(bound, cs.bound + quad.bound)
                    assert _largest_exponent(ocorr, desc.d) <= corr.bound \
                        <= bound


def _graded_chain(gd, info, c):
    """s(c) and k r_j (c - s c) / alpha by substitute, subtract,
    divide_linear and the factor, on the whole of c."""
    cs = c.substitute(reflection_matrix(info.root.vector, info.root.coroot))
    diff = c - cs
    if not (diff and info.k):
        return cs, TorusAlgebraElement.zero(c.rank)
    factor = TorusAlgebraElement(c.rank, {(0,) * c.rank: LaurentZ.var_power(
        gd.d, info.root.component_index, 1, info.k)})
    return cs, diff.divide_linear(info.root.vector) * factor


GRADED = dict(graded_test_descriptors(DESCS), **{
    # simple reflections that are not signed permutations, so that
    # substitute expands each monomial as a product of linear forms
    "A2-root-lattice": GradedDescriptor(
        root_lattice_a2(),
        {r.vector: 2 for r in root_lattice_a2().nondivisible_roots},
        {"e": identity_matrix(2)}, {("e", "e"): "e"},
        Cocycle.trivial(("e",)))})


@pytest.mark.parametrize("name", sorted(GRADED))
def test_graded_ns_step_matches_chain(name):
    gd = GRADED[name]
    rng = random.Random(1989)
    rank = gd.rd.rank
    if name == "A2-root-lattice":
        assert not any(_signed_permutation(w.matrix)
                       for w in gd.weyl.simple_elements)
    for info in gd.simple_info:
        for _ in range(8):
            c = TorusAlgebraElement(rank, {
                tuple(rng.randint(0, 4) for _ in range(rank)):
                LaurentZ.monomial(gd.d, [rng.randint(0, 2)
                                         for _ in range(gd.d)],
                                  rng.choice((-3, 1, 2)))
                for _ in range(rng.randint(1, 5))})
            for _ in range(2):   # the table's entries built, then read
                cs, corr = _ns_step(gd, info, c, False)
                ocs, ocorr = _graded_chain(gd, info, c)
                assert cs == ocs and corr == ocorr
                for got, chain in ((cs, ocs), (corr, ocorr)):
                    assert _largest_exponent(got, gd.d) <= got.bound \
                        <= chain.bound
    # an odd power at the edge of the packed range, which s moves: building
    # its entry refuses it
    info = gd.simple_info[0]
    i = next(j for j, a in enumerate(info.root.vector) if a)
    big = TorusAlgebraElement(rank, {tuple(
        MAX_EXP if j == i else 0 for j in range(rank)): gd.scalar_one()})
    with pytest.raises(PackedRangeError):
        _ns_step(gd, info, big, False)


def _action(desc, g):
    """The action matrix of the W_ext element g, read from the table."""
    return desc.wext.table.action(desc.wext.table.index[g])


def test_act_examples():
    desc = DESCS["A1"]
    e = TorusAlgebraElement.theta((1, 0), one(desc))
    g = desc.wext.elements()[1] if desc.wext.elements()[0] == desc.wext.identity \
        else desc.wext.elements()[0]
    # the nontrivial element of W(A1) swaps the coordinates
    nontriv = [w for w in desc.wext.elements() if w != desc.wext.identity][0]
    assert e.act_matrix(_action(desc, nontriv)) == \
        TorusAlgebraElement.theta((0, 1), one(desc))
    assert e.act_matrix(_action(desc, desc.wext.identity)) == e

    b2 = DESCS["B2"]
    wg = b2.wext.weyl
    longest = max(wg.enumerate(), key=wg.length)
    from heckealg.weyl import ExtendedWeylElement
    g = ExtendedWeylElement(longest, "e")
    e = TorusAlgebraElement.theta((1, 2), one(b2))
    assert e.act_matrix(_action(b2, g)) == \
        TorusAlgebraElement.theta((-1, -2), one(b2))


def test_act_composition_automorphism():
    desc = DESCS["B2"]
    rng = random.Random(4)
    els = desc.wext.elements()

    def m(g):
        return _action(desc, g)
    for _ in range(15):
        g, h = rng.choice(els), rng.choice(els)
        e = TorusAlgebraElement(2, {(rng.randint(-2, 2), rng.randint(-2, 2)):
                                    one(desc)})
        f = TorusAlgebraElement(2, {(rng.randint(-2, 2), rng.randint(-2, 2)):
                                    one(desc)})
        gh = desc.wext.mult(g, h)
        assert e.act_matrix(m(gh)) == e.act_matrix(m(h)).act_matrix(m(g))
        assert (e * f).act_matrix(m(g)) == \
            e.act_matrix(m(g)) * f.act_matrix(m(g))


# ---------------------------------------------------------------------------
# specialization and the crossed product
# ---------------------------------------------------------------------------

def test_specialize_examples():
    desc = DESCS["A1"]   # lambda = 2
    spec = desc.specialized((Fraction(2),))
    ns = spec.n_simple(0)
    sq = multiply(spec, ns, ns)
    # z^2 - z^-2 at z=2: 4 - 1/4 = 15/4
    expect = spec.unit() + ns.scale(Fraction(15, 4))
    assert sq == expect

    q1 = quotient_z1(desc)
    ns1 = q1.n_simple(0)
    assert multiply(q1, ns1, ns1) == q1.unit()
    # N_s theta_x = theta_{sx} N_s exactly at z = 1
    lhs = multiply(q1, ns1, q1.theta_elem((1, 0)))
    rhs = multiply(q1, q1.theta_elem((0, 1)), ns1)
    assert lhs == rhs


def test_specialize_lambda1_z2():
    # lambda = 1, z = 2: N_s^2 = (3/2) N_s + N_e
    a1 = build_classical("A", 1)
    w = ExtendedGroup(a1)
    desc = AffineDescriptor(a1, w, spread_invariant(a1, w, {(1, -1): 1}), {},
                            Cocycle.trivial(("e",)))
    spec = desc.specialized((Fraction(2),))
    ns = spec.n_simple(0)
    assert multiply(spec, ns, ns) == spec.unit() + ns.scale(Fraction(3, 2))


def test_degenerate_datum_with_rgroup():
    # empty root set: O(T) (x) ZZ[z^+-] x| ZZ[R, cocycle]
    from heckealg.root_data import empty_datum
    from heckealg.weyl import RGroup, identity_matrix
    rd = empty_datum(1)
    flip = ((-1,),)
    rg = RGroup(("e", "g"), {"e": identity_matrix(1), "g": flip},
                {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g",
                 ("g", "g"): "e"})
    wext = ExtendedGroup(rd, rg)
    coc = Cocycle(("e", "g"), {("e", "e"): 1, ("e", "g"): 1, ("g", "e"): 1,
                               ("g", "g"): -1})
    desc = AffineDescriptor(rd, wext, {}, {}, coc)
    ng = desc.n_gamma("g")
    assert multiply(desc, ng, ng) == desc.unit().scale(-1)
    # N_g theta_x = theta_{-x} N_g
    lhs = multiply(desc, ng, desc.theta_elem((3,)))
    rhs = multiply(desc, desc.theta_elem((-3,)), ng)
    assert lhs == rhs
    assert check_degeneration(desc)


def test_specialize_element_map():
    desc = DESCS["A1"]
    spec = desc.specialized((Fraction(3),))
    e = desc.unit().scale(desc.zbracket(1, 1))
    se = specialize_element(spec, e)
    assert se == spec.unit().scale(Fraction(8, 3))


def test_degeneration_all_zoo():
    for name, desc in DESCS.items():
        assert check_degeneration(desc), name


# ---------------------------------------------------------------------------
# centre
# ---------------------------------------------------------------------------

def test_symmetrize_gl2():
    a1 = build_classical("A", 1)
    w = ExtendedGroup(a1)
    desc = AffineDescriptor(a1, w, spread_invariant(a1, w, {(1, -1): 1}), {},
                            Cocycle.trivial(("e",)))
    s = symmetrize(desc, (1, 0))
    coeff = s.terms[desc.wext.identity]
    assert coeff == TorusAlgebraElement(2, {(1, 0): one(desc),
                                            (0, 1): one(desc)})
    assert is_central(desc, s)
    assert not is_central(desc, desc.theta_elem((1, 0)))
    # scalars z_1 are central
    assert is_central(desc, desc.unit().scale(desc.zmonomial((1,))))


def test_center_rank_le3():
    for name, desc in DESCS.items():
        if desc.rd.rank <= 3:
            assert check_center(desc), name


# ---------------------------------------------------------------------------
# graded algebra
# ---------------------------------------------------------------------------

def test_poly_divide_linear_cases():
    lone = LaurentZ.one(1)
    # (x1 - x2 sym poly) / (x1 - x2)
    p = TorusAlgebraElement(2, {(2, 0): lone, (0, 2): -1 * lone})
    q = p.divide_linear((1, -1))
    assert q == TorusAlgebraElement(2, {(1, 0): lone, (0, 1): lone})
    # division by 2 e_1 with integral quotient
    p2 = TorusAlgebraElement(1, {(3,): LaurentZ.const(1, 4)})
    q2 = p2.divide_linear((2,))
    assert q2 == TorusAlgebraElement(1, {(2,): LaurentZ.const(1, 2)})
    with pytest.raises(ArithmeticError):
        TorusAlgebraElement(2, {(0, 1): lone}).divide_linear((1, 0))


def test_graded_linear_case():
    # (xi - s xi)/alpha = xi(alpha^vee) for linear xi
    b2 = build_classical("B", 2)
    alpha = b2.simple_roots[1]           # short root e2, coroot 2 e2
    s = reflection_matrix(alpha.vector, alpha.coroot)
    xi = TorusAlgebraElement(2, {(1, 0): LaurentZ.one(1)})  # x1
    sxi = xi.substitute(s)
    diff = xi - sxi
    if diff:
        q = diff.divide_linear(alpha.vector)
        const = [c for mono, _, c in monomials(q, 1) if mono == (0, 0)]
        pairing = 0  # <x1, (2 e2)> = 0
        assert not const and pairing == 0
    xi2 = TorusAlgebraElement(2, {(0, 1): LaurentZ.one(1)})  # x2
    sxi2 = xi2.substitute(s)
    q = (xi2 - sxi2).divide_linear(alpha.vector)
    assert q == TorusAlgebraElement(2, {(0, 0): LaurentZ.const(1, 2)})


def test_graded_group_relation():
    for name, gd in graded_test_descriptors(DESCS).items():
        for i in range(len(gd.simple_info)):
            ns = gd.n_simple(i)
            assert graded_multiply(gd, ns, ns) == gd.unit(), name


def test_graded_braid_example():
    # N_s xi = -xi N_s + 2 c(alpha) r_j for xi = alpha
    desc = DESCS["B2"]
    gd = affine_to_graded(desc, (0, 0), 1)
    i = 1
    info = gd.simple_info[i]
    ns = gd.n_simple(i)
    xi = gd.xi(info.root.vector)
    prod = graded_multiply(gd, ns, xi)
    expect = graded_multiply(gd, gd.xi(tuple(-c for c in info.root.vector)), ns)
    rterm = gd.unit()
    rcoeff = LaurentZ.var_power(gd.d, info.root.component_index, 1) * (
        2 * info.k)
    from heckealg.hecke import GradedElement
    expect = expect + GradedElement(
        {gd.wext.identity: TorusAlgebraElement(
            gd.rd.rank, {(0,) * gd.rd.rank: rcoeff})})
    assert prod == expect


def test_im_involution_examples():
    desc = DESCS["B2"]
    gd = affine_to_graded(desc, (0, 0), 1)
    ns = gd.n_simple(0)
    assert im_involution(gd, ns) == GradedScale(ns, -1)
    xi = gd.xi((1, 0))
    assert im_involution(gd, xi) == GradedScale(xi, -1)
    # r_j is fixed
    from heckealg.hecke import GradedElement
    r = GradedElement({gd.wext.identity: TorusAlgebraElement(
        2, {(0, 0): LaurentZ.var_power(1, 1, 1)})})
    assert im_involution(gd, r) == r


def GradedScale(elem, c, nvars=1):
    """elem with every scalar times c, rebuilt monomial by monomial."""
    from heckealg.hecke import GradedElement
    out = {}
    for k, v in elem.terms.items():
        acc = TorusAlgebraElement.zero(v.rank)
        for mono, rexp, val in monomials(v, nvars):
            acc = acc + TorusAlgebraElement(
                v.rank, {mono: LaurentZ.monomial(nvars, rexp, val * c)})
        out[k] = acc
    return GradedElement(out)


def test_graded_product_and_im_make_no_keys_and_test_no_zeros(monkeypatch):
    # past its inputs, a graded product and its IM image work on table ids:
    # no ExtendedWeylElement is made and no coefficient is tested for zero
    gd = graded_test_descriptors(DESCS)["B2@(1,1)/2"]
    rng = random.Random(5)
    a, b = random_graded(gd, rng, nterms=4), random_graded(gd, rng, nterms=3)
    expect = graded_multiply(gd, a, b)   # fills the W_ext and step tables
    made, tested = [], []
    post_init = ExtendedWeylElement.__post_init__
    nonzero = TorusAlgebraElement.__bool__

    def counting_init(self):
        made.append(self)
        post_init(self)

    def counting_bool(self):
        tested.append(self)
        return nonzero(self)
    monkeypatch.setattr(ExtendedWeylElement, "__post_init__", counting_init)
    monkeypatch.setattr(TorusAlgebraElement, "__bool__", counting_bool)
    ab = graded_multiply(gd, a, b)
    im = im_involution(gd, ab)
    monkeypatch.undo()
    assert (made, tested) == ([], [])
    assert ab == expect and len(im.terms) == len(ab.terms) > 1


def test_im_trivial_on_diagram_part():
    desc = DESCS["A1xA1-twisted"]
    gd = affine_to_graded(desc, (0, 0, 0, 0), 1)
    labels = [l for l in gd.diagram_matrices if l != "e"]
    assert labels, "expected a nontrivial diagram part"
    ng = gd.n_gamma(labels[0])
    assert im_involution(gd, ng) == ng


def test_im_suite():
    for name, gd in graded_test_descriptors(DESCS).items():
        assert check_im(gd, random.Random(0), 15), name


def test_graded_associativity():
    from oracle_helpers import check_graded_associativity
    graded = graded_test_descriptors(DESCS)
    for name in ("B2@(1,1)/2", "BC2@(1,1)/2", "A1xA1-twisted@1", "BC1@(1)/2"):
        assert check_graded_associativity(graded[name], random.Random(3), 8), \
            name


@pytest.mark.parametrize("name", sorted(graded_test_descriptors(DESCS)))
def test_graded_multiply_matches_polynomial_representation(name):
    # act(a b)(f) = act(a)(act(b)(f)) on monomials f, where act is built
    # from the subsystem, k and the diagram matrices alone; the oracle's
    # N_s is first checked against N_s^2 = 1 and its commutation rule
    from oracle_helpers import (graded_act, graded_ns, graded_substitute,
                                poly_mul)
    gd = graded_test_descriptors(DESCS)[name]
    rng = random.Random(1989)
    rank, d = gd.rd.rank, gd.d

    def monomial():
        return {(tuple(rng.randint(0, 2) for _ in range(rank)),
                 tuple(rng.randint(0, 1) for _ in range(d))): 1}

    for i, root in enumerate(gd.rd.simple_roots):
        f = monomial()
        assert graded_ns(gd, i, graded_ns(gd, i, f)) == f
        # N_s (x_j f) - (s x_j) N_s f = k r <x_j, coroot> f
        r = tuple(int(k == root.component_index - 1) for k in range(d))
        for j in range(rank):
            xj = {(tuple(int(k == j) for k in range(rank)), (0,) * d): 1}
            lhs = graded_ns(gd, i, poly_mul(xj, f))
            sxj = graded_substitute(reflection_matrix(root.vector,
                                                      root.coroot), xj, d)
            for k, v in poly_mul(sxj, graded_ns(gd, i, f)).items():
                lhs[k] = lhs.get(k, 0) - v
            rhs = poly_mul({((0,) * rank, r): gd.k[root.vector]
                            * root.coroot[j]}, f)
            assert {k: v for k, v in lhs.items() if v} == \
                {k: v for k, v in rhs.items() if v}
    for _ in range(4):
        a, b = (random_graded(gd, rng, nterms=3) for _ in range(2))
        ab = graded_multiply(gd, a, b)
        for _ in range(2):
            f = (monomial(), {})
            assert graded_act(gd, ab, f) == graded_act(gd, a,
                                                       graded_act(gd, b, f))


def test_graded_descriptor_with_diagram_stabilizer():
    # identity-point reduction of the swapped A1 x A1 algebra keeps the
    # diagram group; its twisted relation N_g^2 = -1 survives grading
    desc = DESCS["A1xA1-twisted"]
    gd = affine_to_graded(desc, (0, 0, 0, 0), 1)
    labels = [l for l in gd.diagram_matrices if l != "e"]
    assert len(labels) == 1
    ng = gd.n_gamma(labels[0])
    sq = graded_multiply(gd, ng, ng)
    from heckealg.hecke import GradedElement
    minus_unit = GradedElement({gd.wext.identity: TorusAlgebraElement(
        gd.rd.rank, {(0,) * gd.rd.rank: LaurentZ.const(gd.d, -1)})})
    assert sq == minus_unit
    # the label conjugates the two A1 factors into each other
    from heckealg.weyl import ExtendedWeylElement, WeylElement
    s0 = WeylElement(reflection_matrix(gd.rd.simple_roots[0].vector,
                                       gd.rd.simple_roots[0].coroot))
    g = ExtendedWeylElement(gd.weyl.identity, labels[0])
    conj = gd.wext.mult(gd.wext.mult(g, ExtendedWeylElement(s0, "e")),
                        gd.wext.inv(g))
    assert conj.diagram == "e"
    assert conj.weyl.matrix != s0.matrix
    assert any(conj.weyl.matrix == reflection_matrix(s.vector, s.coroot)
               for s in gd.rd.simple_roots)


def test_affine_to_graded_parameters():
    # lambda = 5, lambda* = 1 on a halvable root: k = 6 at alpha(t) = 1
    # and k = 4 at alpha(t) = -1; simply laced lambda = 1 gives k = 2.
    b1 = build_classical("B", 1)
    w = ExtendedGroup(b1)
    desc = AffineDescriptor(b1, w, spread_invariant(b1, w, {(1,): 5}),
                            spread_invariant(b1, w, {(1,): 1}),
                            Cocycle.trivial(("e",)))
    gd = affine_to_graded(desc, (0,), 1)
    assert gd.k[(1,)] == 6
    gd = affine_to_graded(desc, (1,), 2)
    assert gd.k[(1,)] == 4

    a1 = DESCS["A2"]
    gd = affine_to_graded(a1, (0, 0, 0), 1)
    assert all(v == 2 for v in gd.k.values())


def test_serialization_deterministic():
    desc = DESCS["B2"]
    rng1 = random.Random(13)
    e1 = random_element(desc, rng1, nterms=4)
    rng2 = random.Random(13)
    e2 = random_element(desc, rng2, nterms=4)
    assert serialize_element(desc, e1) == serialize_element(desc, e2)
    assert serialize_element(desc, desc.zero()) == "0"
    s = serialize_element(desc, multiply(desc, desc.n_simple(1),
                                         desc.n_simple(1)))
    assert "N[|e]" in s and "N[2|e]" in s


# ---------------------------------------------------------------------------
# multiply against the term-by-term product
# ---------------------------------------------------------------------------

def _on_all_of_wext(desc, rng, one, low=-1):
    """A left factor with one monomial term on every element of W_ext,
    lattice exponents from ``low`` to 1."""
    rank = desc.rd.rank
    return desc.element({g: TorusAlgebraElement.theta(
        tuple(rng.randint(low, 1) for _ in range(rank)), one).scale(
            rng.choice([-2, -1, 1, 3])) for g in desc.wext.elements()})


def _assert_matches_oracle(desc, pairs):
    # each coefficient also has the oracle's den and a bound that holds its
    # exponents; the oracle walks other words, and its bounds differ by up
    # to two (on 22 of the 685 coefficients of these tests)
    from oracle_helpers import multiply_by_words
    for a, b in pairs:
        ab, oracle = multiply(desc, a, b), multiply_by_words(desc, a, b)
        assert serialize_element(desc, ab) == serialize_element(desc, oracle)
        for w, c in ab.terms.items():
            assert c.den == oracle.terms[w].den
            assert _largest_exponent(c, desc.d) <= c.bound
            assert abs(c.bound - oracle.terms[w].bound) <= 2


def _oracle_forms(desc):
    """(tag, descriptor, pairs) of the term-by-term oracle tests on
    ``desc``: symbolic, specialized at 3/2 and at z = 1; random factors
    and a left factor on all of W_ext, so every label's word trie is
    walked in full."""
    rng = random.Random(1989)
    pairs = [(random_element(desc, rng, nterms=5),
              random_element(desc, rng, nterms=3)) for _ in range(3)]
    pairs.append((_on_all_of_wext(desc, rng, one(desc)),
                  random_element(desc, rng, nterms=2)))
    yield "", desc, pairs
    for tag, spec in (("@3/2", desc.specialized([Fraction(3, 2)] * desc.d)),
                      ("@z=1", quotient_z1(desc))):
        yield tag, spec, [(specialize_element(spec, a),
                           specialize_element(spec, b)) for a, b in pairs]


def _graded_oracle_forms():
    """(name, descriptor, pairs) of the graded term-by-term oracle test."""
    rng = random.Random(1989)
    for name, gd in graded_test_descriptors(DESCS).items():
        pairs = [(random_graded(gd, rng, nterms=5),
                  random_graded(gd, rng, nterms=3)) for _ in range(2)]
        pairs.append((_on_all_of_wext(gd, rng, LaurentZ.one(gd.d), 0),
                      random_graded(gd, rng, nterms=2)))
        yield name, gd, pairs


@pytest.mark.parametrize("name", sorted(DESCS))
def test_multiply_matches_term_by_term_oracle(name):
    for _, desc, pairs in _oracle_forms(DESCS[name]):
        _assert_matches_oracle(desc, pairs)


def test_graded_multiply_matches_term_by_term_oracle():
    for _, gd, pairs in _graded_oracle_forms():
        _assert_matches_oracle(gd, pairs)


def _product_digest(desc, pairs):
    """sha256 over (serialize_element, bound, den) of every coefficient of
    the products of ``pairs``, sorted within each product."""
    h = hashlib.sha256()
    for a, b in pairs:
        ab = multiply(desc, a, b)
        h.update("\n".join(sorted("%s | %d | %s" % (
            serialize_element(desc, desc.element({w: c})), c.bound, c.den)
            for w, c in ab.terms.items())).encode() + b"\n\n")
    return h.hexdigest()


def _product_digests():
    """The digests of ``_product_digest`` for the oracle tests' pairs, by
    descriptor and form; ``tests/data/product_digests.json`` holds them."""
    out = {name + tag: _product_digest(desc, pairs) for name in sorted(DESCS)
           for tag, desc, pairs in _oracle_forms(DESCS[name])}
    out.update(("graded " + name, _product_digest(gd, pairs))
               for name, gd, pairs in _graded_oracle_forms())
    return out


def test_products_keep_terms_bounds_and_dens():
    # every product of the oracle tests keeps the terms, bound and den of
    # every coefficient that it had when the digests were recorded
    recorded = pathlib.Path(__file__).parent / "data" / "product_digests.json"
    assert _product_digests() == json.loads(recorded.read_text())


def test_multiply_makes_one_ns_step_per_word_trie_node(monkeypatch):
    from oracle_helpers import multiply_by_words
    steps = []
    ns_mul = hecke._ns_mul

    def counted(desc, i, terms):
        steps.append(i)
        return ns_mul(desc, i, terms)

    monkeypatch.setattr(hecke, "_ns_mul", counted)
    rng = random.Random(7)
    # W(B2), one label: the 8 recorded words have 7 nonempty prefixes,
    # where one walk per term takes 0 + 1 + 1 + 2 + 2 + 3 + 3 + 4 steps
    b2 = DESCS["B2"]
    a, b = _on_all_of_wext(b2, rng, one(b2)), b2.theta_elem((1, 0))
    product = multiply(b2, a, b)
    assert len(steps) == 7
    del steps[:]
    assert multiply_by_words(b2, a, b) == product
    assert len(steps) == 16
    # W(A1 x A1) with two labels: 3 steps per label
    del steps[:]
    twisted = DESCS["A1xA1-twisted"]
    multiply(twisted, _on_all_of_wext(twisted, rng, one(twisted)),
             twisted.theta_elem((1, 0, 0, 0)))
    assert len(steps) == 6


def test_multiply_makes_one_kernel_call_per_step_and_per_word(monkeypatch):
    # the W(B2) product of the test above, through the module attributes:
    # each of the 7 _ns_mul steps is one map_monomials call over all ids,
    # and each of the 8 words adds its partial product with one mul_into
    calls = dict.fromkeys(("_ns_mul", "map_monomials", "mul_into"), 0)
    for name in calls:
        def counted(*args, name=name, fn=getattr(hecke, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(hecke, name, counted)
    b2 = DESCS["B2"]
    a = _on_all_of_wext(b2, random.Random(7), one(b2))
    multiply(b2, a, b2.theta_elem((1, 0)))
    assert len(a.terms) == 8
    assert calls == {"_ns_mul": 7, "map_monomials": 7, "mul_into": 8}


# ---------------------------------------------------------------------------
# multiply against the polynomial representation
# ---------------------------------------------------------------------------

def _sp58():
    from heckealg.pipeline import BUILTIN_EXAMPLES, assemble, datum_from_json
    return assemble(datum_from_json(BUILTIN_EXAMPLES["sp58"])).descriptor


POLY_REP = sorted(DESCS) + ["sp58"]


@pytest.mark.parametrize("name", POLY_REP)
def test_multiply_matches_polynomial_representation(name):
    # act(a b)(f) = act(a)(act(b)(f)) on monomials f, where act is built
    # from the root datum and the parameters alone; the oracle's N_s is
    # first checked against the quadratic relation
    from oracle_helpers import poly_act, poly_mul, poly_ns
    desc = _sp58() if name == "sp58" else DESCS[name]
    rng = random.Random(1989)
    rank, d = desc.rd.rank, desc.d

    def monomial():
        return {(tuple(rng.randint(-2, 2) for _ in range(rank)),
                 tuple(rng.randint(-1, 1) for _ in range(d))): 1}

    for i, root in enumerate(desc.rd.simple_roots):
        unit = tuple(int(k == root.component_index - 1) for k in range(d))
        lam = desc.lam[root.vector]
        bracket = {((0,) * rank, tuple(lam * u for u in unit)): 1,
                   ((0,) * rank, tuple(-lam * u for u in unit)): -1}
        f = monomial()
        nf = poly_ns(desc, i, f)
        rhs = poly_mul(bracket, nf)
        for k, v in f.items():
            rhs[k] = rhs.get(k, 0) + v
        assert poly_ns(desc, i, nf) == {k: v for k, v in rhs.items() if v}
    length = 3 if name == "sp58" else None
    for _ in range(4):
        a, b = (random_element(desc, rng, nterms=3, max_length=length)
                for _ in range(2))
        ab = multiply(desc, a, b)
        for _ in range(2):
            f = (monomial(), {})
            assert poly_act(desc, ab, f) == poly_act(desc, a,
                                                     poly_act(desc, b, f))


@pytest.mark.parametrize("name", POLY_REP[:-1])
def test_step_entries_serve_longer_and_shorter_steps(name):
    # N_s c N_u with u = e (a longer step) and u = s (a shorter one, with
    # the bracket terms) on the same lattice parts, in both orders, on
    # fresh tables: an entry built by one kind of step must serve the
    # other.  Checked against the term-by-term product on tables that only
    # it fills and against the polynomial representation, symbolic, at a
    # specialization and at z = 1
    from oracle_helpers import multiply_by_words, poly_act
    base = DESCS[name]
    rng = random.Random(1989)
    rank, d = base.rd.rank, base.d
    c = TorusAlgebraElement(rank, {
        tuple(rng.randint(-3, 3) for _ in range(rank)): LaurentZ.monomial(
            d, [rng.randint(-1, 1) for _ in range(d)], rng.choice((-2, 1, 3)))
        for _ in range(6)})
    fs = [({(tuple(rng.randint(-2, 2) for _ in range(rank)), (0,) * d): 1}, {})
          for _ in range(2)]

    def fresh(z_values):
        return AffineDescriptor(base.rd, base.wext, base.lam, base.lam_star,
                                base.cocycle, z_values)

    symbolic = {}
    for z_values in (None, (Fraction(3, 2),) * d, (Fraction(1),) * d):
        for order in ((False, True), (True, False)):
            desc = fresh(z_values)
            for i in range(len(desc.simple_info)):
                ns = desc.n_simple(i)
                s = next(iter(ns.terms))
                for shorter in order:
                    b = HeckeElement({s if shorter else desc.wext.identity: c})
                    if z_values:
                        b = specialize_element(desc, b)
                    got = multiply(desc, ns, b)
                    assert got == multiply_by_words(fresh(z_values), ns, b)
                    if z_values:
                        assert got == specialize_element(
                            desc, symbolic[i, shorter])
                        continue
                    for f in fs:
                        assert poly_act(desc, got, f) == \
                            poly_act(desc, ns, poly_act(desc, b, f))
                    symbolic[i, shorter] = got


def test_affine_products_match_bench_pins():
    # the digests of serialize_element((ab)c) for every affine triple of
    # the benchmark at its default seed, which the benchmark checks too
    workloads = load_bench_module("workloads")
    assert workloads.affine_pins(workloads.DEFAULT_SEED,
                                 workloads.SIZES["full"]) == \
        workloads.load_pins()


# ---------------------------------------------------------------------------
# multiply: the packed range and the scalar modes
# ---------------------------------------------------------------------------

def _reflection_past_packed_range():
    # on the root lattice of A2, s_1 sends (h, -h) to (-2h, -h), past
    # MAX_EXP; <(h, -h), coroot> = 3h, so a telescope built before the
    # reflection's range check would not fit the child's memory
    rd = root_lattice_a2()
    desc = AffineDescriptor(
        rd, ExtendedGroup(rd), {r.vector: 1 for r in rd.nondivisible_roots},
        {}, Cocycle.trivial(("e",)))
    i = next(i for i, r in enumerate(rd.simple_roots) if r.vector == (1, 0))
    h = MAX_EXP // 2 + 1
    with pytest.raises(PackedRangeError):
        multiply(desc, desc.n_simple(i), desc.theta_elem((h, -h)))


def test_multiply_reflection_past_packed_range_raises():
    from oracle_helpers import run_capped
    run_capped(_reflection_past_packed_range)


def test_multiply_last_product_past_packed_range_raises():
    # the final c * c2 of multiply, on a lattice and on a z-digit, after no
    # N_s step and after one
    desc = DESCS["A1"]
    s = desc.n_simple(0)
    top = TorusAlgebraElement.theta((MAX_EXP, 0), one(desc))
    ztop = TorusAlgebraElement.theta((0, 0), LaurentZ.var_power(1, 1, MAX_EXP))
    z = desc.element({desc.wext.identity: TorusAlgebraElement.theta(
        (0, 0), LaurentZ.var_power(1, 1, 1))})
    for c, b in ((top, desc.theta_elem((1, 0))), (ztop, z)):
        for key in (desc.wext.identity, next(iter(s.terms))):
            with pytest.raises(PackedRangeError):
                multiply(desc, desc.element({key: c}), b)


def test_multiply_over_qq_specializes_in_lowest_terms():
    # a product over QQ is the specialization of the symbolic product, and
    # every coefficient is in lowest terms: gcd(den, numerators) = 1, with
    # factors scaled off den 1
    base = DESCS["B2"]
    rng = random.Random(5)
    for desc in (base.specialized((Fraction(3, 2),)), quotient_z1(base)):
        for _ in range(4):
            a, b = (random_element(base, rng) for _ in range(2))
            sa, sb = (specialize_element(desc, e) for e in (a, b))
            ab = specialize_element(desc, multiply(base, a, b))
            for x, y, scale in ((sa, sb, 1), (sa.scale(Fraction(2, 3)),
                                              sb.scale(Fraction(9, 4)),
                                              Fraction(3, 2))):
                product = multiply(desc, x, y)
                assert product == ab.scale(scale)
                for c in product.terms.values():
                    assert c.den and gcd(c.den, *c.terms.values()) == 1


@pytest.mark.parametrize("name", ["B2", "A1xA1-twisted"])
def test_multiply_past_the_slot_width_matches_polynomial_representation(
        name):
    # scalars near 2^61 push the heights of blocks and products past the
    # 64-bit slots, so steps and word sums widen on the way; the product
    # still acts as its factors do, and (ab)b = a(bb)
    from oracle_helpers import poly_act
    desc = DESCS[name]
    rng = random.Random(7)

    def big(e):
        return HeckeElement({w: TorusAlgebraElement(c.rank, {
            x: LaurentZ.monomial(desc.d, ze, v * ((1 << 61) + 3))
            for x, ze, v in monomials(c, desc.d)})
            for w, c in e.terms.items()})

    a, b = (big(random_element(desc, rng, nterms=3)) for _ in range(2))
    ab = multiply(desc, a, b)
    assert all(c.slot > 64 for c in ab.terms.values())
    for _ in range(2):
        f = ({(tuple(rng.randint(-2, 2) for _ in range(desc.rd.rank)),
               tuple(rng.randint(-1, 1) for _ in range(desc.d))): 1}, {})
        assert poly_act(desc, ab, f) == poly_act(desc, a, poly_act(desc, b, f))
    assert multiply(desc, ab, b) == multiply(desc, a, multiply(desc, b, b))


# ---------------------------------------------------------------------------
# bound elements: results keep their id maps, keyed terms are derived
# ---------------------------------------------------------------------------

def _fresh(elem):
    """An unbound element with the keyed terms of ``elem``."""
    return type(elem)(dict(elem.terms))


def _eager_terms(desc, elem):
    """The keyed terms as built from the id map on every call before
    elements kept their id maps."""
    elements = desc.wext.table.elements
    return {elements[u]: c for u, c in hecke._ids(desc, elem).items()}


BOUND_CASES = [(name, False) for name in sorted(DESCS)] + \
    [(name, True) for name in sorted(GRADED)]


@pytest.mark.parametrize("name, graded", BOUND_CASES)
def test_bound_results_derive_the_eager_terms(name, graded):
    # products, IM images, sums, differences, negatives and scalings are
    # bound to their descriptor, and their terms are what the eager
    # conversion gave; the arithmetic by id matches the arithmetic by key
    # on unbound copies
    desc = GRADED[name] if graded else DESCS[name]
    rng = random.Random(31)
    draw = random_graded if graded else random_element
    a, b = draw(desc, rng, nterms=3), draw(desc, rng, nterms=3)
    built = dict(a.terms)
    ab, ba = multiply(desc, a, b), multiply(desc, b, a)
    # the user-built factor is bound, its read-only terms unchanged
    assert a._desc is desc and a.terms == built == _eager_terms(desc, a)
    results = {"ab": ab, "ab + ba": ab + ba, "ab - ba": ab - ba,
               "-ab": -ab, "2 ab": ab.scale(2), "ab + a": ab + a}
    if graded:
        results["im(ab)"] = im_involution(desc, ab)
    for label, r in results.items():
        assert r._desc is desc and r._terms is None, label
        assert dict(r.terms) == _eager_terms(desc, r), label
    fab, fba, fa = _fresh(ab), _fresh(ba), _fresh(a)
    keyed = {"ab + ba": fab + fba, "ab - ba": fab - fba, "-ab": -fab,
             "2 ab": fab.scale(2), "ab + a": fab + fa}
    for label, k in keyed.items():
        assert k._desc is None and dict(results[label].terms) == k.terms, \
            label


def test_bound_equality_agrees_with_keyed_equality():
    # every pair from a pool of bound, unbound and rebound elements, of
    # equal and of different values, on two descriptors whose tables
    # number the shared group elements differently
    full = GRADED["B2@1"]
    sub = affine_to_graded(DESCS["B2"], (0, 1), 2)
    assert any(full.wext.table.index[g] != sub.wext.table.index[g]
               for g in sub.wext.elements())
    rng = random.Random(3)
    a = _on_all_of_wext(sub, rng, LaurentZ.one(1), 0)
    b = random_graded(sub, rng, nterms=2)
    pool = [a, _fresh(a), b, sub.zero(), full.zero(),
            multiply(sub, a, sub.unit()), multiply(full, a, full.unit()),
            multiply(sub, b, sub.unit()), multiply(full, _fresh(b), b),
            multiply(sub, _fresh(b), b), a - a, full.zero() + sub.zero()]
    for x in pool:
        for y in pool:
            assert (x == y) == (dict(x.terms) == dict(y.terms))
    # a's value bound to sub and to full: equal, by different id maps
    x, y = multiply(sub, a, sub.unit()), multiply(full, a, full.unit())
    assert hecke._ids(sub, x) != hecke._ids(full, y) and x == y == a


def test_bound_element_is_checked_against_another_scalar_mode():
    # B2.specialized shares B2's W_ext table but not its scalar mode, so an
    # element bound to B2 is checked again, and refused
    b2 = DESCS["B2"]
    spec = b2.specialized((Fraction(3, 2),))
    rng = random.Random(2)
    ab = multiply(b2, random_element(b2, rng), random_element(b2, rng))
    for elem in (ab, b2.unit()):
        multiply(b2, elem, b2.unit())     # bound to B2
        with pytest.raises(HeckeError, match="scalar mode"):
            multiply(spec, elem, spec.unit())
        with pytest.raises(HeckeError, match="scalar mode"):
            serialize_element(spec, elem)
        assert elem._desc is b2


def test_rebound_element_multiplies_as_a_fresh_one():
    # a product of one descriptor, its terms never read, used with a
    # second descriptor whose table numbers its group elements otherwise
    full = GRADED["B2@1"]
    sub = affine_to_graded(DESCS["B2"], (0, 1), 2)
    rng = random.Random(11)
    a = _on_all_of_wext(sub, rng, LaurentZ.one(1), 0)
    b, c = random_graded(sub, rng, nterms=3), random_graded(full, rng)
    x, kept = multiply(sub, a, b), _fresh(multiply(sub, a, b))
    assert x._terms is None
    assert multiply(full, x, c) == multiply(full, kept, c)
    assert x._desc is full and multiply(full, c, x) == multiply(full, c, kept)
    # and back: the rebound element still multiplies as before in sub
    assert multiply(sub, x, b) == multiply(sub, kept, b)
    assert im_involution(full, x) == im_involution(full, kept)


def test_terms_are_read_only():
    desc = DESCS["B2"]
    key = desc.wext.identity
    for elem in (desc.unit(), multiply(desc, desc.unit(), desc.n_simple(0))):
        with pytest.raises(TypeError):
            elem.terms[key] = TorusAlgebraElement.theta((1, 0), one(desc))
        with pytest.raises(AttributeError):
            elem.terms = {}


@pytest.mark.parametrize("form", ["ZZ", "specialized", "z1"])
def test_subtraction_negates_coefficients(form, monkeypatch):
    # a - b = a + (-1) b, by value and in text, for unbound and bound
    # operands, without a ring product per coefficient
    products = []
    ring_mul = TorusAlgebraElement.__mul__

    def counted(self, other):
        products.append(self)
        return ring_mul(self, other)
    base = DESCS["B2"]
    desc = {"ZZ": base, "specialized": base.specialized((Fraction(3, 2),)),
            "z1": quotient_z1(base)}[form]
    rng = random.Random(13)
    a, b, c = (random_element(base, rng, nterms=3) for _ in range(3))
    if form != "ZZ":
        a, b, c = (specialize_element(desc, e) for e in (a, b, c))
    ab, bc = multiply(desc, a, b), multiply(desc, b, c)
    for x, y in ((a, b), (ab, bc), (ab, c), (a, ab), (ab, ab)):
        monkeypatch.setattr(TorusAlgebraElement, "__mul__", counted)
        diff = x - y
        monkeypatch.undo()
        plus = x + y.scale(-1)
        assert products == []
        assert diff == plus and not (x - x)
        assert serialize_element(desc, diff) == serialize_element(desc, plus)
        assert -(-y) == y and (x - y) + y == x


@pytest.mark.parametrize("name, graded", [("B2", False), ("A1xA1-twisted",
                                                           False),
                                          ("B2@(1,1)/2", True),
                                          ("A1xA1-twisted@1", True)])
def test_chained_products_on_bound_elements_make_no_keys(name, graded,
                                                         monkeypatch):
    # once the operands are bound, products, IM images, sums, differences,
    # scalings and comparisons read id maps only: the table's keyed
    # views raise
    from heckealg.weyl import GroupTable
    desc = GRADED[name] if graded else DESCS[name]
    rng = random.Random(17)
    draw = random_graded if graded else random_element
    a, b = draw(desc, rng, nterms=3), draw(desc, rng, nterms=3)

    def chain():
        ab = multiply(desc, a, b)
        ba = multiply(desc, b, a)
        if graded:
            ab = im_involution(desc, ab) + multiply(
                desc, im_involution(desc, b), im_involution(desc, a))
        out = multiply(desc, ab - ba.scale(2), -a)
        return out, out == ab, bool(out - out), multiply(desc, a, b) == ab

    expect = chain()
    made = []

    def refuse(self):
        made.append(self)
        raise AssertionError("keyed view of the W_ext table read")
    monkeypatch.setattr(GroupTable, "index", property(refuse))
    monkeypatch.setattr(GroupTable, "elements", property(refuse))
    got = chain()
    monkeypatch.undo()
    assert made == [] and got[1:] == expect[1:] and got[0] == expect[0]
