import random
from decimal import Decimal
from fractions import Fraction
from math import gcd
from operator import mul

import pytest

from heckealg.coeffs import (MAX_EXP, SLOT, SPAN, LaurentZ,
                             PackedRangeError, TorusAlgebraElement, _fit,
                             block, map_monomials, negate_lattice, settle,
                             z_bracket)
from heckealg.hecke import AffineDescriptor, GradedDescriptor
from heckealg.root_data import Root, RootDatum, vneg
from heckealg.weyl import Cocycle, ExtendedGroup, RGroup, identity_matrix

from oracle_helpers import monomials, reflection_matrix, run_capped


def _mapped(c, step, shorter=False):
    """(f(c), g(c) factor, plus f(c) bracket when ``shorter``) from
    ``map_monomials`` on the block of c at id u of the two ids 0 and 1,
    swapped by the step and of lengths 0 and 1, for ``step`` = (table,
    build, factor, bracket); u = 1 makes the step shorter."""
    u = int(shorter)
    out = settle(map_monomials(block({u: c}), step, (1, 0), (0, 1)), c)
    zero = TorusAlgebraElement.zero(c.rank)
    return out.get(1 - u, zero), out.get(u, zero)


def rand_laurent(rng, nvars, nterms=3):
    return LaurentZ(nvars, {tuple(rng.randint(-2, 2) for _ in range(nvars)):
                            rng.randint(-4, 4) for _ in range(nterms)})


def rand_tae(rng, rank, nvars, nterms=3):
    return TorusAlgebraElement(
        rank, {tuple(rng.randint(-2, 2) for _ in range(rank)):
               rand_laurent(rng, nvars, 2) for _ in range(nterms)})


def rand_qtae(rng, rank, nvars, nterms=3):
    """A QQ-mode element: two ZZ-elements over two random denominators."""
    a, b = (rand_tae(rng, rank, nvars, nterms).scale(
        Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(2, 9)))
        for _ in range(2))
    return a + b


def test_laurent_basics():
    z = LaurentZ.var_power(1, 1, 1)
    zinv = LaurentZ.var_power(1, 1, -1)
    sq = (z - zinv) * (z - zinv)
    assert sq == LaurentZ(1, {(2,): 1, (0,): -2, (-2,): 1})
    assert z_bracket(1, 1, 0) == LaurentZ.zero(1)
    assert z * zinv == LaurentZ.one(1)


def test_theta_multiplication_inverse():
    one = LaurentZ.one(1)
    tx = TorusAlgebraElement.theta((2, -1), one)
    tnx = TorusAlgebraElement.theta((-2, 1), one)
    assert tx * tnx == TorusAlgebraElement.theta((0, 0), one)


def test_telescoping_identity():
    # theta_x (1 - theta_{-a}) * sum_{k<n} theta_{-k a} = theta_x - theta_{x - n a}
    one = LaurentZ.one(1)
    a = (1, -1)
    x = (3, 0)
    n = 4
    lhs = TorusAlgebraElement.theta(x, one) - TorusAlgebraElement.theta(
        (x[0] - 1, x[1] + 1), one)
    geom = TorusAlgebraElement(2, {(-k * a[0], -k * a[1]): one
                                   for k in range(n)})
    prod = lhs * geom
    expect = TorusAlgebraElement.theta(x, one) - TorusAlgebraElement.theta(
        (x[0] - n * a[0], x[1] - n * a[1]), one)
    assert prod == expect


def test_ring_axioms_fuzz():
    rng = random.Random(7)
    for _ in range(40):
        a = rand_laurent(rng, 2)
        b = rand_laurent(rng, 2)
        c = rand_laurent(rng, 2)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
    for _ in range(25):
        a = rand_tae(rng, 2, 1)
        b = rand_tae(rng, 2, 1)
        c = rand_tae(rng, 2, 1)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


def test_act_is_ring_automorphism():
    rng = random.Random(3)
    swap = ((0, 1), (1, 0))
    for _ in range(20):
        a = rand_tae(rng, 2, 1)
        b = rand_tae(rng, 2, 1)
        assert (a * b).act_matrix(swap) == a.act_matrix(swap) * b.act_matrix(swap)
        assert (a + b).act_matrix(swap) == a.act_matrix(swap) + b.act_matrix(swap)


# ---------------------------------------------------------------------------
# The packed ring against sympy, and its range guard
# ---------------------------------------------------------------------------

def _sympy_form(sympy, elem, nvars):
    """elem as a sympy Laurent polynomial in x1.. (lattice) and z1.."""
    xs = sympy.symbols("x1:%d" % (elem.rank + 1))
    zs = sympy.symbols("z1:%d" % (nvars + 1))
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator) *
                       sympy.Mul(*(v ** k for v, k in zip(xs, x))) *
                       sympy.Mul(*(v ** k for v, k in zip(zs, e)))
                       for x, e, c in monomials(elem, nvars)))


def test_packed_ring_matches_sympy():
    # Laurent polynomials are compared in sympy's sparse polynomial ring
    # after multiplying by clear = (x1 .. z1 ..)^16, which lifts every
    # exponent here to >= 0; a product of n such forms carries clear^n
    sympy = pytest.importorskip("sympy")
    rank, nvars = 3, 2
    gens = sympy.symbols("x1:%d z1:%d" % (rank + 1, nvars + 1))
    xs = gens[:rank]
    ring = sympy.ring(gens, sympy.QQ)[0]
    clear = sympy.Mul(*(v ** 16 for v in gens))

    def cleared(expr, n=1):
        """expr * clear^n in the ring, clear multiplied into each term."""
        return ring.from_expr(sympy.Add(*(t * clear ** n for t in
                                          sympy.Add.make_args(expr))))

    def poly(elem, n=1):
        """elem * clear^n in the ring, read off its monomials."""
        return ring.from_dict({tuple(k + 16 * n for k in x + e):
                               sympy.QQ(c.numerator, c.denominator)
                               for x, e, c in monomials(elem, nvars)})

    def same(elem, expected, n=1):
        return poly(elem, n) == expected

    matrices = (((0, 1, 0), (1, 0, 0), (0, 0, 1)),     # permutation
                ((0, 0, -1), (1, 0, 0), (0, -1, 0)),   # signed permutation
                ((1, 1, 0), (0, 1, 0), (0, 0, 1)),     # unimodular shear
                ((2, 1, 0), (1, 1, 0), (0, 0, -1)))
    rng = random.Random(2009)
    for trial in range(20):
        a = rand_tae(rng, rank, nvars, nterms=4)
        b = rand_tae(rng, rank, nvars, nterms=3)
        if trial % 2:
            b = b.scale(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        sa, sb = (poly(e) for e in (a, b))
        assert same(a * b, sa * sb, 2)
        assert same(a + b, sa + sb)
        lz = rand_laurent(rng, nvars)
        assert same(a.scale(lz), sa * poly(
            TorusAlgebraElement(rank, {(0,) * rank: lz})), 2)
        x = tuple(rng.randint(-3, 3) for _ in range(rank))
        assert same(a.shift(x), sa * cleared(sympy.Mul(*(v ** k for v, k in
                                                          zip(xs, x)))), 2)
        m = matrices[trial % len(matrices)]
        # theta_x -> theta_{Mx}: x_j -> prod_i x_i^{M[i][j]}
        monomial_images = {xs[j]: sympy.Mul(*(xs[i] ** m[i][j]
                                              for i in range(rank)))
                           for j in range(rank)}
        assert same(a.act_matrix(m), cleared(_sympy_form(
            sympy, a, nvars).subs(monomial_images, simultaneous=True)))
        # polynomial substitution x_i -> sum_j M[j][i] x_j
        p = TorusAlgebraElement(rank, {
            tuple(rng.randint(0, 2) for _ in range(rank)): rand_laurent(
                rng, nvars, 2) for _ in range(3)})
        linear_images = {xs[i]: sum(m[j][i] * xs[j] for j in range(rank))
                         for i in range(rank)}
        assert same(p.substitute(m), cleared(_sympy_form(
            sympy, p, nvars).subs(linear_images, simultaneous=True)))
        # (-1)^n a(-x) by the digits' low bits, against x_i -> -x_i
        negated = {v: -v for v in xs}
        for n in (0, 1):
            assert same(negate_lattice(a, n), cleared((-1) ** n * _sympy_form(
                sympy, a, nvars).subs(negated, simultaneous=True)))

        # QQ-mode, integer numerators over one denominator, every other trial
        if trial % 2:
            continue
        qa, qb = (rand_qtae(rng, rank, nvars, nterms=n) for n in (2, 1))
        assert qa.den and qb.den
        sqa, sqb = (poly(e) for e in (qa, qb))
        assert same(qa + qb, sqa + sqb)
        assert same(qa - qb, sqa - sqb)
        assert same(qa * qb, sqa * sqb, 2)
        f = Fraction(rng.randint(-7, 7), rng.randint(1, 7))
        assert same(qa.scale(f), sqa * sympy.Rational(f.numerator,
                                                      f.denominator))
        assert same(qa.act_matrix(m), cleared(_sympy_form(
            sympy, qa, nvars).subs(monomial_images, simultaneous=True)))
        assert same(negate_lattice(qa, 1), cleared(-_sympy_form(
            sympy, qa, nvars).subs(negated, simultaneous=True)))
        # the N_s step: corr (1 - theta_{-step}) = (c - s c) factor
        # + s(c) bracket (1 - theta_{-step})
        simple = _reflection(rng, rank, trial % 4 == 0)
        root = simple.vector
        step = [(2 if simple.halvable else 1) * a for a in root]
        refl = reflection_matrix(root, simple.coroot)
        (_, build, _, _), (_, gbuild, _, _) = _rank_one_steps(simple)
        c = TorusAlgebraElement(rank, {
            tuple(rng.randint(-1, 1) for _ in range(rank)): rand_laurent(
                rng, nvars, 1) for _ in range(2)}).scale(
            Fraction(rng.randint(1, 4), rng.randint(2, 6)))
        factor = rand_qtae(rng, rank, nvars, nterms=1)
        bracket = TorusAlgebraElement(rank, {(0,) * rank: rand_laurent(
            rng, nvars, 2)}).scale(Fraction(1, rng.randint(2, 5)))
        cs, corr = _mapped(c, ({}, build, factor, bracket), True)
        sc, sfactor, sbracket = (poly(e) for e in (c, factor, bracket))
        scs = cleared(_sympy_form(sympy, c, nvars).subs(
            {xs[j]: sympy.Mul(*(xs[i] ** refl[i][j] for i in range(rank)))
             for j in range(rank)}, simultaneous=True))
        assert same(cs, scs)
        denom = cleared(1 - sympy.Mul(*(v ** -k for v, k in zip(xs, step))))
        assert poly(corr, 2) * denom == \
            (sc - scs) * sfactor * cleared(1) + scs * sbracket * denom
        # exact division by a linear form, pivots of size 1 and 2
        alpha = ((1, -1, 0), (2, 3, 0), (0, -2, 2), (0, 0, 2))[trial // 2 % 4]
        q = TorusAlgebraElement(rank, {
            tuple(rng.randint(0, 2) for _ in range(rank)): rand_laurent(
                rng, nvars, 2) for _ in range(3)}).scale(
            Fraction(rng.randint(1, 5), rng.randint(2, 7)))
        form = TorusAlgebraElement(rank, {
            tuple(int(i == j) for j in range(rank)): a
            for i, a in enumerate(alpha) if a})
        quotient = (q * form).divide_linear(alpha)
        assert same(quotient, poly(q))
        assert quotient.den
        # the graded N_s step: corr root = (q - s q) factor, s q the
        # substitution by the reflection, root as a linear form
        qs, gcorr = _mapped(q, ({}, gbuild, factor, None))
        sqs = cleared(_sympy_form(sympy, q, nvars).subs(
            {xs[i]: sum(refl[j][i] * xs[j] for j in range(rank))
             for i in range(rank)}, simultaneous=True))
        assert same(qs, sqs)
        assert poly(gcorr) * cleared(sum(map(mul, root, xs))) == \
            (poly(q) - sqs) * sfactor


def test_inexact_scalars_refused():
    # only int, Fraction and LaurentZ over ZZ get in: no floats
    one = TorusAlgebraElement.theta((0,), 1)
    half_laurent = LaurentZ.one(1).scale(Fraction(1, 2))
    for bad in (0.5, 1.0, Decimal("0.25"), 1j, half_laurent):
        with pytest.raises(TypeError):
            TorusAlgebraElement(1, {(0,): bad})
        with pytest.raises(TypeError):
            TorusAlgebraElement(1, {(1,): 1, (0,): bad})
        with pytest.raises(TypeError):
            one.scale(bad)


def test_rational_mode_canonical_form():
    def canonical(e):
        return e.den > 0 and gcd(e.den, *e.terms.values()) == 1 and \
            all(type(c) is int and c for c in e.terms.values())

    # int and LaurentZ scalars give ZZ-mode, Fraction scalars QQ-mode
    assert TorusAlgebraElement(1, {(0,): 2}).den is None
    assert TorusAlgebraElement(1, {(0,): LaurentZ.one(1)}).den is None
    a = TorusAlgebraElement(2, {(0, 1): Fraction(-3, 4),
                                (1, 0): Fraction(5, 6), (0, 0): Fraction(2)})
    assert a.den == 12 and sorted(a.terms.values()) == [-9, 10, 24]
    # negative numerators survive the content reduction
    b = TorusAlgebraElement(1, {(0,): Fraction(-2, 4), (1,): Fraction(-1, 6)})
    assert b.den == 6 and sorted(b.terms.values()) == [-3, -1]
    for e, den, nums in ((b + b, 3, [-3, -1]), (b.scale(6), 1, [-3, -1]),
                         (b.scale(Fraction(-3)), 2, [1, 3]),
                         (-b, 6, [1, 3]), (b * b, 36, [1, 6, 9])):
        assert canonical(e) and e.den == den
        assert sorted(e.terms.values()) == nums
    # zero: empty terms over den 1, however it is reached
    for zero in (a - a, a.scale(0), a * TorusAlgebraElement.zero(2),
                 TorusAlgebraElement(1, {(0,): Fraction(0)})):
        assert zero.terms == {} and zero.den == 1 and not zero
    # equality by value across the modes
    assert TorusAlgebraElement(1, {(0,): 1}) == \
        TorusAlgebraElement(1, {(0,): Fraction(1)})
    assert TorusAlgebraElement(1, {(0,): 1}) != \
        TorusAlgebraElement(1, {(0,): Fraction(1, 2)})
    # QQ-quotients where ZZ would be inexact
    assert TorusAlgebraElement(1, {(1,): Fraction(1)}).divide_linear((2,)) \
        == TorusAlgebraElement(1, {(0,): Fraction(1, 2)})
    # Fractions come back out, with the text of the Fraction scalars
    assert sorted(c for _, _, c in monomials(a, 0)) == \
        [Fraction(-3, 4), Fraction(5, 6), Fraction(2)]
    assert repr(a) == ("(Fraction(2, 1))*theta[0, 0] + (Fraction(-3, 4))"
                       "*theta[0, 1] + (Fraction(5, 6))*theta[1, 0]")
    z = TorusAlgebraElement(1, {(0,): LaurentZ.var_power(1, 1, 2, -3)
                                + LaurentZ.one(1)}).scale(Fraction(2, 9))
    assert canonical(z) and repr(z) == "(2/9 - 2/3*z1^2)*theta[0]"
    # int and Fraction scalars mixed: in neither ring
    mixed = TorusAlgebraElement(1, {(0,): 1, (1,): Fraction(1, 2)})
    assert mixed.den == 0
    with pytest.raises(TypeError):
        mixed + mixed
    with pytest.raises(TypeError):
        mixed * b


def test_one_term_products_match_the_general_product():
    rng = random.Random(41)
    for trial in range(30):
        a = rand_tae(rng, 2, 1) if trial % 2 else rand_qtae(rng, 2, 1)
        x = tuple(rng.randint(-3, 3) for _ in range(2))
        lz = rand_laurent(rng, 1, 1) or LaurentZ.one(1)
        scalar = lz if trial % 3 else Fraction(rng.randint(1, 4), 3)
        mono = TorusAlgebraElement(2, {x: scalar})
        expect = a.shift(x).scale(scalar)
        assert a * mono == expect and mono * a == expect
        assert (a * mono).bound == a.bound + mono.bound


def test_negate_lattice_is_the_minus_identity_substitution():
    # (-1)^n c(-x) from the digits' low bits against substitute(-I), with
    # negative and extreme exponents, z-digits and both scalar modes
    rng = random.Random(11)
    edge = TorusAlgebraElement(2, {(MAX_EXP, -MAX_EXP): LaurentZ.monomial(
        1, (-MAX_EXP,), 3), (-1, MAX_EXP - 1): 2})
    for c in [edge] + [rand_tae(rng, rank, 2) for rank in (1, 2, 3)
                       for _ in range(4)]:
        rank = c.rank
        neg = tuple(tuple(-int(i == j) for j in range(rank))
                    for i in range(rank))
        for c in (c, c.scale(Fraction(2, 3))):
            for n in (0, 1, 4):
                got = negate_lattice(c, n)
                assert got == c.substitute(neg).scale((-1) ** n)
                assert (got.bound, got.den) == (c.bound, c.den)


def test_exponent_past_packed_range_raises():
    top = TorusAlgebraElement(2, {(MAX_EXP, -MAX_EXP): 1})
    assert list(monomials(top, 0)) == [((MAX_EXP, -MAX_EXP), (), 1)]
    with pytest.raises(PackedRangeError):
        TorusAlgebraElement(1, {(MAX_EXP + 1,): 1})
    with pytest.raises(PackedRangeError):
        top * top
    with pytest.raises(PackedRangeError):
        top.shift((1, 0))
    with pytest.raises(PackedRangeError):
        top.scale(LaurentZ.var_power(1, 1, 1))
    zpow = TorusAlgebraElement(1, {(0,): LaurentZ.var_power(1, 1, MAX_EXP)})
    with pytest.raises(PackedRangeError):
        zpow * zpow
    half = TorusAlgebraElement(2, {(MAX_EXP // 2 + 1, 0): 1})
    with pytest.raises(PackedRangeError):
        half.act_matrix(((2, 1), (1, 1)))


def test_laurent_past_packed_range_raises_on_construction():
    LaurentZ.var_power(1, 1, MAX_EXP)
    with pytest.raises(PackedRangeError):
        LaurentZ.var_power(1, 1, MAX_EXP + 1)
    with pytest.raises(PackedRangeError):
        LaurentZ.monomial(2, (0, -MAX_EXP - 1))


def test_laurent_equals_only_laurent():
    z = LaurentZ.var_power(1, 1, 1)
    torus = TorusAlgebraElement(1, {(1,): 1})
    assert z.terms == torus.terms and z.rank == torus.rank
    assert z != torus and torus != z
    assert z == LaurentZ.monomial(1, (1,))
    # ring operations keep the type
    assert all(type(v) is LaurentZ for v in (z + z, z - z, -z, z * z, 2 * z))


def _reflection(rng, rank, halvable):
    """A Root, the vector lexicographically positive and paired to 2 with
    the coroot, the coroot all even when ``halvable``: x -> x - <x, coroot>
    root is then a lattice reflection."""
    scale = 2 if halvable else 1
    while True:
        root = tuple(rng.randint(-2, 2) for _ in range(rank))
        half = tuple(rng.randint(-3, 3) for _ in range(rank))
        if scale * sum(map(mul, root, half)) == 2:
            sign = 1 if next(a for a in root if a) > 0 else -1
            return Root(tuple(sign * a for a in root),
                        tuple(sign * scale * a for a in half), 1)


def _rank_one_steps(alpha):
    """The N_s step data (table, build, factor, bracket) of the affine and
    of the graded algebra on the root datum {+-alpha}, every parameter 1."""
    minus = Root(vneg(alpha.vector), vneg(alpha.coroot), 1)
    rd = RootDatum(len(alpha.vector), (alpha, minus), 1)
    ones = {alpha.vector: 1, minus.vector: 1}
    trivial = Cocycle.trivial(("e",))
    affine = AffineDescriptor(rd, ExtendedGroup(rd, RGroup.trivial(rd.rank)),
                              ones, ones if alpha.halvable else {}, trivial)
    graded = GradedDescriptor(rd, ones, {"e": identity_matrix(rd.rank)},
                              {("e", "e"): "e"}, trivial)
    return affine._steps[0], graded._steps[0]


def test_map_monomials_solves_bernstein_lusztig():
    # with the affine build, s(c) is act_matrix of the reflection; D_x (1 -
    # theta_{-step}) = theta_x - theta_{x - m step}, m = <x, coroot>
    # (halved, with a doubled step, for an even coroot), determines D_x in
    # the Laurent ring; the factor and the bracket multiply through
    rng = random.Random(1989)
    rank, nvars = 2, 1
    one = TorusAlgebraElement.theta((0,) * rank, 1)
    for trial in range(40):
        alpha = _reflection(rng, rank, bool(trial % 2))
        root, coroot, halvable = alpha.vector, alpha.coroot, alpha.halvable
        step = tuple(2 * a for a in root) if halvable else root
        c = rand_tae(rng, rank, nvars, nterms=4)
        # one table per (factor, bracket), filled by its first call
        (_, build, _, _), _ = _rank_one_steps(alpha)
        table = {}
        cs, d = _mapped(c, (table, build, one, None))
        image = c.act_matrix(reflection_matrix(root, coroot))
        assert cs == image and cs.bound == image.bound
        # an entry keeps the bounds of s(theta_x) and of D_x apart
        parts = {x for x, _, _ in monomials(c, nvars)}
        assert sorted(entry[:2] for entry in table.values()) == sorted(
            (f.bound, g.bound) for f, g in map(build, parts))
        # at most bound(c) + max|m| max|step| = bound(c) + max|n| max|root|
        reach = max(abs(sum(map(mul, x, coroot))) for x in parts)
        largest = max((max(map(abs, x + e)) for x, e, _ in
                       monomials(d, nvars)), default=0)
        assert largest <= d.bound <= c.bound + reach * max(map(abs, root))
        expect = TorusAlgebraElement(rank)
        for x, e, v in monomials(c, nvars):
            n = sum(map(mul, x, coroot))
            m = n // 2 if halvable else n
            mono = TorusAlgebraElement(rank, {x: LaurentZ.monomial(nvars, e, v)})
            expect = expect + mono - mono.shift(tuple(-m * s for s in step))
        assert d * (one - one.shift(tuple(-s for s in step))) == expect
        factor = rand_tae(rng, rank, nvars, nterms=2)
        bracket = TorusAlgebraElement(rank, {(0,) * rank:
                                             rand_laurent(rng, nvars, 2)})
        step = ({}, build, factor, bracket)
        assert _mapped(c, step) == (cs, d * factor)
        assert _mapped(c, step, True) == (cs, d * factor + cs * bracket)


def _telescope_past_packed_range():
    one = TorusAlgebraElement.theta((0, 0), 1)
    # s x = x - <x, (2, 1)> (1, 0) sends (h, h) to (-2h, h), past MAX_EXP
    h = MAX_EXP // 2 + 1
    c = TorusAlgebraElement(2, {(h, h): 1})
    with pytest.raises(PackedRangeError):
        c.act_matrix(((-1, -1), (0, 1)))
    (_, build, _, _), _ = _rank_one_steps(Root((1, 0), (2, 1), 1))
    with pytest.raises(PackedRangeError):
        _mapped(c, ({}, build, one, None))
    # the image fits, D_x times the factor holds z^(MAX_EXP + 1)
    (_, build, _, _), _ = _rank_one_steps(Root((1, -1), (1, -1), 1))
    zbracket = TorusAlgebraElement(2, {(0, 0): z_bracket(1, 1, 1)})
    ztop = LaurentZ.var_power(1, 1, MAX_EXP)
    c = TorusAlgebraElement(2, {(1, 0): ztop})
    with pytest.raises(PackedRangeError):
        _mapped(c, ({}, build, zbracket, None))
    # <x, coroot> = 0: only the bracket term passes the range
    c = TorusAlgebraElement(2, {(1, 1): ztop})
    step = ({}, build, one, zbracket)
    _mapped(c, step)
    with pytest.raises(PackedRangeError):
        _mapped(c, step, True)


def _telescope_range_checked_first():
    # a warm table: (1, 1) was met in range and is recorded
    one = TorusAlgebraElement.theta((0, 0), 1)
    (_, build, _, _), _ = _rank_one_steps(Root((1, 0), (2, 1), 1))
    table = {}
    step = (table, build, one, None)
    small = TorusAlgebraElement(2, {(1, 1): 1})
    first = _mapped(small, step)
    assert len(table) == 1
    # (h, h) has n = 3h > MAX_EXP and s(h, h) = (-2h, h) is out of range;
    # telescoping it before the check would sum 3h keys
    h = MAX_EXP // 2 + 1
    c = TorusAlgebraElement(2, {(1, 1): 1, (h, h): 1})
    with pytest.raises(PackedRangeError):
        _mapped(c, step)
    assert len(table) == 1
    assert _mapped(small, step) == first


def test_map_monomials_past_packed_range_raises():
    run_capped(_telescope_past_packed_range)


def test_map_monomials_checks_range_before_telescoping():
    run_capped(_telescope_range_checked_first)


# ---------------------------------------------------------------------------
# The packed value: slots, heights, widening, base and windows
# ---------------------------------------------------------------------------

def _element(rank, nvars, poly):
    """The element of ``poly`` = {(x, e): int or Fraction}, built one
    monomial at a time through the constructor."""
    out = TorusAlgebraElement(rank)
    for (x, e), v in poly.items():
        scalar = LaurentZ.monomial(nvars, e, v) if isinstance(v, int) else v
        if not isinstance(v, int):
            assert not any(e)
        out = out + TorusAlgebraElement(rank, {x: scalar})
    return out


def _poly(elem, nvars):
    return {(x, e): v for x, e, v in monomials(elem, nvars)}


def _poly_product(f, g):
    out = {}
    for (x, e), v in f.items():
        for (y, d), w in g.items():
            key = (tuple(map(sum, zip(x, y))), tuple(map(sum, zip(e, d))))
            out[key] = out.get(key, 0) + v * w
    return {k: v for k, v in out.items() if v}


def test_packed_ring_with_more_z_variables_matches_sympy():
    # z_1 packed in the values, z_2 and z_3 in the keys: products, sums,
    # the lattice action and the sign pass against sympy at d = 2 and 3,
    # with negative z-exponents and scalars up to 2^70
    sympy = pytest.importorskip("sympy")
    rng = random.Random(30)
    for nvars in (2, 3):
        rank = 2
        gens = sympy.symbols("x1:%d z1:%d" % (rank + 1, nvars + 1))
        ring = sympy.ring(gens, sympy.ZZ)[0]

        def poly(elem, lift=8):
            return ring.from_dict({tuple(k + lift for k in x + e): v
                                   for x, e, v in monomials(elem, nvars)})

        for trial in range(12):
            big = 1 << rng.choice((3, 40, 70))
            a, b = (TorusAlgebraElement(rank, {
                tuple(rng.randint(-2, 2) for _ in range(rank)):
                LaurentZ(nvars, {tuple(rng.randint(-3, 3) for _ in
                                       range(nvars)):
                                 rng.randint(-big, big) for _ in range(3)})
                for _ in range(3)}) for _ in range(2))
            assert poly(a * b, 16) == poly(a) * poly(b)
            assert poly(a + b) == poly(a) + poly(b)
            assert poly(a - a) == 0 and not (a - a)
            swap = ((0, 1), (1, 0))
            assert _poly(a.act_matrix(swap), nvars) == {
                (x[::-1], e): v for (x, e), v in _poly(a, nvars).items()}
            assert _poly(negate_lattice(a, 1), nvars) == {
                (x, e): -v if sum(x) % 2 == 0 else v
                for (x, e), v in _poly(a, nvars).items()}


def test_scalars_at_the_edge_of_the_slot():
    # +-(2^(SLOT-1) - 1) fits a slot; the sum of two of them, and any
    # product, moves to wider slots and reads back exactly; every result
    # is canonical, so it equals the element built from its monomials
    edge = (1 << (SLOT - 1)) - 1
    z = LaurentZ.var_power(1, 1, 1)
    for c in (edge, -edge):
        a = TorusAlgebraElement(1, {(0,): LaurentZ(1, {(-1,): c, (2,): -c}),
                                    (1,): z.scale(c)})
        assert a.slot == _fit(SLOT, a.height) == 2 * SLOT
        one = TorusAlgebraElement(1, {(0,): LaurentZ(1, {(-1,): c})})
        assert one.slot == SLOT and one.height == edge
        assert _poly(one, 1) == {((0,), (-1,)): c}
        for got, want in ((a + a, {k: 2 * v for k, v in _poly(a, 1).items()}),
                          (a * a, _poly_product(_poly(a, 1), _poly(a, 1))),
                          (one + one, {((0,), (-1,)): 2 * c})):
            assert _poly(got, 1) == want
            assert got == _element(1, 1, want)
            assert got.slot == _fit(SLOT, sum(map(abs, want.values())))


def test_a_product_chain_widens_its_slots():
    # (1 + z)^2^k times 2^60: heights double in bits at each squaring, so
    # the slots widen past SLOT; every step agrees with the dict product
    # and returns to SLOT once the scalars are small again
    c = TorusAlgebraElement(1, {(0,): LaurentZ(1, {(0,): 1 << 60,
                                                   (-1,): -(1 << 60)})})
    poly = _poly(c, 1)
    for _ in range(3):
        c, poly = c * c, _poly_product(poly, poly)
        assert _poly(c, 1) == poly
        assert c.slot > SLOT and c == _element(1, 1, poly)
    small = TorusAlgebraElement(1, {(0,): LaurentZ.var_power(1, 1, -3)})
    assert (c - c + small).slot == SLOT
    # a block past its slot in an N_s step is mapped again at a wider one
    (_, build, _, _), _ = _rank_one_steps(Root((1, -1), (1, -1), 1))
    factor = TorusAlgebraElement(2, {(0, 0): z_bracket(1, 1, 1)})
    big = TorusAlgebraElement(2, {(3, 0): LaurentZ(1, {
        (0,): (1 << (SLOT - 2)) + 1, (-2,): 5})})
    cs, corr = _mapped(big, ({}, build, factor, None))
    assert corr.slot > SLOT
    assert _poly(cs, 1) == {((0, 3), e): v for (_, e), v in
                            _poly(big, 1).items()}
    expect = {}
    for (x, e), v in _poly(big, 1).items():   # D_x = theta_x + .. , n = 3
        for k in range(3):
            for (y, d), w in _poly(factor, 1).items():
                key = ((x[0] - k + y[0], x[1] + k + y[1]), (e[0] + d[0],))
                expect[key] = expect.get(key, 0) + v * w
    assert _poly(corr, 1) == {k: v for k, v in expect.items() if v}


def test_negative_z_exponents_normalize_the_base():
    # base = max(0, -lowest z_1-exponent): products and sums whose lowest
    # exponents cancel drop their empty low slots, so they equal the
    # elements built from their monomials, fields and all
    z, zinv = LaurentZ.var_power(1, 1, 1), LaurentZ.var_power(1, 1, -1)
    a = TorusAlgebraElement(2, {(1, 0): zinv.scale(3) + z, (0, 1): zinv})
    b = TorusAlgebraElement(2, {(0, 0): z})
    for got, want in (
            (a * b, {((1, 0), (0,)): 3, ((1, 0), (2,)): 1,
                     ((0, 1), (0,)): 1}),
            (a * b * b, {((1, 0), (1,)): 3, ((1, 0), (3,)): 1,
                         ((0, 1), (1,)): 1}),
            (a - TorusAlgebraElement(2, {(1, 0): zinv.scale(3),
                                         (0, 1): zinv}),
             {((1, 0), (1,)): 1}),
            (a * a, _poly_product(_poly(a, 1), _poly(a, 1)))):
        assert _poly(got, 1) == want
        built = _element(2, 1, want)
        assert got == built
        assert (got.base, got.slot) == (built.base, built.slot) == (
            max(0, -min(e[0] for _, e in want)), SLOT)
    # z_1-exponents far apart take windows of SPAN slots, not one value
    far = TorusAlgebraElement(1, {(0,): LaurentZ(1, {(-MAX_EXP,): 2, (0,): 3,
                                                     (MAX_EXP,): 5})})
    assert max(v.bit_length() for v in far.terms.values()) <= SLOT * SPAN
    assert _poly(far.scale(7), 1) == {((0,), (-MAX_EXP,)): 14,
                                      ((0,), (0,)): 21,
                                      ((0,), (MAX_EXP,)): 35}


def _inexact_division_by_slots():
    # in a child: a test of the packed value would pass, and a zero
    # quotient step would then loop
    two_plus_z = LaurentZ(1, {(0,): 2, (1,): 1})
    with pytest.raises(ArithmeticError, match="inexact"):
        TorusAlgebraElement(1, {(1,): two_plus_z}).divide_linear((3,))


def test_qq_content_and_exact_division_read_the_slots():
    # 2^SLOT = 1 mod 3: the packed value of 2 + z is divisible by 3 while
    # neither scalar is, so content and exactness are decided per slot
    assert pow(2, SLOT, 3) == 1
    two_plus_z = LaurentZ(1, {(0,): 2, (1,): 1})
    q = TorusAlgebraElement(1, {(1,): two_plus_z}).scale(Fraction(1, 3))
    assert q.den == 3 and _poly(q, 1) == {((1,), (0,)): Fraction(2, 3),
                                          ((1,), (1,)): Fraction(1, 3)}
    assert q.scale(3) == TorusAlgebraElement(1, {(1,): two_plus_z})
    assert (q + q + q).den == 1
    run_capped(_inexact_division_by_slots, seconds=20)
    # and the same division over QQ is exact
    assert _poly(q.divide_linear((3,)), 1) == {
        ((0,), (0,)): Fraction(2, 9), ((0,), (1,)): Fraction(1, 9)}
    # over two variables, with a pivot of size 3
    g = TorusAlgebraElement(2, {(2, 0): two_plus_z.scale(6),
                                (1, 1): two_plus_z.scale(2)})
    assert g.divide_linear((3, 1)) == TorusAlgebraElement(2, {
        (1, 0): two_plus_z.scale(2)})
