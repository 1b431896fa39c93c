import random
from fractions import Fraction
from operator import mul

import pytest

from heckealg.coeffs import (MAX_EXP, CyclotomicValue, LaurentZ,
                             PackedRangeError, TorusAlgebraElement,
                             cyclotomic_polynomial, evaluate_at_point,
                             z_bracket)


def rand_laurent(rng, nvars, nterms=3):
    return LaurentZ(nvars, {tuple(rng.randint(-2, 2) for _ in range(nvars)):
                            rng.randint(-4, 4) for _ in range(nterms)})


def rand_tae(rng, rank, nvars, nterms=3):
    return TorusAlgebraElement(
        rank, {tuple(rng.randint(-2, 2) for _ in range(rank)):
               rand_laurent(rng, nvars, 2) for _ in range(nterms)})


def test_laurent_basics():
    z = LaurentZ.var_power(1, 1, 1)
    zinv = LaurentZ.var_power(1, 1, -1)
    sq = (z - zinv) * (z - zinv)
    assert sq == LaurentZ(1, {(2,): 1, (0,): -2, (-2,): 1})
    assert z_bracket(1, 1, 0) == LaurentZ.zero(1)
    assert (z * zinv).is_one()


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


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]


def test_evaluate_examples():
    one = LaurentZ.one(1)
    zero = TorusAlgebraElement.theta((0,), one)
    assert evaluate_at_point(zero, (5,), 7, (Fraction(1),)) == 1

    # order-2 evaluation: <x, t> = N/2 mod N gives -1
    tx = TorusAlgebraElement.theta((1,), one)
    val = evaluate_at_point(tx, (1,), 2, (Fraction(1),))
    assert val == CyclotomicValue(2, {0: Fraction(-1)})

    # (theta_x + theta_{-x}) at an order-4 point with pairing 1: i + (-i) = 0
    e = TorusAlgebraElement.theta((1,), one) + TorusAlgebraElement.theta((-1,), one)
    assert evaluate_at_point(e, (1,), 4, (Fraction(1),)).is_zero()


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(11)
    z = (Fraction(3, 2),)
    for _ in range(15):
        a = rand_tae(rng, 2, 1)
        b = rand_tae(rng, 2, 1)
        ea = evaluate_at_point(a, (1, 2), 6, z)
        eb = evaluate_at_point(b, (1, 2), 6, z)
        eab = evaluate_at_point(a * b, (1, 2), 6, z)
        assert eab == ea * eb
        assert evaluate_at_point(a + b, (1, 2), 6, z) == ea + eb


# ---------------------------------------------------------------------------
# The packed ring against sympy, and its range guard
# ---------------------------------------------------------------------------

def _sympy_form(sympy, elem, nvars):
    """elem as a sympy Laurent polynomial in x1.. (lattice) and z1.."""
    xs = sympy.symbols("x1:%d" % (elem.rank + 1))
    zs = sympy.symbols("z1:%d" % (nvars + 1))
    return sum((sympy.Rational(c.numerator, c.denominator) *
                sympy.Mul(*(v ** k for v, k in zip(xs, x))) *
                sympy.Mul(*(v ** k for v, k in zip(zs, e)))
                for x, e, c in elem.monomials(nvars)), sympy.Integer(0))


def test_packed_ring_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rank, nvars = 3, 2
    xs = sympy.symbols("x1:%d" % (rank + 1))

    def same(elem, expr):
        return sympy.expand(_sympy_form(sympy, elem, nvars) - expr) == 0

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
        sa, sb = (_sympy_form(sympy, e, nvars) for e in (a, b))
        assert same(a * b, sa * sb)
        assert same(a + b, sa + sb)
        lz = rand_laurent(rng, nvars)
        assert same(a.scale(lz), sa * _sympy_form(
            sympy, TorusAlgebraElement(rank, {(0,) * rank: lz}), nvars))
        x = tuple(rng.randint(-3, 3) for _ in range(rank))
        assert same(a.shift(x), sa * sympy.Mul(*(v ** k for v, k in
                                                   zip(xs, x))))
        m = matrices[trial % len(matrices)]
        # theta_x -> theta_{Mx}: x_j -> prod_i x_i^{M[i][j]}
        monomial_images = {xs[j]: sympy.Mul(*(xs[i] ** m[i][j]
                                              for i in range(rank)))
                           for j in range(rank)}
        assert same(a.act_matrix(m), sa.subs(monomial_images,
                                             simultaneous=True))
        # polynomial substitution x_i -> sum_j M[j][i] x_j
        p = TorusAlgebraElement(rank, {
            tuple(rng.randint(0, 2) for _ in range(rank)): rand_laurent(
                rng, nvars, 2) for _ in range(3)})
        linear_images = {xs[i]: sum(m[j][i] * xs[j] for j in range(rank))
                         for i in range(rank)}
        assert same(p.substitute(m), _sympy_form(sympy, p, nvars).subs(
            linear_images, simultaneous=True))


def test_exponent_past_packed_range_raises():
    top = TorusAlgebraElement(2, {(MAX_EXP, -MAX_EXP): 1})
    assert list(top.monomials(0)) == [((MAX_EXP, -MAX_EXP), (), 1)]
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
    """(root, coroot) with <root, coroot> = 2, the coroot all even when
    ``halvable``: x -> x - <x, coroot> root is then a lattice reflection."""
    scale = 2 if halvable else 1
    while True:
        root = tuple(rng.randint(-2, 2) for _ in range(rank))
        half = tuple(rng.randint(-3, 3) for _ in range(rank))
        if scale * sum(map(mul, root, half)) == 2:
            return root, tuple(scale * a for a in half)


def test_reflect_telescope_solves_bernstein_lusztig():
    # s(c) is act_matrix of the reflection; D_x (1 - theta_{-step}) =
    # theta_x - theta_{x - m step}, m = <x, coroot> (halved, with a doubled
    # step, for an even coroot), determines D_x in the Laurent ring; the
    # factor and the bracket multiply through
    rng = random.Random(1989)
    rank, nvars = 2, 1
    one = TorusAlgebraElement.theta((0,) * rank, 1)
    for trial in range(40):
        halvable = bool(trial % 2)
        root, coroot = _reflection(rng, rank, halvable)
        step = tuple(2 * a for a in root) if halvable else root
        c = rand_tae(rng, rank, nvars, nterms=4)
        cs, d = c.reflect_telescope(root, coroot, halvable, one, None)
        matrix = tuple(tuple(int(i == j) - root[i] * coroot[j]
                             for j in range(rank)) for i in range(rank))
        image = c.act_matrix(matrix)
        assert cs == image and cs.bound == image.bound
        # bound(c) + max|m| max|step| = bound(c) + max|n| max|root|
        reach = max(abs(sum(map(mul, x, coroot)))
                    for x, _, _ in c.monomials(nvars))
        assert d.bound == c.bound + reach * max(map(abs, root))
        expect = TorusAlgebraElement(rank)
        for x, e, v in c.monomials(nvars):
            n = sum(map(mul, x, coroot))
            m = n // 2 if halvable else n
            mono = TorusAlgebraElement(rank, {x: LaurentZ.monomial(nvars, e, v)})
            expect = expect + mono - mono.shift(tuple(-m * s for s in step))
        assert d * (one - one.shift(tuple(-s for s in step))) == expect
        factor = rand_tae(rng, rank, nvars, nterms=2)
        bracket = TorusAlgebraElement(rank, {(0,) * rank:
                                             rand_laurent(rng, nvars, 2)})
        assert c.reflect_telescope(root, coroot, halvable, factor, None) \
            == (cs, d * factor)
        assert c.reflect_telescope(root, coroot, halvable, factor, bracket) \
            == (cs, d * factor + cs * bracket)


def test_reflect_telescope_past_packed_range_raises():
    one = TorusAlgebraElement.theta((0, 0), 1)
    # s x = x - <x, (2, 1)> (1, 0) sends (h, h) to (-2h, h), past MAX_EXP
    h = MAX_EXP // 2 + 1
    c = TorusAlgebraElement(2, {(h, h): 1})
    with pytest.raises(PackedRangeError):
        c.act_matrix(((-1, -1), (0, 1)))
    with pytest.raises(PackedRangeError):
        c.reflect_telescope((1, 0), (2, 1), False, one, None)
    # the image fits, D_x times the factor holds z^(MAX_EXP + 1)
    zbracket = TorusAlgebraElement(2, {(0, 0): z_bracket(1, 1, 1)})
    ztop = LaurentZ.var_power(1, 1, MAX_EXP)
    c = TorusAlgebraElement(2, {(1, 0): ztop})
    with pytest.raises(PackedRangeError):
        c.reflect_telescope((1, -1), (1, -1), False, zbracket, None)
    # <x, coroot> = 0: only the bracket term passes the range
    c = TorusAlgebraElement(2, {(1, 1): ztop})
    c.reflect_telescope((1, -1), (1, -1), False, one, None)
    with pytest.raises(PackedRangeError):
        c.reflect_telescope((1, -1), (1, -1), False, one, zbracket)
