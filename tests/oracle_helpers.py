"""Shared independent oracles and test-only helpers."""

import importlib.util
import itertools
import math
import pathlib
import random
import resource
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from heckealg import hecke
from heckealg.checks import random_graded
from heckealg.coeffs import TorusAlgebraElement, monomial_groups, settle
from heckealg.hecke import HeckeElement, HeckeError, graded_multiply
from heckealg.params import ParameterError
from heckealg.spectra import _commutation_rows, extended_quotient_count
from heckealg.root_data import (Root, RootDatum, build_classical, pairing,
                                reflect, subdatum, vadd, vscale, vsub)
from heckealg.weyl import (Cocycle, ExtendedGroup, ExtendedWeylElement,
                           RGroup, WeylElement, WeylError, identity_matrix,
                           mat_apply, mat_mul, mat_transpose, rref)


def run_capped(body, seconds=120, mib=1024):
    """Run the module-level function ``body`` of a test module in a child
    interpreter whose address space is capped at ``mib`` MiB, so that a
    step that outgrows its range check fails with MemoryError at once
    instead of filling the machine's memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (mib << 20, mib << 20))

    paths = [str(pathlib.Path(__file__).resolve().parent),
             str(pathlib.Path(hecke.__file__).resolve().parents[1])]
    code = "import sys; sys.path[:0] = %r; import %s as m; m.%s()" % (
        paths, body.__module__, body.__name__)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=seconds, preexec_fn=cap)
    assert proc.returncode == 0, proc.stderr


def monomials(c, nvars):
    """(x, e, scalar) for every term of c, sorted: the lattice exponents,
    the ``nvars`` z- (or r-) exponents and the scalar, as
    ``coeffs.monomial_groups`` gives them."""
    return [(exps[:c.rank], exps[c.rank:], v)
            for exps, ((_, v),) in monomial_groups([c], nvars)]


def load_bench_module(name):
    """``bench/<name>.py`` loaded as a module, to read from; the tests
    write nothing under ``bench/``."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / (
        name + ".py")
    spec = importlib.util.spec_from_file_location("bench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def root_lattice_a2():
    """A2 with the simple roots as basis: roots +-(1,0), +-(0,1),
    +-(1,1), coroots read off the Cartan matrix."""
    coroots = {(1, 0): (2, -1), (0, 1): (-1, 2), (1, 1): (1, 1)}
    return RootDatum(2, [Root(tuple(s * x for x in v),
                              tuple(s * x for x in c), 1)
                         for v, c in coroots.items() for s in (1, -1)], 1)


def mat_inv(m):
    """Exact inverse of an integer matrix with det +-1, by row reduction
    over QQ; WeylError for any other matrix."""
    n = len(m)
    rows, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                         for i, row in enumerate(m)], n)
    if len(pivots) < n or any(x.denominator != 1
                              for row in rows for x in row[n:]):
        raise WeylError("matrix %r is not invertible over ZZ" % (m,))
    return tuple(tuple(int(x) for x in row[n:]) for row in rows)


def fraction_rref(rows, width):
    """Reference reduced row echelon form, eliminating over ``Fraction``:
    each pivot row is divided by its pivot before it clears its column."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [x / mat[r][col] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
    return mat[:len(pivots)], pivots


def reflection_matrix(alpha, coroot):
    """The dense oracle of a reflection: the rows of x -> x - <x, coroot>
    alpha on column vectors, entry (i, j) = delta_ij - alpha_i coroot_j."""
    n = len(alpha)
    return tuple(tuple(int(i == j) - alpha[i] * coroot[j] for j in range(n))
                 for i in range(n))


def simple_reflections(rd):
    """The dense matrices of the simple reflections, in ``simple_roots``
    order."""
    return tuple(reflection_matrix(s.vector, s.coroot)
                 for s in rd.simple_roots)


def word_matrix(rd, word):
    """The product s_{i_1} ... s_{i_m} of simple reflection matrices."""
    simple = simple_reflections(rd)
    m = identity_matrix(rd.rank)
    for i in word:
        m = mat_mul(m, simple[i])
    return m


def multiply_by_words(desc, a, b):
    """The Hecke product term by term: for each term c N_w N_gamma of a,
    N_gamma b and then one N_s step per letter of the recorded word of w,
    read right to left, with nothing shared between terms; each partial
    product is settled and multiplied by c as an element."""
    wg, table = desc.wext.weyl, desc.wext.table
    b_ids = {table.index[key]: c for key, c in b.terms.items()}
    out = {}
    for key, c in a.terms.items():
        t = hecke._ngamma_mul(desc, key.diagram, b_ids)
        for i in reversed(wg.reduced_word(key.weyl)):
            t = hecke._ns_mul(desc, i, t)
        for u, c2 in settle(t, c).items():
            out[u] = out[u] + c * c2 if u in out else c * c2
    return desc.element({table.elements[u]: c for u, c in out.items()})


# ---------------------------------------------------------------------------
# The polynomial representation of the affine algebra
# ---------------------------------------------------------------------------
#
# Polynomials in O(T) (x) ZZ[z^{+-1}] are plain dicts {(x, e): int} of
# lattice and z-exponent tuples.  The module is induced from the character
# N_s -> z^lambda, N_gamma -> 1 of the finite part (Lusztig, JAMS 2, 1989,
# section 4; Macdonald, Affine Hecke Algebras and Orthogonal Polynomials,
# ch. 4): theta_x acts by multiplication, N_gamma by theta_x -> i^k(gamma)
# theta_{gamma x}, and N_s by
#     theta_x -> z^lambda theta_{s x} + D_x ((z^lambda - z^-lambda)
#                + theta_{-alpha} (z^lambda* - z^-lambda*)),
# D_x (theta_0 - theta_{-alpha}) = theta_x - theta_{s x}, the second summand
# and a doubled step only for a halvable coroot.  The scalars i^k(gamma)
# satisfy i^k(a) i^k(b) = cocycle(a, b) i^k(ab), so N_a N_b = cocycle(a, b)
# N_ab holds: all 1 for a trivial cocycle, N_g -> i g for the twisted
# A1 x A1.  Everything is read from the root datum, the cocycle and the
# parameter maps, not from the N_s tables of the product.  ``poly_act``
# works over ZZ[i]: a polynomial there is a pair (real part, imaginary
# part) of the dicts above.


def _poly_add(out, key, c):
    s = out.get(key, 0) + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def poly_mul(f, g):
    out = {}
    for (x, e), v in f.items():
        for (y, d), w in g.items():
            _poly_add(out, (vadd(x, y), vadd(e, d)), v * w)
    return out


def poly_of(c, nvars):
    """A coefficient of a symbolic element as a polynomial."""
    out = {}
    for x, e, v in monomials(c, nvars):
        _poly_add(out, (x, e), v)
    return out


def _telescope(x, root, coroot, halvable):
    """D_x as {lattice vector: int}: theta_x + theta_{x - step} + .. over
    n = <x, coroot> terms (n/2 with step 2 alpha for a halvable coroot),
    minus the mirrored sum above x for n < 0."""
    n = pairing(x, coroot)
    step = root
    if halvable:
        assert n % 2 == 0, "odd pairing with a halvable coroot"
        n, step = n // 2, vscale(root, 2)
    if n >= 0:
        return {vsub(x, vscale(step, k)): 1 for k in range(n)}
    return {vadd(x, vscale(step, k)): -1 for k in range(1, -n + 1)}


def poly_ns(desc, i, f):
    """N_{s_i} on the polynomial f."""
    root = desc.rd.simple_roots[i]
    alpha, coroot = root.vector, root.coroot
    lam = desc.lam[alpha]
    zero = (0,) * desc.rd.rank
    unit = tuple(int(k == root.component_index - 1) for k in range(desc.d))
    brackets = [(zero, lam)]
    if root.halvable:
        brackets.append((vscale(alpha, -1), desc.lam_star[alpha]))
    out = {}
    for (x, e), v in f.items():
        _poly_add(out, (reflect(x, alpha, coroot), vadd(e, vscale(unit, lam))),
                  v)
        for y, sign in _telescope(x, alpha, coroot, root.halvable).items():
            for shift, m in brackets:
                for power in (m, -m):
                    _poly_add(out, (vadd(y, shift),
                                    vadd(e, vscale(unit, power))),
                              v * sign * (1 if power == m else -1))
    return out


def _cocycle_powers(desc):
    """{label: k} with i^k(a) i^k(b) = cocycle(a, b) i^k(ab) for all labels,
    the first such k in {0, 1, 2, 3}^R."""
    rg, cocycle = desc.wext.rgroup, desc.cocycle
    labels = rg.labels
    for ks in itertools.product(range(4), repeat=len(labels)):
        k = dict(zip(labels, ks))
        if all((k[a] + k[b] - k[rg.mult(a, b)]) % 4 == (1 - cocycle(a, b))
               for a in labels for b in labels):
            return k
    raise AssertionError("the cocycle has no character i^k")


def _times_i(f, k):
    """i^k f for a pair f = (real part, imaginary part)."""
    re, im = f
    for _ in range(k % 4):
        re, im = {key: -v for key, v in im.items()}, re
    return re, im


def poly_act(desc, elem, f):
    """The element ``elem`` of a symbolic affine descriptor on the ZZ[i]
    polynomial f = (real part, imaginary part): sum c_w N_w N_gamma, with
    N_w the product of the N_s along a reduced word of w found by
    descents."""
    rd = desc.rd
    powers = _cocycle_powers(desc)
    out = ({}, {})
    for key, c in elem.terms.items():
        matrix = desc.wext.rgroup.matrix(key.diagram)
        g = _times_i(tuple({(mat_apply(matrix, x), e): v
                            for (x, e), v in part.items()} for part in f),
                     powers[key.diagram])
        for i in reversed(descent_word(rd, key.weyl.matrix)):
            g = tuple(poly_ns(desc, i, part) for part in g)
        for acc, part in zip(out, g):
            for k, v in poly_mul(poly_of(c, desc.d), part).items():
                _poly_add(acc, k, v)
    return out


# ---------------------------------------------------------------------------
# The polynomial representation of the graded algebra
# ---------------------------------------------------------------------------
#
# The graded algebra acts on S(t^*) (x) ZZ[r], as plain dicts {(m, e): int}
# of exponent tuples of the coordinates x_i and of r_1 .., by the module
# induced from the character N_s -> 1, N_gamma -> i^k(gamma) (Lusztig,
# JAMS 2, 1989, section 4): xi acts by multiplication, N_gamma by the
# linear substitution x_i -> sum_j M[j][i] x_j of its matrix, and N_s by
# the Demazure-Lusztig operator
#     f -> s f + k(alpha) r_j Delta(f),   Delta(f) = (f - s f) / alpha,
# with Delta computed by the twisted Leibniz rule Delta(x_i) = coroot_i,
# Delta(f g) = Delta(f) g + (s f) Delta(g), not by division.


def _graded_linear_image(matrix, i, nr):
    """The image of x_i under the substitution by ``matrix``."""
    rank = len(matrix)
    return {(tuple(int(k == j) for k in range(rank)), (0,) * nr): matrix[j][i]
            for j in range(rank) if matrix[j][i]}


def graded_substitute(matrix, f, nr):
    """f with x_i -> sum_j matrix[j][i] x_j, r untouched."""
    rank = len(matrix)
    images = [_graded_linear_image(matrix, i, nr) for i in range(rank)]
    out = {}
    for (m, e), v in f.items():
        prod = {((0,) * rank, e): v}
        for i, a in enumerate(m):
            for _ in range(a):
                prod = poly_mul(prod, images[i])
        for k, w in prod.items():
            _poly_add(out, k, w)
    return out


def graded_demazure(root, f, nr):
    """Delta(f) = (f - s f) / alpha by the twisted Leibniz rule, peeling
    one variable off each monomial at a time."""
    rank = len(root.vector)
    refl = tuple(tuple(int(i == j) - root.vector[i] * root.coroot[j]
                       for j in range(rank)) for i in range(rank))
    out = {}
    for (m, e), v in f.items():
        if not any(m):
            continue
        i = next(i for i, a in enumerate(m) if a)
        rest = {(tuple(a - int(k == i) for k, a in enumerate(m)), e): v}
        # Delta(x_i rest) = coroot_i rest + s(x_i) Delta(rest)
        terms = [{k: root.coroot[i] * w for k, w in rest.items()},
                 poly_mul(_graded_linear_image(refl, i, nr),
                          graded_demazure(root, rest, nr))]
        for part in terms:
            for k, w in part.items():
                _poly_add(out, k, w)
    return out


def graded_ns(gd, i, f):
    """N_{s_i} on the polynomial f of the graded descriptor ``gd``."""
    root = gd.rd.simple_roots[i]
    nr = gd.d
    r = tuple(int(k == root.component_index - 1) for k in range(nr))
    out = graded_substitute(reflection_matrix(root.vector, root.coroot), f,
                            nr)
    for k, w in poly_mul({((0,) * gd.rd.rank, r): gd.k[root.vector]},
                         graded_demazure(root, f, nr)).items():
        _poly_add(out, k, w)
    return out


def graded_act(gd, elem, f):
    """The element ``elem`` of a graded descriptor on the ZZ[i] polynomial
    f = (real part, imaginary part): sum c_w N_w N_gamma, with N_w the
    product of the N_s along a reduced word of w found by descents."""
    powers = _cocycle_powers(gd)
    out = ({}, {})
    for key, c in elem.terms.items():
        matrix = gd.wext.rgroup.matrix(key.diagram)
        g = _times_i(tuple(graded_substitute(matrix, part, gd.d)
                           for part in f), powers[key.diagram])
        for i in reversed(descent_word(gd.rd, key.weyl.matrix)):
            g = tuple(graded_ns(gd, i, part) for part in g)
        for acc, part in zip(out, g):
            for k, v in poly_mul(poly_of(c, gd.d), part).items():
                _poly_add(acc, k, v)
    return out


def root_count_length(rd, matrix):
    """Number of reduced positive roots the matrix sends to negative roots."""
    return sum(not rd.is_positive(mat_apply(matrix, r.vector))
               for r in rd.reduced_positive)


def descent_word(rd, matrix):
    """Reduced word (0-based) by peeling off the least right descent:
    w = w' s_i with i least such that w(alpha_i) < 0."""
    simple = simple_reflections(rd)
    word_rev = []
    m = matrix
    for _ in range(len(rd.reduced_positive) + 1):
        if m == identity_matrix(rd.rank):
            return tuple(reversed(word_rev))
        i = next(i for i, s in enumerate(rd.simple_roots)
                 if not rd.is_positive(mat_apply(m, s.vector)))
        m = mat_mul(m, simple[i])
        word_rev.append(i)
    raise AssertionError("descent loop did not terminate")


def weyl_finite_group(rd, extra_z2=False):
    """W(rd) (optionally x Z/2 via a central flip label) as a FiniteGroup
    factory together with its ExtendedGroup."""
    if extra_z2:
        rank = rd.rank
        flip = tuple(tuple(-1 if i == j else 0 for j in range(rank))
                     for i in range(rank))
        # -1 acts as an automorphism stabilizing positives only in rank 0;
        # instead use a label acting trivially (abstract Z/2 factor)
        rg = RGroup(("e", "c"), {"e": identity_matrix(rank),
                                 "c": identity_matrix(rank)},
                    {("e", "e"): "e", ("e", "c"): "c", ("c", "e"): "c",
                     ("c", "c"): "e"})
        return ExtendedGroup(rd, rg)
    return ExtendedGroup(rd)


def all_subgroups(group):
    """All subgroups of a small finite group, by closure of subsets of a
    generating hull (exhaustive over subsets of the group)."""
    els = group.elements
    n = len(els)
    index = {g: i for i, g in enumerate(els)}
    subgroups = set()
    # grow subgroups by closing generator sets; for |G| <= 12 the subset
    # lattice is small enough to enumerate via generated closures
    seen = set()
    def closure(gens):
        out = {group.identity}
        frontier = list(gens)
        while frontier:
            x = frontier.pop()
            if x in out:
                continue
            out.add(x)
            for y in list(out):
                for z in (group.mult(x, y), group.mult(y, x)):
                    if z not in out:
                        frontier.append(z)
        # close fully
        changed = True
        while changed:
            changed = False
            for a in list(out):
                for b in list(out):
                    c = group.mult(a, b)
                    if c not in out:
                        out.add(c)
                        changed = True
        return frozenset(out)

    for r in range(0, 4):
        for gens in itertools.combinations(els, r):
            sub = closure(gens)
            subgroups.add(sub)
    return [sorted(s, key=lambda g: index[g]) for s in sorted(
        subgroups, key=lambda s: (len(s), sorted(index[g] for g in s)))]


def abelianization_mod2(group, elements):
    """Map each element to a vector over F_2 via its image in the
    elementary abelian quotient H / <squares, commutators>."""
    els = list(elements)
    index = {g: i for i, g in enumerate(els)}
    # build the subgroup generated by squares and commutators
    gens = []
    for a in els:
        gens.append(group.mult(a, a))
        for b in els:
            ab = group.mult(a, b)
            ba = group.mult(b, a)
            # commutator (ba)^{-1} (ab)
            inv = next(c for c in els if group.mult(c, ba) == group.identity)
            gens.append(group.mult(inv, ab))
    norm = {group.identity}
    frontier = [g for g in gens if g in index]
    while frontier:
        x = frontier.pop()
        if x in norm:
            continue
        add = {group.mult(x, y) for y in norm} | {x}
        for a in add:
            if a not in norm:
                norm.add(a)
                frontier.extend(group.mult(a, g) for g in gens)
    # quotient classes
    classes = {}
    reps = []
    for g in els:
        coset = frozenset(group.mult(g, h) for h in norm)
        if coset not in classes:
            classes[coset] = len(reps)
            reps.append(coset)
    k = len(reps)
    # identify the quotient with (Z/2)^m by choosing independent generators
    # (the quotient is elementary abelian); map class index -> bit vector
    import math
    m = int(math.log2(k)) if k else 0
    assert 2 ** m == k, "quotient must be elementary abelian"
    # pick generators greedily
    basis = []
    span = {classes[frozenset(group.mult(group.identity, h)
                              for h in norm)]: (0,) * m}
    # brute force: assign coordinates by building the group structure
    table = {}
    for c1 in range(k):
        g1 = next(iter(reps[c1]))
        for c2 in range(k):
            g2 = next(iter(reps[c2]))
            prod = group.mult(g1, g2)
            coset = next(c for c in classes
                         if prod in c)
            table[(c1, c2)] = classes[coset]
    coords = {0: None}
    # assign: find m independent classes
    chosen = []
    produced = {classes[next(c for c in classes if group.identity in c)]}
    order = sorted(range(k))
    for c in order:
        if c in produced:
            continue
        chosen.append(c)
        newly = set(produced)
        for s in produced:
            newly.add(table[(c, s)])
        produced = newly
        if len(chosen) == m:
            break
    vec = {}
    for bits in itertools.product((0, 1), repeat=len(chosen)):
        c = classes[next(cc for cc in classes if group.identity in cc)]
        for b, gen in zip(bits, chosen):
            if b:
                c = table[(gen, c)]
        vec[c] = bits
    def phi(g):
        coset = next(c for c in classes if g in c)
        return vec[classes[coset]]
    return phi, len(chosen)


def bilinear_cocycles(group, elements):
    """Test set of +-1 cocycles: (-1)^{B(pi(g), pi(h))} for F_2-bilinear
    forms B on the mod-2 abelianization (always 2-cocycles)."""
    phi, m = abelianization_mod2(group, elements)
    tables = []
    forms = [tuple()]  # trivial
    mats = []
    if m >= 1:
        mats.append(tuple((1 if (i == 0 and j == 0) else 0)
                          for i in range(m) for j in range(m)))
    if m >= 2:
        # alternating form on the first two coordinates
        mats.append(tuple((1 if (i == 0 and j == 1) else 0)
                          for i in range(m) for j in range(m)))
        mats.append(tuple((1 if (i == 0 and j == 1) or (i == 1 and j == 0)
                           else 0) for i in range(m) for j in range(m)))
    fns = [lambda g, h: 1]
    for mat in mats:
        def fn(g, h, mat=mat, m=m):
            vg, vh = phi(g), phi(h)
            s = sum(mat[i * m + j] * vg[i] * vh[j]
                    for i in range(m) for j in range(m))
            return -1 if s % 2 else 1
        fns.append(fn)
    return fns


def _valid_partition(side, parts):
    cnt = Counter(parts)
    if side == "Sp":
        return all(cnt[p] % 2 == 0 for p in cnt if p % 2 == 1)
    if side == "SO":
        return all(cnt[p] % 2 == 0 for p in cnt if p % 2 == 0)
    return True


def _partitions(total):
    def gen(rest, most):
        if rest == 0:
            yield ()
            return
        for p in range(min(rest, most), 0, -1):
            for tail in gen(rest - p, p):
                yield (p,) + tail
    return list(gen(total, total))


def _sub_multisets(parts):
    cnt = Counter(parts)
    keys = sorted(cnt)
    choices = [range(cnt[k] + 1) for k in keys]
    for combo in itertools.product(*choices):
        yield Counter({k: c for k, c in zip(keys, combo) if c})


def distinguished_bruteforce(side, parts):
    """A unipotent class is distinguished iff it lies in no proper Levi.

    In GL the Levis are GL_a x GL_b: any splitting of the partition into
    two nonempty multisets is a proper-Levi membership.  In Sp/SO the GL
    factors embed as v + v^*, so membership means lambda = mu + 2*nu with
    nu nonempty and mu valid for the same classical type.
    """
    cnt = Counter(parts)
    if side == "GL":
        for nu in _sub_multisets(parts):
            if nu and sum(nu.values()) < len(parts):
                return False
        return True
    for nu in _sub_multisets(parts):
        if not nu:
            continue
        mu = Counter(cnt)
        ok = True
        for k, c in nu.items():
            if mu[k] < 2 * c:
                ok = False
                break
            mu[k] -= 2 * c
        if not ok:
            continue
        rem = [k for k in mu.elements()]
        if _valid_partition(side, rem):
            return False
    return True


def count_twisted_irreps_by_member(group):
    """Number of cocycle-regular conjugacy classes, regularity tested at
    every element g against its centralizer, both found by brute force;
    AssertionError unless regularity is constant on each class."""
    mult, inv, coc = group.mult, group.inv, group.cocycle_fn
    regular = {g: all(coc(g, h) == coc(h, g) for h in group.elements
                      if mult(g, h) == mult(h, g))
               for g in group.elements}
    count, seen = 0, set()
    for g in group.elements:
        if g in seen:
            continue
        members = {mult(mult(h, g), inv(h)) for h in group.elements}
        assert {regular[x] for x in members} == {regular[g]}, \
            "cocycle-regularity is not a class function"
        seen |= members
        count += regular[g]
    return count


def partition_power(k, n):
    """[x^n] P(x)^k, P(x) = prod_{j >= 1} 1 / (1 - x^j), on integers: the
    number of k-tuples of partitions of total size n (Macdonald, Symmetric
    Functions and Hall Polynomials, ch. I)."""
    coeffs = [1] + [0] * n
    for j in range(1, n + 1):
        for _ in range(k):            # multiply by 1 / (1 - x^j)
            for i in range(j, n + 1):
                coeffs[i] += coeffs[i - j]
    return coeffs[n]


def closed_form_total(block_systems, order):
    """The total of ``count`` at the given order for blocks of type A, B, C
    or BC under a trivial R-group and cocycle, the product over blocks.

    The stabilizer of a point of (ZZ/N)^n is a product of symmetric groups
    S_m, one per residue class, for a type-A_{n-1} block, so the block
    gives [x^n] P^N.  For a type-B/C/BC_n block the residues with 2x = 0,
    k0 = 1 + [N even] of them, give W(B_m), whose classes are the
    bipartitions of m (Carter, Compositio Math. 25, 1972), and the other
    (N - k0) / 2 pairs {x, -x} give S_m: [x^n] P^(2 k0 + (N - k0) / 2)."""
    total = 1
    for family, m in block_systems:
        if family == "A":
            total *= partition_power(order, m + 1)
        else:
            k0 = 1 + (order % 2 == 0)
            total *= partition_power(2 * k0 + (order - k0) // 2, m)
    return total


def closed_form_orbit(block_systems, representative, order):
    """(stabilizer order, count) at one orbit of ``count`` under a trivial
    R-group and cocycle, for the blocks of ``closed_form_total``, whose
    coordinates follow one another in block order.  A type-A block gives
    prod m! and prod p(m) over the multiplicities m of its residues.  A
    type-B/C/BC block folds x to min(x, N - x); a fold v with 2v = 0 gives
    W(B_m), 2^m m! and p_2(m), and any other fold S_m, m! and p(m)."""
    stabilizer, count = 1, 1
    start = 0
    for family, m in block_systems:
        width = m + (family == "A")
        coords = representative[start:start + width]
        start += width
        if family != "A":
            coords = [min(x, order - x) for x in coords]
        for v, mult in Counter(coords).items():
            if family != "A" and 2 * v % order == 0:
                stabilizer *= 2 ** mult * math.factorial(mult)
                count *= partition_power(2, mult)
            else:
                stabilizer *= math.factorial(mult)
                count *= partition_power(1, mult)
    return stabilizer, count


def twisted_algebra_center_basis(group):
    """Exact basis (coefficient vectors over the group basis) of the
    centre of the twisted group algebra."""
    n = len(group.elements)
    rows, pivots = rref(_commutation_rows(group), n)
    basis = []
    for fcol in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[fcol] = Fraction(1)
        for row, pcol in zip(rows, pivots):
            vec[pcol] = -row[fcol]
        basis.append(vec)
    return basis


def is_in_character_lattice(report, x):
    """SL case: membership of a character in the quotient-torus lattice."""
    if report.character_lattice is None:
        return True
    w = report.character_lattice["constraint"]
    return sum(a * b for a, b in zip(w, x)) == 0


def check_graded_associativity(gd, rng, triples):
    """(ab)c == a(bc) for ``triples`` random triples of graded elements."""
    for _ in range(triples):
        a, b, c = (random_graded(gd, rng) for _ in range(3))
        if graded_multiply(gd, graded_multiply(gd, a, b), c) != \
                graded_multiply(gd, a, graded_multiply(gd, b, c)):
            return False
    return True


def b6_table_spot_checks():
    """Build the group table of W(B6), |W| = 46080, and check its longest
    element and some seeded products and inverses against matrices;
    returns the group."""
    group = ExtendedGroup(build_classical("B", 6))
    table = group.table
    assert len(table.elements) == 46080
    w0 = table.index[ExtendedWeylElement(WeylElement(tuple(
        tuple(-x for x in row) for row in identity_matrix(6))), "e")]
    assert table.lengths[w0] == 36 == max(table.lengths)
    assert table.inverse[w0] == w0 and table.mult(w0, w0) == table.identity
    rng = random.Random(6)
    for _ in range(50):
        g, h = rng.randrange(46080), rng.randrange(46080)
        assert table.action(table.mult(g, h)) == \
            mat_mul(table.action(g), table.action(h))
        assert mat_mul(table.action(g), table.action(table.inverse[g])) \
            == identity_matrix(6)
    return group


def b6_count_at_order_one(group, seconds):
    """Count W(B6) at order 1 on its built table: one orbit, the origin,
    whose stabilizer is all of W(B6) with its 65 classes (bipartitions of
    6), within the given seconds."""
    start = time.perf_counter()
    total, orbits = extended_quotient_count(
        group, Cocycle.trivial(("e",)), 1, [(0,) * 6])
    elapsed = time.perf_counter() - start
    assert (total, [(o.orbit_size, o.stabilizer_order, o.count)
                    for o in orbits]) == (65, [(1, 46080, 65)])
    assert elapsed < seconds, "count took %.2f s" % elapsed


@lru_cache(maxsize=None)
def _point_matrix(action):
    return mat_transpose(mat_inv(action))


def stabilizer_oracle(group, exponents, order):
    """``weyl.stabilizer_of_point`` on matrices, as (elements, reflection
    part, diagram part, root values): the stabilizer from each element's
    action matrix and translation, the reflection part closed on the table
    from the ids that ``index`` gives the subsystem's simple reflections,
    and the diagram part from the action matrices."""
    rd, rg, table = group.rd, group.rgroup, group.table
    x = tuple(e % order for e in exponents)
    actions = [mat_mul(g.weyl.matrix, rg.matrix(g.diagram))
               for g in table.elements]
    stab = []
    for i, (g, action) in enumerate(zip(table.elements, actions)):
        moved = mat_apply(_point_matrix(action), x)
        shift = [int(t * order) for t in rg.translations[g.diagram]]
        if tuple((a + s) % order for a, s in zip(moved, shift)) == x:
            stab.append(i)
    root_values = {}
    for r in rd.roots:
        pair = pairing(r.vector, x) % order
        if pair == 0:
            root_values[r.vector] = 1
        elif r.halvable and 2 * pair == order:
            root_values[r.vector] = -1
    subsystem = subdatum(rd, root_values)
    reflection_part = table.subgroup(
        table.index[ExtendedWeylElement(WeylElement(m), rg.identity)]
        for m in simple_reflections(subsystem))
    diagram_part = [
        g for g in stab
        if all(subsystem.is_positive(mat_apply(actions[g], s.vector))
               for s in subsystem.simple_roots)]
    return stab, reflection_part, diagram_part, root_values


def rgroup_oracle(labels, matrices, table, translations):
    """Whether ``RGroup`` must accept labels whose matrices and
    translations have the right shapes, checked on every pair and
    triple: the table has a label at every pair, e as its identity, an
    inverse for every label and is associative; the matrices multiply as
    the table; t(ab) = t(a) + P_a t(b) mod ZZ^rank, P_a = M_{a^-1}^T."""
    pairs = list(itertools.product(labels, repeat=2))
    t = table
    if any(t.get(p) not in matrices for p in pairs) or \
            any(t[("e", a)] != a or t[(a, "e")] != a for a in labels) or \
            any(t[(t[(a, b)], c)] != t[(a, t[(b, c)])]
                for a, b, c in itertools.product(labels, repeat=3)):
        return False
    inverse = {a: b for a, b in pairs if t[(a, b)] == "e"}
    if len(inverse) < len(labels):
        return False
    for a, b in pairs:
        if mat_mul(matrices[a], matrices[b]) != matrices[t[(a, b)]]:
            return False
        moved = mat_apply(mat_transpose(matrices[inverse[a]]),
                          translations[b])
        if any(Fraction(x + m - w).denominator != 1 for x, m, w in
               zip(translations[a], moved, translations[t[(a, b)]])):
            return False
    return True


def cocycle_oracle(values, labels, table):
    """Whether ``Cocycle.check`` must accept the +-1 table ``values`` on
    a group law: normalized, and the cocycle identity at every triple."""
    if any(values[("e", a)] != 1 or values[(a, "e")] != 1 for a in labels):
        return False
    return all(values[(a, b)] * values[(table[(a, b)], c)] ==
               values[(b, c)] * values[(a, table[(b, c)])]
               for a, b, c in itertools.product(labels, repeat=3))


def specialize_element(spec_desc, elem):
    """Map a symbolic element into the specialized algebra."""
    if spec_desc.z_values is None:
        raise HeckeError("target descriptor is not specialized")
    out = {}
    zvals = spec_desc.z_values
    for w, c in elem.terms.items():
        terms = {}
        for x, e, v in monomials(c, len(zvals)):
            terms[x] = terms.get(x, 0) + v * spec_desc.zmonomial(e)
        out[w] = TorusAlgebraElement(c.rank, terms)
    return HeckeElement(out)


def cuspidal_partition(side, d):
    """(2, 4, .., 2d) on the S side, (1, 3, .., 2d-1) on the O side."""
    if d < 0:
        raise ParameterError("d must be nonnegative")
    if side == "S":
        return tuple(2 * i for i in range(1, d + 1))
    if side == "O":
        return tuple(2 * i - 1 for i in range(1, d + 1))
    raise ParameterError("unknown side %r" % (side,))


def lambda_c_roundtrip(lam, lam_star, halvable):
    """(lambda, lambda*) -> (c, c*)."""
    if not halvable:
        if lam_star is not None:
            raise ParameterError("lambda* is undefined for non-halvable roots")
        return 2 * lam, None
    if lam_star is None:
        raise ParameterError("lambda* required for halvable roots")
    return lam + lam_star, lam - lam_star


def c_lambda_roundtrip(c, c_star, halvable):
    """(c, c*) -> (lambda, lambda*), inverse of lambda_c_roundtrip."""
    if not halvable:
        if c_star is not None:
            raise ParameterError("c* is undefined for non-halvable roots")
        if c % 2:
            raise ParameterError("c must be even for non-halvable roots")
        if c < 0:
            raise ParameterError("c must be nonnegative")
        return c // 2, None
    if c_star is None:
        raise ParameterError("c* required for halvable roots")
    if (c - c_star) % 2:
        raise ParameterError("c and c* must have equal parity")
    lam = (c + c_star) // 2
    lam_star = (c - c_star) // 2
    if lam < 0 or lam_star < 0:
        raise ParameterError("negative parameter from (c, c*) = (%d, %d)"
                             % (c, c_star))
    return lam, lam_star
