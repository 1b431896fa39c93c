"""Invariant suites shared by the test suite and the `check` command.

Every suite returns a list of (name, ok, detail) triples; the CLI turns
them into a table, pytest asserts them individually.  All arithmetic is
exact; randomness is seeded.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from .coeffs import LaurentZ, TorusAlgebraElement
from .hecke import (AffineDescriptor, GradedElement, HeckeElement,
                    affine_to_graded, bernstein_divide, graded_multiply,
                    im_involution, is_central, multiply, multiply_crossed,
                    quotient_z1, spread_invariant, symmetrize)
from .root_data import (RootDatum, build_classical, merge_components, product,
                        reflect, vneg)
from .weyl import (Cocycle, ExtendedGroup, ExtendedWeylElement, RGroup,
                   cone_classify, mat_apply, min_coset_reps,
                   stabilizer_of_point)

Result = Tuple[str, bool, str]


# ---------------------------------------------------------------------------
# Test descriptors
# ---------------------------------------------------------------------------

def _swap_blocks_matrix(k: int):
    """Permutation of ZZ^{2k} exchanging the two k-blocks."""
    n = 2 * k
    return tuple(tuple(1 if j == (i + k) % n else 0 for j in range(n))
                 for i in range(n))


def standard_descriptors() -> Dict[str, AffineDescriptor]:
    """The fixed descriptor zoo used by the relation suites."""
    out: Dict[str, AffineDescriptor] = {}
    # name: (family, rank, lambda seeds, lambda* seeds); B1 is A1 with a
    # halvable coroot (alpha^vee = 2 e1)
    for name, (fam, n, lam, lam_star) in {
            "A1": ("A", 1, {(1, -1): 2}, {}),
            "BC1": ("BC", 1, {(1,): 3}, {(1,): 1}),
            "B1": ("B", 1, {(1,): 2}, {(1,): 1}),
            "A2": ("A", 2, {(1, -1, 0): 1}, {}),
            "B2": ("B", 2, {(1, -1): 1, (0, 1): 2}, {(0, 1): 1}),
            "BC2": ("BC", 2, {(1, -1): 1, (1, 0): 3}, {(1, 0): 2})}.items():
        rd = build_classical(fam, n)
        w = ExtendedGroup(rd)
        out[name] = AffineDescriptor(
            rd, w, spread_invariant(rd, w, lam),
            spread_invariant(rd, w, lam_star), Cocycle.trivial(("e",)))

    # A1 x A1 swapped by a Z/2 diagram group; one shared z-variable.
    a1a1 = merge_components(product(build_classical("A", 1),
                                    build_classical("A", 1)),
                            {1: 1, 2: 1}, 1)
    swap = _swap_blocks_matrix(2)
    rg = RGroup(("e", "g"), {"e": tuple(tuple(int(i == j) for j in range(4))
                                        for i in range(4)), "g": swap},
                {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g",
                 ("g", "g"): "e"})
    for tag, sign in (("trivial", 1), ("twisted", -1)):
        w = ExtendedGroup(a1a1, rg)
        cocycle = Cocycle(("e", "g"), {("e", "e"): 1, ("e", "g"): 1,
                                       ("g", "e"): 1, ("g", "g"): sign})
        out["A1xA1-%s" % tag] = AffineDescriptor(
            a1a1, w, spread_invariant(a1a1, w, {(1, -1, 0, 0): 2}), {},
            cocycle)
    return out


def random_element(desc: AffineDescriptor, rng: random.Random,
                   nterms: int = 2, max_length: int | None = None
                   ) -> HeckeElement:
    """Sparse random element with small supports and coefficients.

    ``max_length`` bounds the Weyl-word length of the basis elements,
    which keeps fuzzing affordable on large assembled descriptors.
    """
    els = desc.wext.elements()
    if max_length is not None:
        els = [g for g in els
               if desc.wext.weyl.length(g.weyl) <= max_length]
    terms: Dict[ExtendedWeylElement, TorusAlgebraElement] = {}
    for _ in range(nterms):
        g = rng.choice(els)
        x = tuple(rng.randint(-2, 2) for _ in range(desc.rd.rank))
        ze = tuple(rng.randint(-1, 1) for _ in range(desc.d))
        c = rng.choice([-2, -1, 1, 2])
        t = TorusAlgebraElement(desc.rd.rank,
                                {x: LaurentZ.monomial(desc.d, ze, c)})
        terms[g] = terms[g] + t if g in terms else t
    return HeckeElement(terms)


# ---------------------------------------------------------------------------
# Relation suites
# ---------------------------------------------------------------------------

def check_quadratic(desc: AffineDescriptor) -> bool:
    """(N_s + z^-lambda)(N_s - z^lambda) = 0 for every simple reflection."""
    for info in desc.simple_info:
        ns = desc.n_simple(info.index)
        zneg, zpos = (desc.unit().scale(desc.zmonomial(tuple(
            e if j + 1 == info.zvar else 0 for j in range(desc.d))))
            for e in (-info.lam, info.lam))
        if multiply(desc, ns + zneg, ns - zpos):
            return False
    return True


def check_bernstein(desc: AffineDescriptor, rng: random.Random,
                    samples: int = 50) -> bool:
    """theta_x N_s - N_s theta_{s x} equals the closed-form right-hand
    side built directly from bernstein_divide."""
    rank = desc.rd.rank
    xs = [tuple(1 if k == i else 0 for k in range(rank)) for i in range(rank)]
    xs += [tuple(rng.randint(-3, 3) for _ in range(rank))
           for _ in range(samples)]
    one = desc.scalar_one()
    for info in desc.simple_info:
        ns = desc.n_simple(info.index)
        for x in xs:
            sx = reflect(x, info.root.vector, info.root.coroot)
            lhs = multiply(desc, desc.theta_elem(x), ns) - \
                multiply(desc, ns, desc.theta_elem(sx))
            div = bernstein_divide(x, info.root, info.halvable, one)
            coeff = div.scale(desc.zbracket(info.zvar, info.lam))
            if info.halvable:
                coeff = coeff + div.shift(vneg(info.root.vector)).scale(
                    desc.zbracket(info.zvar, info.lam_star))
            rhs = HeckeElement({desc.wext.identity: coeff})
            if lhs != rhs:
                return False
    return True


def _braid_order(desc: AffineDescriptor, i: int, j: int) -> int:
    """Order of s_i s_j, walked on the table's generator permutations."""
    t = desc.wext.table
    si, sj = t.perms[i], t.perms[j]
    k, p = 1, si[sj[t.identity]]
    while p != t.identity:
        p = si[sj[p]]
        k += 1
        if k > 8:
            raise RuntimeError("braid order out of range")
    return k


def check_braid(desc: AffineDescriptor) -> bool:
    """Alternating products of m_st factors agree for all simple pairs."""
    n = len(desc.simple_info)
    for i in range(n):
        for j in range(i + 1, n):
            m = _braid_order(desc, i, j)
            left = right = desc.unit()
            for k in range(m):
                left = multiply(desc, left,
                                desc.n_simple(i if k % 2 == 0 else j))
                right = multiply(desc, right,
                                 desc.n_simple(j if k % 2 == 0 else i))
            if left != right:
                return False
    return True


def check_associativity(desc: AffineDescriptor, rng: random.Random,
                        triples: int, max_length: int | None = None) -> bool:
    for _ in range(triples):
        a, b, c = (random_element(desc, rng, max_length=max_length)
                   for _ in range(3))
        if multiply(desc, multiply(desc, a, b), c) != \
                multiply(desc, a, multiply(desc, b, c)):
            return False
    return True


def check_center(desc: AffineDescriptor) -> bool:
    """Orbit sums of lattice generators, tensored with a z-monomial, are
    central; a bare theta generator is not (when it has a nontrivial orbit)."""
    rank = desc.rd.rank
    for i in range(rank):
        x = tuple(1 if k == i else 0 for k in range(rank))
        sym = symmetrize(desc, x)
        zmono = desc.zmonomial(tuple(1 if j == 0 else 0 for j in range(desc.d)))
        if not is_central(desc, sym.scale(zmono)):
            return False
        if not is_central(desc, sym):
            return False
    return True


def check_degeneration(desc: AffineDescriptor) -> bool:
    """At z = 1 the multiplication agrees with the independently built
    crossed product O(T) x| ZZ[W_ext, cocycle] on all generator pairs."""
    q1 = quotient_z1(desc)
    gens = [q1.theta_elem(tuple(1 if k == i else 0 for k in range(q1.rd.rank)))
            for i in range(q1.rd.rank)]
    gens += [q1.n_simple(i) for i in range(len(q1.simple_info))]
    gens += [q1.n_gamma(l) for l in q1.wext.rgroup.labels]
    for a in gens:
        for b in gens:
            if multiply(q1, a, b) != multiply_crossed(q1, a, b):
                return False
    return True


# ---------------------------------------------------------------------------
# Graded / IM suite
# ---------------------------------------------------------------------------

def graded_test_descriptors(descs: Dict[str, AffineDescriptor]):
    """Graded descriptors derived from the affine zoo at small points."""
    out = {}
    for name, desc in descs.items():
        rank = desc.rd.rank
        out[name + "@1"] = affine_to_graded(desc, (0,) * rank, 1)
        if name in ("B2", "BC2"):
            out[name + "@(1,1)/2"] = affine_to_graded(desc, (1, 1), 2)
        if name == "BC1":
            out[name + "@(1)/2"] = affine_to_graded(desc, (1,), 2)
    return out


def random_graded(gd, rng: random.Random, nterms: int = 2) -> GradedElement:
    keys = [ExtendedWeylElement(u, l) for u in gd.weyl.enumerate()
            for l in gd.diagram_matrices]
    terms = {}
    for _ in range(nterms):
        k = rng.choice(keys)
        mono = tuple(rng.randint(0, 2) for _ in range(gd.rd.rank))
        re = tuple(rng.randint(0, 1) for _ in range(gd.d))
        c = rng.choice([-2, -1, 1, 2])
        t = TorusAlgebraElement(gd.rd.rank,
                                {mono: LaurentZ.monomial(gd.d, re, c)})
        terms[k] = terms[k] + t if k in terms else t
    return GradedElement(terms)


def check_im(gd, rng: random.Random, pairs: int) -> bool:
    for _ in range(pairs):
        a, b = random_graded(gd, rng), random_graded(gd, rng)
        if im_involution(gd, graded_multiply(gd, a, b)) != \
                graded_multiply(gd, im_involution(gd, a), im_involution(gd, b)):
            return False
        if im_involution(gd, im_involution(gd, a)) != a:
            return False
    return True


# ---------------------------------------------------------------------------
# Minimal-coset and cone-identity sampling suite
# ---------------------------------------------------------------------------

def coset_cone_cases() -> List[Tuple[str, RootDatum, Tuple[int, ...]]]:
    """(ambient datum, order-2 point) pairs whose reflection stabilizers
    drive the minimal-coset and cone identities."""
    return [("%s%d@%s" % (fam, n, pt), rd, pt) for fam, n, pts in (
        ("B", 2, ((1, 0), (1, 1))), ("B", 3, ((1, 0, 0), (1, 1, 0), (1, 1, 1))),
        ("A", 3, ((1, 0, 0, 0), (1, 1, 0, 0))))
        for rd in [build_classical(fam, n)] for pt in pts]


def _random_vector(rng: random.Random, rank: int) -> Tuple[int, ...]:
    """Coordinates n / d with 1 <= d <= 6, times 60, the lcm of every d
    that can be drawn: an integer vector on the same ray, as cones see it."""
    return tuple(rng.randint(-8, 8) * (60 // rng.randint(1, 6))
                 for _ in range(rank))


def check_coset_cones(name: str, rd: RootDatum, point: Tuple[int, ...],
                      rng: random.Random, samples: int = 1000
                      ) -> List[Result]:
    """Minimal coset representatives and both cone identities at one case."""
    group = ExtendedGroup(rd)
    stab = stabilizer_of_point(group, point, 2)
    sub = stab.subsystem
    # the R-group is trivial: the action matrices are W in matrix order
    weyl = list(map(group.table.action, range(len(group.table.labels))))
    rep_ids = min_coset_reps(group, stab.reflection_part)
    reps = [weyl[w] for w in rep_ids]

    # representatives are exactly {w : w(R_t+) subset R+}
    pos_sub = [r.vector for r in sub.positive_roots]
    charac = {w for w, m in enumerate(weyl)
              if all(rd.is_positive(mat_apply(m, v)) for v in pos_sub)}
    ok_reps = charac == set(rep_ids)

    ok_b = True
    ok_c = True
    sub_simple_coroots = [s.coroot for s in sub.simple_roots]
    for k in range(samples):
        if k % 3 == 0 or not sub_simple_coroots:
            x = _random_vector(rng, rd.rank)
        elif k % 3 == 1:
            # biased sample inside the subsystem antidominant cone
            # coefficients -n / d with 1 <= d <= 3, times their lcm 6
            x = tuple(-sum(rng.randint(0, 4) * (6 // rng.randint(1, 3)) * c[i]
                           for c in sub_simple_coroots) for i in range(rd.rank))
            x = mat_apply(rng.choice(reps), x)
        else:
            x = _random_vector(rng, rd.rank)
            x = mat_apply(rng.choice(weyl), x)
        in_sub = cone_classify(sub, x)
        in_union = any(cone_classify(rd, mat_apply(m, x)).dominant
                       for m in reps)
        if in_sub.dominant != in_union:
            ok_b = False
            break
        all_minus = all(cone_classify(rd, mat_apply(m, x)
                                      ).antidominant_obtuse for m in reps)
        if in_sub.antidominant_obtuse != all_minus:
            ok_c = False
            break
    return [
        ("cosets/%s: unique minimal representatives" % name, ok_reps,
         "%d cosets" % len(reps)),
        ("cone-dominant/%s: union over representatives" % name, ok_b,
         "%d samples" % samples),
        ("cone-obtuse/%s: intersection over representatives" % name, ok_c,
         "%d samples" % samples),
    ]


# ---------------------------------------------------------------------------
# Top-level suite runner
# ---------------------------------------------------------------------------

def run_all(seed: int = 0, triples: int = 200, im_pairs: int = 100,
            cone_samples: int = 1000) -> List[Result]:
    results: List[Result] = []
    descs = standard_descriptors()
    for name, desc in descs.items():
        rng = random.Random(seed)
        results.append(("quadratic/%s" % name, check_quadratic(desc), ""))
        results.append(("bernstein/%s" % name,
                        check_bernstein(desc, rng), "50 samples/root"))
        results.append(("braid/%s" % name, check_braid(desc), ""))
        results.append(("associativity/%s" % name,
                        check_associativity(desc, rng, triples),
                        "%d triples" % triples))
        results.append(("degeneration-z1/%s" % name,
                        check_degeneration(desc), "generator pairs"))
        if desc.rd.rank <= 3:
            results.append(("center/%s" % name, check_center(desc), ""))
    for name, gd in graded_test_descriptors(descs).items():
        rng = random.Random(seed)
        results.append(("im-involution/%s" % name, check_im(gd, rng, im_pairs),
                        "%d pairs" % im_pairs))
    for name, rd, pt in coset_cone_cases():
        rng = random.Random(seed)
        results.extend(check_coset_cones(name, rd, pt, rng, cone_samples))
    return results
