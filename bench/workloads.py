"""Job lists of the three benchmark workloads, generated from a seed.

A job is a label and a callable that runs public ``heckealg`` functions on
inputs generated here and returns whether the answer is correct.

Algebra elements have a fixed skeleton and seeded values.  The skeleton
(which group elements and which lattice vectors or monomials appear) is
a balanced design drawn once with ``SKELETON_SEED``: every group element
and coordinate value occurs equally often.  The ``--seed`` draws the
integer coefficients and the z-exponents.  The work of a product depends
mostly on the skeleton, so every seed gives nearly the same amount of
work and run-to-run spread comes from the program, not from the draw.
With a seeded skeleton the number of coefficient products of a pass
varied by 13% (quartile spread) between seeds.

Library functions are looked up through their modules at call time
(``hecke.multiply``, not a name bound at import), so that the traced run
sees every call.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Sequence

from heckealg import checks, cli, hecke, pipeline, spectra, weyl
from heckealg.coeffs import LaurentZ, TorusAlgebraElement
from heckealg.root_data import build_classical

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR / "data"
PINS_FILE = BENCH_DIR / "pins.json"

DEFAULT_SEED = 0
SKELETON_SEED = 20170112


class Job(NamedTuple):
    label: str
    run: Callable[[], bool]


# Count jobs: (datum, order) -> (total irreducibles, number of orbits).
# The totals are the values of the extended-quotient count when the
# benchmark was written; "sp3" is Sp_6 with a B3 datum (|W_ext| = 48),
# "gl4" is GL_4 with an A3 datum, "sl" the SL_4 datum with translations
# and a -1 cocycle.  sp3 at orders 2, 4 and 6 (totals 40, 65 and 98) is
# left out to keep a pass near 5 s; see README.md.
COUNT_PINS = {
    ("sp2-iwahori", 1): (2, 1), ("sp2-iwahori", 2): (4, 2),
    ("sp2-iwahori", 3): (3, 2), ("sp2-iwahori", 4): (5, 3),
    ("sp2-iwahori", 6): (6, 4),
    ("gl-a2", 1): (3, 1), ("gl-a2", 2): (10, 4), ("gl-a2", 3): (22, 10),
    ("gl-a2", 4): (40, 20),
    ("sl", 1): (4, 1), ("sl", 2): (8, 2), ("sl", 3): (6, 2),
    ("sl", 4): (10, 3), ("sl", 6): (12, 4),
    ("sp3", 1): (10, 1), ("sp3", 3): (22, 4),
    ("gl4", 1): (5, 1), ("gl4", 2): (20, 5),
}


# Jobs per pass.  "tiny" runs a few jobs of every kind, for the smoke
# tests; its affine triples are the first ones of the full design, so
# their pins apply.
SIZES = {
    "full": {
        "affine_triples": {"A2": 24, "B2": 12, "BC2": 12,
                           "A1xA1-twisted": 24},
        "bernstein_jobs": 4,
        "graded_triples": 10,
        "im_pairs": 10,
        "specialized_triples": 12,
        "crossed_pairs": 12,
        "oracle_pairs": 16,
        "classify_jobs": 40,
        "coset_cone_samples": 12,
        "counts": tuple(COUNT_PINS),
    },
    "tiny": {
        "affine_triples": {"A2": 2, "B2": 1, "BC2": 1, "A1xA1-twisted": 2},
        "bernstein_jobs": 1,
        "graded_triples": 1,
        "im_pairs": 1,
        "specialized_triples": 1,
        "crossed_pairs": 1,
        "oracle_pairs": 1,
        "classify_jobs": 2,
        "coset_cone_samples": 2,
        "counts": (("sp2-iwahori", 2), ("gl-a2", 2), ("sl", 6), ("gl4", 1)),
    },
}

AFFINE_DESCRIPTORS = ("A2", "B2", "BC2", "A1xA1-twisted")
GRADED_DESCRIPTORS = ("A2@1", "B2@1", "B2@(1,1)/2", "BC2@(1,1)/2",
                      "A1xA1-twisted@1")
SPECIALIZED = {"B2": (Fraction(3, 2),), "BC2": (Fraction(2),),
               "A1xA1-twisted": (Fraction(5, 3),)}
CROSSED_DESCRIPTORS = ("A2", "B2", "BC2", "A1xA1-twisted")


def balanced(values: Sequence, n: int, rng: random.Random) -> list:
    """n draws in which every value occurs equally often, shuffled."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def load_pins() -> Dict[str, str]:
    return json.loads(PINS_FILE.read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# affine: symbolic products with LaurentZ coefficients
# ---------------------------------------------------------------------------

def affine_elements(desc, rng: random.Random, count: int,
                    scalar=None) -> List[hecke.HeckeElement]:
    """``count`` elements with two terms each.

    Group elements and lattice vectors come from the fixed skeleton,
    coefficients and z-exponents from ``rng``.  ``scalar`` maps
    (coefficient, z-exponents) to a value of the descriptor's scalar
    ring; by default a LaurentZ monomial.
    """
    nterm = 2 * count
    skeleton = random.Random(SKELETON_SEED)
    keys = balanced(desc.wext.elements(), nterm, skeleton)
    xs = [balanced(range(-2, 3), nterm, skeleton)
          for _ in range(desc.rd.rank)]
    zs = [balanced(range(-1, 2), nterm, rng) for _ in range(desc.d)]
    cs = balanced((-2, -1, 1, 2), nterm, rng)
    if scalar is None:
        def scalar(c, ze):
            return LaurentZ.monomial(desc.d, ze, c)
    out = []
    for e in range(count):
        terms: Dict = {}
        for t in (2 * e, 2 * e + 1):
            x = tuple(col[t] for col in xs)
            ze = tuple(col[t] for col in zs)
            coeff = TorusAlgebraElement(desc.rd.rank, {x: scalar(cs[t], ze)})
            g = keys[t]
            terms[g] = terms[g] + coeff if g in terms else coeff
        out.append(hecke.HeckeElement(terms))
    return out


def triple_job(label: str, desc, a, b, c, mult=None,
               pin: str | None = None) -> Job:
    """(ab)c == a(bc), plus the serialized product against its pin."""
    def run() -> bool:
        m = mult or hecke.multiply
        left = m(desc, m(desc, a, b), c)
        ok = left == m(desc, a, m(desc, b, c))
        if pin is not None:
            ok = ok and digest(hecke.serialize_element(desc, left)) == pin
        return ok
    return Job(label, run)


def affine_triple_inputs(seed: int, size: dict):
    """(label, descriptor, (a, b, c)) for every affine triple.

    The full design is always generated and a smaller size takes its
    first triples, so a label names the same inputs at every size.
    """
    descs = checks.standard_descriptors()
    rng = random.Random(seed)
    out = []
    for name in AFFINE_DESCRIPTORS:
        els = affine_elements(descs[name], rng,
                              3 * SIZES["full"]["affine_triples"][name])
        for i in range(size["affine_triples"][name]):
            out.append(("affine/%s/triple/%d" % (name, i), descs[name],
                        tuple(els[3 * i:3 * i + 3])))
    return descs, out


def affine_jobs(seed: int, size: dict) -> List[Job]:
    descs, triples = affine_triple_inputs(seed, size)
    pins = load_pins() if seed == DEFAULT_SEED else {}
    jobs = [triple_job(label, desc, *abc, pin=pins.get(label))
            for label, desc, abc in triples]
    rng = random.Random(seed + 1)
    for name in AFFINE_DESCRIPTORS:
        desc = descs[name]
        jobs.append(Job("affine/%s/quadratic" % name,
                        lambda d=desc: checks.check_quadratic(d)))
        jobs.append(Job("affine/%s/braid" % name,
                        lambda d=desc: checks.check_braid(d)))
        for i in range(size["bernstein_jobs"]):
            jobs.append(Job("affine/%s/bernstein/%d" % (name, i),
                            lambda d=desc, s=rng.getrandbits(64):
                            checks.check_bernstein(d, random.Random(s),
                                                   samples=6)))
    random.Random(seed + 2).shuffle(jobs)
    return jobs


def affine_pins(seed: int, size: dict) -> Dict[str, str]:
    """Digests of serialize_element((ab)c) for every affine triple."""
    _descs, triples = affine_triple_inputs(seed, size)
    return {label: digest(hecke.serialize_element(
                desc, hecke.multiply(desc, hecke.multiply(desc, a, b), c)))
            for label, desc, (a, b, c) in triples}


# ---------------------------------------------------------------------------
# graded: graded, IM, specialized and crossed products
# ---------------------------------------------------------------------------

def graded_elements(gd, rng: random.Random, count: int):
    """Like affine_elements, with monomials of degree <= 2 per variable
    and nonnegative r-exponents."""
    keys = [weyl.ExtendedWeylElement(u, l) for u in gd.weyl.enumerate()
            for l in sorted(gd.diagram_matrices)]
    nterm = 2 * count
    skeleton = random.Random(SKELETON_SEED)
    ks = balanced(keys, nterm, skeleton)
    monos = [balanced(range(0, 3), nterm, skeleton)
             for _ in range(gd.rd.rank)]
    rs = [balanced(range(0, 2), nterm, rng) for _ in range(gd.d)]
    cs = balanced((-2, -1, 1, 2), nterm, rng)
    out = []
    for e in range(count):
        terms: Dict = {}
        for t in (2 * e, 2 * e + 1):
            mono = tuple(col[t] for col in monos)
            re = tuple(col[t] for col in rs)
            coeff = TorusAlgebraElement(
                gd.rd.rank, {mono: LaurentZ.monomial(gd.d, re, cs[t])})
            k = ks[t]
            terms[k] = terms[k] + coeff if k in terms else coeff
        out.append(hecke.GradedElement(terms))
    return out


def im_job(label: str, gd, a, b) -> Job:
    def run() -> bool:
        im, gm = hecke.im_involution, hecke.graded_multiply
        return im(gd, gm(gd, a, b)) == gm(gd, im(gd, a), im(gd, b)) \
            and im(gd, im(gd, a)) == a
    return Job(label, run)


def crossed_job(label: str, desc, a, b) -> Job:
    def run() -> bool:
        return hecke.multiply(desc, a, b) == hecke.multiply_crossed(desc, a, b)
    return Job(label, run)


def graded_jobs(seed: int, size: dict) -> List[Job]:
    descs = checks.standard_descriptors()
    graded = checks.graded_test_descriptors(
        {n.split("@")[0]: descs[n.split("@")[0]] for n in GRADED_DESCRIPTORS})
    rng = random.Random(seed)
    jobs: List[Job] = []
    for name in GRADED_DESCRIPTORS:
        gd = graded[name]
        tag = name.replace("/", "|")    # labels use "/" as separator
        n, p = size["graded_triples"], size["im_pairs"]
        els = graded_elements(gd, rng, 3 * n + 2 * p)
        for i in range(n):
            jobs.append(triple_job("graded/%s/triple/%d" % (tag, i), gd,
                                   *els[3 * i:3 * i + 3],
                                   mult=hecke.graded_multiply))
        for i in range(p):
            a, b = els[3 * n + 2 * i:3 * n + 2 * i + 2]
            jobs.append(im_job("graded/%s/im/%d" % (tag, i), gd, a, b))
    for name, zvals in SPECIALIZED.items():
        spec = descs[name].specialized(zvals)
        n = size["specialized_triples"]

        def scalar(c, ze, zvals=zvals):
            v = Fraction(c)
            for z, e in zip(zvals, ze):
                v *= z ** e
            return v
        els = affine_elements(spec, rng, 3 * n, scalar)
        for i in range(n):
            jobs.append(triple_job(
                "graded/%s-specialized/triple/%d" % (name, i), spec,
                *els[3 * i:3 * i + 3]))
    for name in CROSSED_DESCRIPTORS:
        q1 = hecke.quotient_z1(descs[name])
        n = size["crossed_pairs"]
        els = affine_elements(q1, rng, 2 * n, lambda c, ze: Fraction(c))
        for i in range(n):
            jobs.append(crossed_job("graded/%s-z1/crossed/%d" % (name, i), q1,
                                    *els[2 * i:2 * i + 2]))
    random.Random(seed + 2).shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# spectra: counts, the centre-dimension oracle, cone classification
# ---------------------------------------------------------------------------

def count_args(datum: str, order: int) -> List[str]:
    args = ["count", "--order", str(order), "--format", "json"]
    if datum in pipeline.BUILTIN_EXAMPLES:
        return args + ["--example", datum]
    return args + ["--input", str(DATA_DIR / (datum + ".json"))]


def count_job(datum: str, order: int) -> Job:
    """cli.main count with stdout captured; total and orbits pinned."""
    def run() -> bool:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(count_args(datum, order))
        if code != 0:
            return False
        doc = json.loads(buf.getvalue())
        pinned = COUNT_PINS[(datum, order)]
        return (doc["total"], len(doc["orbits"])) == pinned \
            and doc["total"] == sum(o["count"] for o in doc["orbits"])
    return Job("spectra/count/%s/%d" % (datum, order), run)


def _matmul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def b2_subgroups(group) -> List[list]:
    """Every subgroup of W(B2) (dihedral of order 8), as element lists.

    Each subgroup of a dihedral group is generated by at most two
    elements; closure is computed on the action matrices.
    """
    els = group.elements()
    by_matrix = {g.weyl.matrix: g for g in els}
    subs = set()
    for a in els:
        for b in els:
            sub = {group.identity.weyl.matrix}
            frontier = [a.weyl.matrix, b.weyl.matrix]
            while frontier:
                m = frontier.pop()
                if m not in sub:
                    sub.add(m)
                    frontier.extend(_matmul(m, s) for s in list(sub))
                    frontier.extend(_matmul(s, m) for s in list(sub))
            subs.add(frozenset(sub))
    return [[by_matrix[m] for m in sorted(s)]
            for s in sorted(subs, key=lambda s: (len(s), sorted(s)))]


def b2_characters():
    """The four homomorphisms W(B2) -> Z/2 on signed permutation matrices:
    trivial, number of sign changes, permutation parity, and their sum."""
    def signs(m):
        return sum(1 for row in m for v in row if v < 0) % 2

    def swap(m):
        return 1 if m[0][0] == 0 else 0
    return (lambda m: 0, signs, swap, lambda m: (signs(m) + swap(m)) % 2)


def oracle_job(label: str, group, elements, f, g) -> Job:
    """Cocycle-regular class count == centre dimension of the twisted
    group algebra, for the bilinear cocycle (-1)^(f(a) g(b))."""
    def cocycle(a, b):
        return -1 if f(a.weyl.matrix) * g(b.weyl.matrix) % 2 else 1

    def run() -> bool:
        fg = spectra.FiniteGroup(elements, group.mult, group.inv,
                                 group.identity, cocycle)
        return spectra.count_twisted_irreps(fg) == \
            spectra.twisted_algebra_center_dim(fg)
    return Job(label, run)


def cone_weights(rd, rng: random.Random, kind: str, count: int):
    """Weights sum_i c_i alpha_i^vee whose cone membership is known by
    construction: "interior" has every c_i < 0, "boundary" has every
    c_i <= 0 with one c_i = 0, "outside" has one c_i > 0."""
    simples = rd.simple_roots
    out = []
    for _ in range(count):
        cs = [-Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in simples]
        if kind == "boundary":
            cs[rng.randrange(len(cs))] = Fraction(0)
        elif kind == "outside":
            cs[rng.randrange(len(cs))] = Fraction(rng.randint(1, 9),
                                                  rng.randint(1, 5))
        out.append(tuple(sum(c * s.coroot[i] for c, s in zip(cs, simples))
                         for i in range(rd.rank)))
    return out


def classify_job(label: str, rd, weights, kind: str) -> Job:
    full_rank = len(rd.simple_roots) == rd.rank
    expected = spectra.ModuleClassification(
        tempered=kind != "outside",
        discrete_series=kind == "interior" and full_rank,
        essentially_discrete=kind == "interior")

    def run() -> bool:
        return spectra.classify(weights, rd) == expected
    return Job(label, run)


def coset_cone_job(label: str, name, rd, point, seed: int, samples: int
                   ) -> Job:
    def run() -> bool:
        results = checks.check_coset_cones(name, rd, point,
                                           random.Random(seed), samples)
        return all(ok for _name, ok, _detail in results)
    return Job(label, run)


def spectra_jobs(seed: int, size: dict) -> List[Job]:
    jobs = [count_job(d, o) for d, o in size["counts"]]

    rng = random.Random(seed)
    b2 = weyl.ExtendedGroup(build_classical("B", 2))
    chars = b2_characters()
    pairs = [(i, j) for i in range(len(chars)) for j in range(len(chars))]
    for s, sub in enumerate(b2_subgroups(b2)):
        for i, j in rng.sample(pairs, size["oracle_pairs"]):
            jobs.append(oracle_job("spectra/oracle/%d/%d%d" % (s, i, j),
                                   b2, sub, chars[i], chars[j]))

    for fam, n in (("B", 3), ("A", 3)):
        rd = build_classical(fam, n)
        for i in range(size["classify_jobs"]):
            kind = ("interior", "boundary", "outside")[i % 3]
            jobs.append(classify_job(
                "spectra/classify/%s%d/%d" % (fam, n, i), rd,
                cone_weights(rd, rng, kind, 4), kind))
    for name, rd, pt in checks.coset_cone_cases():
        if name.startswith(("B3", "A3")):
            jobs.append(coset_cone_job("spectra/cones/%s" % name, name, rd,
                                       pt, rng.getrandbits(32),
                                       size["coset_cone_samples"]))
    random.Random(seed + 2).shuffle(jobs)
    return jobs


BUILDERS = {"affine": affine_jobs, "graded": graded_jobs,
            "spectra": spectra_jobs}


def build(workload: str, seed: int, size: str) -> List[Job]:
    return BUILDERS[workload](seed, SIZES[size])
