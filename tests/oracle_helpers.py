"""Shared independent oracles and test-only helpers."""

import itertools
from collections import Counter
from fractions import Fraction

from heckealg import hecke
from heckealg.checks import random_graded
from heckealg.hecke import graded_multiply
from heckealg.spectra import FiniteGroup, _commutation_rows
from heckealg.weyl import (ExtendedGroup, RGroup, identity_matrix, mat_apply,
                           mat_mul, rref)


def word_matrix(rd, word):
    """The product s_{i_1} ... s_{i_m} of simple reflection matrices."""
    simple = rd.simple_reflections()
    m = identity_matrix(rd.rank)
    for i in word:
        m = mat_mul(m, simple[i])
    return m


def multiply_by_words(desc, a, b):
    """The Hecke product term by term: for each term c N_w N_gamma of a,
    N_gamma b and then one N_s step per letter of the recorded word of w,
    read right to left, with nothing shared between terms."""
    wg, table = desc.wext.weyl, desc.wext.table
    b_ids = {table.index[key]: c for key, c in b.terms.items()}
    out = {}
    for key, c in a.terms.items():
        t = hecke._ngamma_mul(desc, key.diagram, b_ids)
        for i in reversed(wg.reduced_word(key.weyl)):
            t = hecke._ns_mul(desc, i, t)
        for u, c2 in t.items():
            hecke._add_term(out, u, c * c2)
    return desc.element({table.elements[u]: c for u, c in out.items()})


def root_count_length(rd, matrix):
    """Number of reduced positive roots the matrix sends to negative roots."""
    return sum(not rd.is_positive(mat_apply(matrix, r.vector))
               for r in rd.reduced_positive)


def descent_word(rd, matrix):
    """Reduced word (0-based) by peeling off the least right descent:
    w = w' s_i with i least such that w(alpha_i) < 0."""
    simple = rd.simple_reflections()
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
    from collections import Counter
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
    from collections import Counter
    cnt = Counter(parts)
    keys = sorted(cnt)
    choices = [range(cnt[k] + 1) for k in keys]
    import itertools as it
    for combo in it.product(*choices):
        yield Counter({k: c for k, c in zip(keys, combo) if c})


def distinguished_bruteforce(side, parts):
    """A unipotent class is distinguished iff it lies in no proper Levi.

    In GL the Levis are GL_a x GL_b: any splitting of the partition into
    two nonempty multisets is a proper-Levi membership.  In Sp/SO the GL
    factors embed as v + v^*, so membership means lambda = mu + 2*nu with
    nu nonempty and mu valid for the same classical type.
    """
    from collections import Counter
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
