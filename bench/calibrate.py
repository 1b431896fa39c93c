"""A fixed reference computation that measures how fast the machine runs
Python right now.

The benchmark runs on shared machines whose speed changes by up to a
factor of two within seconds, for every process alike (CPU time changes
with wall time, so it is not the scheduler).  ``chunk()`` times a fixed
piece of pure-Python work of the same kind as the library's hot loops:
sparse Laurent polynomials as dicts of exponent tuples, products of
polynomial-coefficient dicts, integer matrix products on tuples and an
exact inverse with ``Fraction``.  The benchmark runs a chunk between
jobs and divides each job's time by the time of the chunks around it,
so that a job's time is reported in *reference seconds*: the time it
would take on a machine where one chunk takes ``REFERENCE_CHUNK_S``.

The work here is frozen.  It must not change and must not use
``heckealg``, or times measured before and after the change would no
longer compare.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# Time of one chunk at the reference speed: about the median chunk time
# on the 2-CPU Xeon sandbox the benchmark was written on.
REFERENCE_CHUNK_S = 0.010

WARMUP_CHUNKS = 20


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = _vadd(e1, e2)
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _poly_add(p, q):
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _torus_mul(a, b):
    out = {}
    for x, v in a.items():
        for y, w in b.items():
            k = _vadd(x, y)
            p = _poly_mul(v, w)
            if k in out:
                s = _poly_add(out[k], p)
                if s:
                    out[k] = s
                else:
                    del out[k]
            elif p:
                out[k] = p
    return out


def _mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def _mat_inv(m):
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0)
           for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(int(x) for x in row[n:]) for row in aug)


def _inputs():
    rng = random.Random(1)

    def poly():
        return {(rng.randint(-3, 3), rng.randint(-3, 3)):
                rng.choice((-2, -1, 1, 2)) for _ in range(4)}

    def torus():
        return {(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)):
                poly() for _ in range(3)}

    elements = [torus() for _ in range(8)]
    # Generators of the signed permutations of four coordinates (B4).
    gens = (((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
            ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)),
            ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
            ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1)))
    return elements, gens


_ELEMENTS, _GENS = _inputs()


def work() -> int:
    """The reference computation; returns a checksum."""
    acc = 0
    for _ in range(2):
        for i in range(len(_ELEMENTS)):
            acc += len(_torus_mul(_ELEMENTS[i], _ELEMENTS[i - 1]))
        m = _GENS[0]
        seen = {m}
        for i in range(60):
            m = _mat_mul(m, _GENS[i % 4])
            seen.add(m)
            if i % 6 == 0:
                acc += _mat_inv(m)[0][0]
        acc += len(seen)
    return acc


CHECKSUM = work()


def chunk() -> float:
    """Seconds taken by one run of the reference computation."""
    t = time.perf_counter()
    ok = work() == CHECKSUM
    dur = time.perf_counter() - t
    if not ok:
        raise RuntimeError("the reference computation gave a wrong result")
    return dur


def warm_up() -> None:
    for _ in range(WARMUP_CHUNKS):
        chunk()
