"""Exact coefficient arithmetic.

One sparse ring carries every coefficient of the Hecke algebras:
``TorusAlgebraElement``, the sums of theta_x z^e, x in X^*(T) and e in
ZZ^d, of ZZ[X^*(T)] (x) ZZ[z_1^{\\pm 1}, .., z_d^{\\pm 1}] (with exponents
>= 0 the graded S(t^*) (x) ZZ[r_1..r_d]), and ``LaurentZ``, the same ring
at rank d with the z-exponents as lattice digits.  ``terms`` maps an int
key per lattice part to an int value, both Kronecker-packed (Monagan-
Pearce, ISSAC 2009; Harvey, J. Symbolic Comput. 44, 2009):

    key   = sum_i x_i B^i + q B^rank + sum_{j>1} e_j B^(rank + j - 1),
    value = sum_k c_k 2^(slot k),  c_k the scalar of z_1^(q + k - base),

B = 2^WIDTH, key digits balanced in [-MAX_EXP, MAX_EXP], each c_k a
balanced ``slot``-bit digit, so a product is one int product per pair of
lattice parts.  Scalars are ``int``s (ZZ-mode) or ``int`` numerators over
one content-reduced ``den`` (QQ-mode, specialized algebras; Geddes-
Czapor-Labahn, Algorithms for Computer Algebra, ch. 2).  ``height`` bounds
the sum of all |scalars| (sums add, products multiply): ``slot`` bits hold
them while height < 2^(slot - 1), and an operation that would pass that
first moves to SLOT doubled until it fits.  ``bound`` bounds |exponents|;
past MAX_EXP an operation raises ``PackedRangeError``.  Elements handed
out are canonical: slot 0 for a QQ-element free of z_1 (values are its
scalars), else _fit(SLOT, sum of |scalars|); base max(0, -lowest
z_1-exponent); q 0 unless the z_1-exponents span SPAN slots or more, when
q picks a window of SPAN.  A partial product is a block [parts, den,
slot, base, height], a raw [terms, bound] per W_ext table id in parts;
``map_monomials`` (the N_s kernel) maps a block, ``mul_into`` adds a
coefficient times one into another, and ``settle`` makes elements.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import ceil, gcd, lcm
from operator import attrgetter, or_
from typing import Dict, Iterable, Optional, Sequence, Tuple

Exps = Tuple[int, ...]

WIDTH = 32
_HALF = 1 << (WIDTH - 1)
_MASK = (1 << WIDTH) - 1
MAX_EXP = _HALF - 1
SLOT = 64    # bits per z_1-slot, doubled while a height needs more
SPAN = 256   # z_1-slots per window of a value


class PackedRangeError(OverflowError):
    """An exponent would leave the packed range [-MAX_EXP, MAX_EXP]."""


def _check_bound(bound: int) -> int:
    """``bound``, or PackedRangeError when it exceeds MAX_EXP."""
    if bound > MAX_EXP:
        raise PackedRangeError("exponents up to %d do not fit the packed "
                               "range +-%d" % (bound, MAX_EXP))
    return bound


def _fit(slot: int, height: int) -> int:
    """The first of slot, 2 slot, 4 slot, .. that holds scalars of height."""
    while height >> (slot - 1):
        slot *= 2
    return slot


def _pack(exps: Iterable[int]) -> int:
    """Packed key of an exponent vector, unchecked: elements check bounds."""
    return sum(e << (WIDTH * i) for i, e in enumerate(exps))


def _unpack(key: int, n: int) -> Tuple[Exps, int]:
    """The n lowest digits of ``key`` and the key of the digits above."""
    out = []
    for _ in range(n):
        out.append(d := ((key + _HALF) & _MASK) - _HALF)
        key = (key - d) >> WIDTH
    return tuple(out), key


@lru_cache(maxsize=4096)
def _packed(exps: Exps) -> Tuple[int, int]:
    """(key, largest absolute exponent) of ``exps``."""
    return _pack(exps), max(map(abs, exps), default=0)


@lru_cache(maxsize=None)
def _low_split(n: int) -> Tuple[int, int]:
    """(offset, mask) with ((key + offset) & mask) - offset the key of the
    n lowest digits of key, so that key minus it holds the digits above."""
    return (sum(_HALF << (WIDTH * i) for i in range(n)),
            (1 << (WIDTH * n)) - 1)


@lru_cache(maxsize=None)
def _signed_permutation(matrix) -> Optional[Tuple[tuple, int]]:
    """For a signed permutation matrix, its entrywise absolute value and
    the mask of the lowest bit of digit i for each row i holding a -1;
    None for any other matrix."""
    out = []
    for row in matrix:
        nonzero = [(j, v) for j, v in enumerate(row) if v]
        if len(nonzero) != 1 or nonzero[0][1] not in (1, -1):
            return None
        out.append(nonzero[0])
    if sorted(j for j, _ in out) != list(range(len(out))):
        return None
    return (tuple(tuple(map(abs, row)) for row in matrix),
            sum(1 << (WIDTH * i) for i, (_, v) in enumerate(out) if v < 0))


@lru_cache(maxsize=4096)
def _moves(matrix) -> Dict[int, Tuple[int, int]]:
    """theta_x -> theta_{Mx}: each key met so far, x its lattice part, to
    (key(Mx) - key(x), largest |exponent| of Mx), kept across calls."""
    return {}


class TorusAlgebraElement:
    """Element of ZZ[X^*(T)] (x) scalar ring (module docstring); den 1 for
    zero in QQ-mode.  Scalars ``LaurentZ`` (absorbed into z) or ``int``
    give ZZ-mode, ``Fraction`` QQ-mode, others TypeError; both kinds give
    ``den`` 0, which ``hecke.multiply``, ``+`` and ``*`` refuse.  Ring
    operations return the type of ``self``, ZZ and QQ combining in QQ."""

    __slots__ = ("rank", "terms", "bound", "den", "slot", "base", "height")

    def __init__(self, rank: int, terms: Dict[Exps, object] | None = None):
        self.rank = rank
        out: Dict[int, object] = {}   # by key(x, e), z_1 at digit rank
        get, bound, fracs = out.get, 0, set()   # fracs: each a Fraction?
        for x, v in (terms or {}).items():
            x = tuple(x)
            if len(x) != rank:
                raise ValueError("lattice vector %r has rank %d, expected %d"
                                 % (x, len(x), rank))
            xk, size = _packed(x)
            fracs.add(isinstance(v, Fraction))
            if isinstance(v, LaurentZ) and v.den is None:   # to the z-digits
                size = max(size, v.bound)
                for zk, c in v.terms.items():
                    out[k] = get(k := xk + (zk << (WIDTH * rank)), 0) + c
            elif isinstance(v, (int, Fraction)):
                out[xk] = get(xk, 0) + v
            else:
                raise TypeError("scalar %r is not an int, a Fraction or a "
                                "LaurentZ over ZZ" % (v,))
            bound = max(bound, size)
        out = {k: c for k, c in out.items() if c}
        den = None
        if True in fracs:
            if False in fracs:
                den = 0
            else:   # lowest terms in, so gcd(den, numerators) = 1 out
                den = lcm(*(c.denominator for c in out.values()))
                out = {k: c.numerator * (den // c.denominator)
                       for k, c in out.items()}
        self.terms, self.den, self.slot, self.base, self.height = \
            _packed_terms(rank, out, den)
        self.bound = _check_bound(bound)

    @classmethod
    def zero(cls, rank: int) -> "TorusAlgebraElement":
        return cls(rank)

    @classmethod
    def theta(cls, x: Iterable[int], one) -> "TorusAlgebraElement":
        x = tuple(x)
        return cls(len(x), {x: one})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        """By value: ZZ-integers equal QQ-ones over den 1 (slot 0 and a
        slot hold scalars of z_1^0 alike)."""
        return type(other) is type(self) and self.rank == other.rank \
            and self.terms == other.terms and self.base == other.base \
            and (self.den or 1) == (other.den or 1) and (
                self.slot == other.slot or not self.base and not max(
                    map(abs, self.terms.values()), default=0) >> (min(
                        self.slot or other.slot, other.slot or self.slot) - 1))

    def __neg__(self) -> "TorusAlgebraElement":
        return _like(self, {k: -c for k, c in self.terms.items()})

    def __add__(self, other: "TorusAlgebraElement") -> "TorusAlgebraElement":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        den, fs, fo = _common(self.den, other.den)
        height = self.height * fs + other.height * fo
        slot = max(self.slot, other.slot)
        to = slot and _fit(slot, height), max(self.base, other.base)
        acc = dict(_recode(self, to, fs))
        get = acc.get
        for k, c in _recode(other, to, fo).items():
            acc[k] = get(k, 0) + c
        return _settled(self, acc, max(self.bound, other.bound), den, *to,
                        height)

    def __sub__(self, other: "TorusAlgebraElement") -> "TorusAlgebraElement":
        return self + (-other)

    def __mul__(self, other: "TorusAlgebraElement") -> "TorusAlgebraElement":
        if not isinstance(other, TorusAlgebraElement):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out = block({})
        mul_into(out, self, block({0: other}))
        (terms, bound), = out[0].values()
        return _settled(self, terms, bound, *out[1:])

    def scale(self, scalar) -> "TorusAlgebraElement":
        """Multiply by a scalar the constructor takes (a Fraction moves a
        ZZ-element to QQ); any other raises TypeError."""
        return self * TorusAlgebraElement(self.rank,
                                          {(0,) * self.rank: scalar})

    def shift(self, x: Exps) -> "TorusAlgebraElement":
        """Multiply by theta_x."""
        d, size = _packed(tuple(x))
        return _like(self, {k + d: c for k, c in self.terms.items()},
                     _check_bound(self.bound + size))

    def act_matrix(self, matrix) -> "TorusAlgebraElement":
        """theta_x -> theta_{Mx} for an invertible M, z-part untouched; each
        lattice part is decoded once per matrix (``_moves``)."""
        rank = self.rank
        offset, mask = _low_split(rank)
        moves = _moves(matrix)
        bound = self.bound
        out: Dict[int, object] = {}
        for k, c in self.terms.items():
            move = moves.get(k)
            if move is None:
                xk = ((k + offset) & mask) - offset
                x = _unpack(xk, rank)[0]
                y = [sum(a * b for a, b in zip(row, x)) for row in matrix]
                move = moves[k] = (_pack(y) - xk,
                                   max(map(abs, y), default=0))
            if move[1] > bound:
                bound = _check_bound(move[1])
            out[k + move[0]] = c
        return _like(self, out, bound)

    def substitute(self, matrix) -> "TorusAlgebraElement":
        """x_i -> sum_j matrix[j][i] x_j on polynomials in the lattice
        coordinates, z- (r-) part untouched.  A signed permutation is
        ``act_matrix`` by its absolute value, then a sign per monomial, the
        parity of its new exponents at the rows holding a -1; any other
        matrix expands each monomial as a product of linear forms."""
        perm = _signed_permutation(matrix)
        if perm is not None:
            return _flip_signs(self.act_matrix(perm[0]), perm[1], 0)
        rank = self.rank
        offset, mask = _low_split(rank)
        lin = [TorusAlgebraElement(rank, {
            tuple(int(k == j) for k in range(rank)): matrix[j][i]
            for j in range(rank) if matrix[j][i]}) for i in range(rank)]
        out = TorusAlgebraElement(rank)
        for k, c in self.terms.items():
            xk = ((k + offset) & mask) - offset
            x, _ = _unpack(xk, rank)
            if min(x, default=0) < 0:
                raise ValueError("substitution needs nonnegative exponents")
            prod = _like(self, {k - xk: c})
            for i, a in enumerate(x):
                for _ in range(a):
                    prod = prod * lin[i]
            out = out + prod
        return out

    def divide_linear(self, alpha: Exps) -> "TorusAlgebraElement":
        """Exact quotient by the linear form sum_i alpha_i x_i: the top layer
        in the pivot variable x_p over c_p x_p, times the form, is taken off
        until nothing is left, the scalars decoded first, so that c_p must
        divide each of them (ZZ-mode; QQ-mode divides den instead).  A
        nonzero remainder or an inexact scalar raises ArithmeticError."""
        _check_bound(2 * self.bound)   # no digit passes it on the way
        rank, den, p = self.rank, self.den, min(
            (i for i, c in enumerate(alpha) if c),
            key=lambda i: (abs(alpha[i]) != 1, i))
        c, top, low = alpha[p], WIDTH * p, _low_split(p + 1)[0]
        form = TorusAlgebraElement(rank, {tuple(
            int(i == j) for j in range(rank)): a for i, a in enumerate(alpha)
            if a})
        quot, rest = _new(self, 0, *_packed_terms(rank, {}, den)), self
        while rest:
            full = _exploded(rest.terms, rank, rest.slot, rest.base)
            deg = {k: (((k + low) >> top) & _MASK) - _HALF for k in full}
            d = max(deg.values())
            layer = {k - (1 << top): v for k, v in full.items() if deg[k] == d}
            if d < 1 or den is None and any(v % c for v in layer.values()):
                raise ArithmeticError("%s division by %r" % (
                    "inexact" if d > 0 else "nonzero remainder in", alpha))
            t = _new(self, self.bound, *_packed_terms(rank, {
                k: v // c if den is None else v * (c // abs(c))
                for k, v in layer.items()}, den and den * abs(c)))
            quot, rest = quot + t, rest - t * form
        return _like(quot, quot.terms, self.bound)

    def __repr__(self):
        if not self.terms:
            return "0"
        groups: Dict[Exps, Dict[int, object]] = {}   # z-keys by lattice part
        den = self.den
        for k, c in _exploded(self.terms, self.rank, self.slot,
                              self.base).items():
            x, zk = _unpack(k, self.rank)
            groups.setdefault(x, {})[zk] = Fraction(c, den) if den else c
        # enough z-digits for every z-key; the text shows no zero exponent
        nvars = max(abs(zk) for g in groups.values() for zk in g
                    ).bit_length() // WIDTH + 1
        return " + ".join("(%s)*theta%s" % (repr(g[0]) if len(g) == 1 and
                                            isinstance(g.get(0), Fraction)
                                            else _z_text(g, nvars), list(x))
                          for x, g in sorted(groups.items()))


# The ring product, reached by LaurentZ directly so that a wrapper on
# TorusAlgebraElement.__mul__ (bench/tracing.py) counts torus products only.
_product = TorusAlgebraElement.__mul__


def _new(like: TorusAlgebraElement, bound: int, terms: Dict[int, object],
         den: Optional[int], slot: int, base: int, height: int
         ) -> TorusAlgebraElement:
    """An element of the type and rank of ``like`` with these fields."""
    r = object.__new__(type(like))
    r.rank, r.terms, r.bound, r.den = like.rank, terms, bound, den
    r.slot, r.base, r.height = slot, base, height
    return r


def _like(c: TorusAlgebraElement, terms: Dict[int, object], bound=None
          ) -> TorusAlgebraElement:
    """``terms`` with the fields of c (and ``bound``, if given)."""
    return _new(c, c.bound if bound is None else bound, terms, c.den,
                c.slot, c.base, c.height)


def _exploded(terms: Dict[int, object], rank: int, slot: int, base: int
              ) -> Dict[int, object]:
    """The nonzero scalars of packed ``terms`` by key(x, e), z_1 at digit
    ``rank``, read off the balanced digits of each value."""
    if not slot:
        return terms
    out, top, half = {}, WIDTH * rank, 1 << (slot - 1)
    for k, v in terms.items():
        k -= base << top
        while v:
            c = ((v + half) & ((half << 1) - 1)) - half
            out[k] = out.get(k, 0) + c
            v, k = (v - c) >> slot, k + (1 << top)
    return {k: c for k, c in out.items() if c}


def _packed_terms(rank: int, full: Dict[int, object], den: Optional[int],
                  to: Optional[Tuple[int, int]] = None) -> tuple:
    """(terms, den, slot, base, height) of the nonzero scalars ``full`` by
    key(x, e) over den: canonical, content-reduced in QQ-mode, or at
    (slot, base) ``to``.  Keys below 2^(WIDTH rank - 1) hold no z."""
    if den and (g := gcd(den, *full.values())) != 1:
        full, den = {k: c // g for k, c in full.items()}, den // g
    height, top = sum(map(abs, full.values())), WIDTH * rank
    es = {k: (((k + _low_split(rank + 1)[0]) >> top) & _MASK) - _HALF
          for k in full} if 2 * max(map(abs, full), default=0) >> top else {}
    if to is None and not any(es.values()):   # free of z_1: the scalars
        return full, den, _fit(SLOT, height) if den is None else 0, 0, height
    # ceil: a Fraction height only for mixed scalars
    (slot, base), terms = to or (_fit(SLOT, ceil(height)),
                                 max(0, -min(es.values()))), {}
    for k, c in full.items():
        s = (es.get(k, 0) + base) % SPAN   # the slot; q = e + base - s
        k += (base - s) << top
        terms[k] = terms.get(k, 0) + c * (1 << slot * s)
    return terms, den, slot, base, height


def _settled(like: TorusAlgebraElement, terms: Dict[int, object], bound: int,
             den: Optional[int], slot: int, base: int, height: int
             ) -> TorusAlgebraElement:
    """The canonical element of ``terms``, which may hold zeros: a
    ZZ-result at SLOT whose exponents span fewer than SPAN slots drops its
    empty low slots, a QQ-result free of z_1 its content, and any other
    result is packed again from its scalars."""
    if 0 in terms.values():
        terms = {k: c for k, c in terms.items() if c}
    if slot:
        if den or slot > SLOT or 2 * bound >= SPAN or base >= SPAN \
                or not terms:
            return _new(like, bound, *_packed_terms(like.rank, _exploded(
                terms, like.rank, slot, base), den))
        if base:
            low = reduce(or_, terms.values())
            drop = min(base, ((low & -low).bit_length() - 1) // slot)
            if drop:
                terms = {k: v >> slot * drop for k, v in terms.items()}
                base -= drop
    elif den:
        g = gcd(den, *terms.values())
        if g != 1:
            terms = {k: c // g for k, c in terms.items()}
            den, height = den // g, height // g
    return _new(like, bound, terms, den, slot, base, height)


def _recode(c, to: Tuple[int, int], f=1, rank=None) -> Dict[int, object]:
    """f times the terms of c, an element or a (terms, slot, base) triple of
    that ``rank``, at the (slot, base) ``to``, no narrower and no
    shallower; the same dict when nothing changes."""
    terms, s0, b0 = (c.terms, c.slot, c.base) if rank is None else c
    rank, (s1, b1) = c.rank if rank is None else rank, to
    if s0 in (0, s1) and b1 - b0 < SPAN:
        f <<= s1 * (b1 - b0)
        return terms if f == 1 else {k: v * f for k, v in terms.items()}
    return _packed_terms(rank, {k: v * f for k, v in _exploded(
        terms, rank, s0, b0).items()}, None, to)[0]


def _widened(blk: list, slot: int, rank: int) -> list:
    """The block ``blk`` at the wider ``slot``."""
    parts, den, s0, base, height = blk
    return [{u: [_recode((terms, s0, base), (slot, base), 1, rank), bound]
             for u, (terms, bound) in parts.items()}, den, slot, base, height]


def _qden(den: Optional[int]) -> int:
    """``den`` in QQ-mode, 1 in ZZ-mode; TypeError for mixed scalars."""
    if den == 0:
        raise TypeError("int and Fraction scalars mixed in one element")
    return den or 1


def _common(da: Optional[int], db: Optional[int]) -> Tuple:
    """(den, fa, fb): the denominator of a sum (None in ZZ) and the
    factors that bring the numerators of the summands over it."""
    if da == db != 0:
        return da, 1, 1
    den = lcm(_qden(da), _qden(db))
    return den, den // (da or 1), den // (db or 1)


def monomial_groups(cs: Sequence[TorusAlgebraElement], nvars: int) -> list:
    """(exponents, [(j, scalar), ..]) per monomial of the elements ``cs``,
    sorted by its lattice then its ``nvars`` z- (r-) exponents, with j
    ascending over the cs that hold it; each monomial is decoded once.
    The scalar is an ``int`` in ZZ-mode and a ``Fraction`` in QQ-mode.
    Raises ValueError for a nonzero z-exponent past ``nvars``."""
    by_key: Dict[int, list] = {}
    for j, c in enumerate(cs):
        den = c.den
        for k, v in _exploded(c.terms, c.rank, c.slot, c.base).items():
            by_key.setdefault(k, []).append((j, Fraction(v, den) if den
                                             else v))
    n = cs[0].rank + nvars if cs else 0
    out = sorted((_unpack(k, n), js) for k, js in by_key.items())
    if any(rest for (_, rest), _ in out):
        raise ValueError("monomial with more than %d z-exponents" % nvars)
    return [(exps, js) for (exps, _), js in out]


# ---------------------------------------------------------------------------
# Blocks: partial products over table ids
# ---------------------------------------------------------------------------

_shape, _height = attrgetter("den", "slot", "base"), attrgetter("height")


def block(cs: Dict[int, TorusAlgebraElement]) -> list:
    """The block of the elements ``cs``: [terms, bound] of each by id (zeros
    in terms are skipped by readers) over the lcm of the dens (None in
    ZZ-mode), at the widest slot, the deepest base and the largest height.
    No function writes into a block it only reads."""
    if not cs:
        return [{}, None, 0, 0, 0]
    vals = cs.values()
    shapes = set(map(_shape, vals))
    height = max(map(_height, vals))
    if len(shapes) == 1:   # every part as it is
        (den, slot, base), = shapes
        if not (slot and height >> (slot - 1)):
            return [{u: [c.terms, c.bound] for u, c in cs.items()}, den,
                    slot, base, height]
    dens = {d for d, _, _ in shapes}
    den = None if dens <= {None} else lcm(*map(_qden, dens))
    lift = {u: _qden(den) // _qden(c.den) for u, c in cs.items()}
    height = max(c.height * lift[u] for u, c in cs.items())
    slot = max(s for _, s, _ in shapes)
    to = slot and _fit(slot, height), max(b for _, _, b in shapes)
    return [{u: [_recode(c, to, lift[u]), c.bound] for u, c in cs.items()},
            den, *to, height]


def settle(blk: list, like: TorusAlgebraElement
           ) -> Dict[int, TorusAlgebraElement]:
    """The nonzero elements, of the type and rank of ``like``, that ``blk``
    holds, by id."""
    parts, den, slot, base, height = blk
    return {u: c for u, (terms, bound) in parts.items() if (c := _settled(
        like, terms, bound, den, slot, base, height)).terms}


def _flip_signs(c: TorusAlgebraElement, low: int, n: int
                ) -> TorusAlgebraElement:
    """Each monomial of c times (-1)^(n + the sum of its lattice exponents
    at the digits whose lowest bit ``low`` holds), read off those bits."""
    offset = _low_split(c.rank)[0]
    return _like(c, {k: -v if (((k + offset) & low).bit_count() + n) & 1
                     else v for k, v in c.terms.items()})


def negate_lattice(c: TorusAlgebraElement, n: int) -> TorusAlgebraElement:
    """(-1)^n c(-x), z- (r-) part untouched: the sign pass over every
    lattice digit."""
    return _flip_signs(c, _low_split(c.rank)[0] >> (WIDTH - 1), n)


def _mul_terms(acc: Dict[int, object], xs: Dict[int, object],
               ys: Dict[int, object]) -> None:
    """Add the product of the term dicts ``xs`` and ``ys`` into ``acc``;
    zeros of ``xs`` are skipped.  Checks no range."""
    get = acc.get
    for k1, c1 in xs.items():
        if c1:
            for k2, c2 in ys.items():
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2


def mul_into(out: list, a: TorusAlgebraElement, blk: list) -> None:
    """Add a times every id of ``blk`` to the same id of the block ``out``;
    a one-term factor is a key shift and a scalar product.  ``out`` and the
    factors first take one slot, the widest, or a wider one that holds the
    new height, and one base, the deepest."""
    parts, den, bslot, bbase, bheight = blk
    acc_parts, oden, oslot, obase, oheight = out
    den = None if a.den is den is None else _qden(a.den) * _qden(den)
    fs = m = 1
    if oden != den:
        out[1], fs, m = _common(oden, den)
        if fs != 1:
            for terms, _ in acc_parts.values():
                for k in terms:
                    terms[k] *= fs
    out[4] = height = oheight * fs + a.height * bheight * m
    xa, rank = a.terms, a.rank
    if not acc_parts:   # ``out`` takes the shape of the product
        out[2], out[3] = oslot, obase = bslot, a.base + bbase
    if a.slot != bslot or bslot != oslot or a.base + bbase != obase \
            or oslot and height >> (oslot - 1):
        slot = max(oslot, a.slot, bslot)
        to = slot and _fit(slot, height), max(obase, a.base + bbase)
        for part in acc_parts.values():
            part[0] = _recode((part[0], oslot, obase), to, 1, rank)
        if bslot not in (0, to[0]):
            parts = _widened(blk, to[0], rank)[0]
        xa = _recode(a, (to[0], to[1] - bbase))
        out[2:4] = to
    if m != 1:   # a over the new den
        xa = {k: c * m for k, c in xa.items()}
    abound = a.bound
    for u, (terms, bound) in parts.items():
        bound = _check_bound(abound + bound)
        part = acc_parts.get(u)
        # the block's terms outside, where their zeros are skipped, unless
        # they are the one-term factor
        xs, ys = (xa, terms) if len(terms) == 1 < len(xa) else (terms, xa)
        if part is None:
            if len(ys) == 1:   # keys shifted by one key stay distinct
                (k2, c2), = ys.items()
                acc_parts[u] = [{k + k2: c * c2 for k, c in xs.items()},
                                bound]
                continue
            part = acc_parts[u] = [{}, bound]
        elif bound > part[1]:
            part[1] = bound
        _mul_terms(part[0], xs, ys)


def map_monomials(blk: list, step: tuple, perm, lengths) -> list:
    """The block of N_s times the block ``blk``: c at id u gives f(c) to
    perm[u] and g(c) factor, plus f(c) bracket when lengths[perm[u]] <
    lengths[u] and bracket is not None, to u; ``step`` = (table, build,
    factor, bracket), f and g linear over and fixing the z-part, build(x)
    = (f(theta_x), g(theta_x)) free of z over ZZ.  ``table`` maps each key
    met (lattice part x) to (bounds of f(theta_x) and g(theta_x), then
    f(theta_x) mden, g(theta_x) factor and that + f(theta_x) bracket as
    (key offset, value) pairs shared by ``_shared`` over the common den
    mden at the slot and base of factor and bracket, and their height);
    a part whose build raises is not recorded.  A block at another slot
    is mapped at the wider on a table for the call, and at a wider one
    when height(blk) times the highest entry met passes it.  Per id, f(c)
    has bound F = max(bound(c), those of f(theta_x)); the correction,
    checked before it is written, G + bound(factor) (G the same for the
    nonzero g(theta_x) factor), if shorter >= F + bound(bracket)."""
    table, build, factor, bracket = step
    parts, den, slot, base, height = blk
    rank = factor.rank
    pair = factor if bracket is None else bracket
    tslot = max(factor.slot, pair.slot)
    if slot != tslot and slot and tslot:   # one slot, the wider
        if slot < tslot:
            return map_monomials(_widened(blk, tslot, rank), step, perm,
                                 lengths)
        return map_monomials(blk, ({}, build) + tuple(
            c if c is None or c.slot in (0, slot) else _new(
                c, c.bound, _recode(c, (slot, c.base)), c.den, slot, c.base,
                c.height) for c in (factor, bracket)), perm, lengths)
    to = tslot, max(factor.base, pair.base)
    offset, mask = _low_split(rank)
    mden, ff, fb = (factor.den, 1, 1) if bracket is None else \
        _common(factor.den, bracket.den)
    mi = _qden(mden)   # f(c) over the new den
    den = None if den is mden is None else _qden(den) * mi
    hmax = 0
    out: Dict[int, list] = {}
    get_part = out.get
    for u, (terms, bound) in parts.items():
        su = perm[u]
        image = get_part(su)
        if image is None:
            image = out[su] = [{}, 0]
        corr = get_part(u)
        if corr is None:
            corr = out[u] = [{}, 0]
        shorter = lengths[su] < lengths[u]
        acc = image[0]
        get = acc.get
        fbound, gbound = bound, -1   # -1: no g(theta_x) factor met
        hits = []   # (key, value, correction terms), added once in range
        for k, v in terms.items():
            if not v:
                continue
            entry = table.get(k)
            if entry is None:
                xk = ((k + offset) & mask) - offset
                f, g = build(_unpack(xk, rank)[0])
                long: Dict[int, object] = {}
                _mul_terms(long, g.terms, _recode(factor, to, ff))
                short = dict(long)
                h = f.height * mi + g.height * factor.height * ff
                if bracket is not None:
                    _mul_terms(short, f.terms, _recode(bracket, to, fb))
                    h += f.height * bracket.height * fb
                entry = table[k] = (f.bound, g.bound, *(_shared(tuple(
                    (ek - xk, w * lift) for ek, w in e.items() if w))
                    for e, lift in ((f.terms, mi << to[0] * to[1]),
                                    (long, 1), (short, 1))), h)
            bf, bg, fs, long, short, h = entry
            if bf > fbound:
                fbound = bf
            if long and bg > gbound:
                gbound = bg
            if h > hmax:
                hmax = h
            for d, w in fs:
                d += k
                acc[d] = get(d, 0) + v * w
            ts = short if shorter else long
            if ts:
                hits.append((k, v, ts))
        if fbound > image[1]:
            image[1] = fbound
        if not hits:
            continue
        cbound = max(bound, gbound) + factor.bound if gbound >= 0 else 0
        if shorter and bracket is not None:
            cbound = max(cbound, fbound + bracket.bound)
        if _check_bound(cbound) > corr[1]:
            corr[1] = cbound
        acc = corr[0]
        get = acc.get
        for k, v, ts in hits:
            for d, w in ts:
                d += k
                acc[d] = get(d, 0) + v * w
    height *= hmax
    slot = slot or tslot
    if slot and height >> (slot - 1):
        return map_monomials(_widened(blk, _fit(slot, height), rank), step,
                             perm, lengths)
    return [{u: p for u, p in out.items() if p[0]}, den, slot, base + to[1],
            height]


@lru_cache(maxsize=4096)
def _shared(terms: tuple) -> tuple:
    """One copy of equal term lists, which many entries of the tables of
    ``map_monomials`` hold: those of an affine N_s step depend on
    <x, coroot> only, and a step without a bracket has equal corrections."""
    return terms


def _z_text(terms: Dict[int, object], nvars: int) -> str:
    """``terms`` (keys of ``nvars`` z-digits) as a sum of z1^k monomials."""
    if not terms:
        return "0"
    parts = []
    for e, c in sorted((_unpack(k, nvars)[0], c) for k, c in terms.items()):
        factors = [str(abs(c))] if abs(c) != 1 or not any(e) else []
        factors += ["z%d^%d" % (j + 1, k) for j, k in enumerate(e) if k]
        parts.append(("- " if c < 0 else "+ ") + "*".join(factors))
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


class LaurentZ(TorusAlgebraElement):
    """Laurent polynomial over ZZ in z_1 .. z_nvars: the element of rank
    ``nvars`` whose lattice digits are the z-exponents.  A LaurentZ equals
    only a LaurentZ and also multiplies by an ``int``."""

    __slots__ = ()

    @classmethod
    def one(cls, nvars: int) -> "LaurentZ":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def const(cls, nvars: int, c: int) -> "LaurentZ":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, nvars: int, exps: Iterable[int], coeff: int = 1) -> "LaurentZ":
        return cls(nvars, {tuple(exps): coeff})

    @classmethod
    def var_power(cls, nvars: int, j: int, power: int, coeff: int = 1) -> "LaurentZ":
        """coeff * z_j^power, with j 1-based."""
        return cls.monomial(nvars, (0,) * (j - 1) + (power,)
                            + (0,) * (nvars - j), coeff)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return _product(self, other)

    def __rmul__(self, other):
        return self.scale(other) if isinstance(other, int) else NotImplemented

    def __repr__(self):
        return _z_text(self.terms, self.rank)


@lru_cache(maxsize=None)
def z_bracket(nvars: int, j: int, m: int) -> LaurentZ:
    """z_j^m - z_j^{-m}, built once; zero when m = 0."""
    if m == 0:
        return LaurentZ.zero(nvars)
    return LaurentZ.var_power(nvars, j, m) - LaurentZ.var_power(nvars, j, -m)
