"""Twisted affine and graded Hecke algebras with exact arithmetic.

The affine algebra attached to a root datum R, an extended group
W = W(R) x| RGroup, invariant parameters lambda / lambda^* and z-variables
z_1..z_d lives on O(T x (C^x)^d) (x) C[W] in Bernstein normal form: every
element is a finite sum  sum_w  c_w * N_w  with the theta-coefficient on
the left.  Multiplication is driven by three exact rules:

* quadratic:     (N_s + z_j^{-lambda}) (N_s - z_j^{lambda}) = 0,
* commutation:   N_s theta_x = theta_{s x} N_s + G_alpha(x),
* diagram:       N_g N_w theta_x N_g^{-1} = N_{g w g^{-1}} theta_{g x},
                 N_g N_{g'} = cocycle(g, g') N_{g g'},

where G_alpha(x) is the solved Bernstein-Lusztig correction, a pure
theta-term built from the telescoping quotient
(theta_x - theta_{s x}) / (theta_0 - theta_{-alpha})  (or the doubled
denominator theta_0 - theta_{-2 alpha} together with an extra
theta_{-alpha} (z^{lambda*} - z^{-lambda*}) summand when the coroot of
alpha is divisible by two).

The graded algebra has coefficients in S(t^*) (x) ZZ[r_1..r_d] and the
commutation rule  N_s xi = (s xi) N_s + k(alpha) r_j (xi - s xi)/alpha,
with the group algebra embedded (no quadratic correction).

Both algebras share one multiplication skeleton (``multiply``, with the
left actions ``_ns_mul`` and ``_ngamma_mul``) and one N_s kernel,
``coeffs.map_monomials``, which maps a block of coefficients by table id;
a descriptor supplies its action on coefficients (``act_coeff``) and per
simple root what its N_s step does to a monomial theta_x (``_step``).
Basis keys are ``ExtendedWeylElement``s; an element used with a descriptor
is bound to it with an id map {W_ext ``GroupTable`` id: coefficient}
(``_ids``, ``_keyed``), and work on one descriptor reads only those ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .coeffs import (LaurentZ, TorusAlgebraElement, block, map_monomials,
                     monomial_groups, mul_into, negate_lattice, settle,
                     z_bracket)
from .root_data import Root, RootDatum, pairing, reflect, vscale, vsub
from .weyl import (Cocycle, ExtendedGroup, ExtendedWeylElement, Matrix,
                   RGroup, Vector, mat_apply, stabilizer_of_point)


class HeckeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Bernstein division
# ---------------------------------------------------------------------------

def bernstein_divide(x: Vector, alpha: Root, doubled: bool, one
                     ) -> TorusAlgebraElement:
    """The telescoping quotient D with D*(theta_0 - theta_{-alpha}) =
    theta_x - theta_{s_alpha x}  (denominator theta_0 - theta_{-2 alpha}
    in the doubled case).

    Closed form for n = <x, alpha^vee>: sum_{k=0}^{n-1} theta_{x - k alpha}
    for n > 0, zero for n = 0, minus the mirrored sum for n < 0; the
    doubled case steps by 2 alpha over n/2 terms and requires n even.
    """
    x = tuple(x)
    n = pairing(x, alpha.coroot)
    step = alpha.vector
    if doubled:
        if n % 2:
            raise HeckeError("doubled division needs an even pairing, got %d" % n)
        step, n = vscale(step, 2), n // 2
    # n > 0: x, x - step, ..; n < 0: x + |n| step, .., x + step, negated
    top, c = (x, one) if n > 0 else (vsub(x, vscale(step, n)), -one)
    return TorusAlgebraElement(len(x), {vsub(top, vscale(step, k)): c
                                        for k in range(abs(n))})


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

class HeckeElement:
    """Normal form sum_w c_w N_w; ``terms`` is read-only, by extended Weyl
    element.  A result keeps its descriptor and id map, and derives it."""

    __slots__ = ("_terms", "_desc", "_ids")
    _var = "z"

    def __init__(self, terms: Dict[ExtendedWeylElement, TorusAlgebraElement]):
        self._terms = MappingProxyType({w: c for w, c in terms.items() if c})
        self._desc = self._ids = None

    @property
    def terms(self) -> Mapping[ExtendedWeylElement, TorusAlgebraElement]:
        if self._terms is None:
            elements = self._desc.wext.table.elements
            self._terms = MappingProxyType({elements[u]: c
                                            for u, c in self._ids.items()})
        return self._terms

    def _maps(self, *others: "HeckeElement") -> tuple:
        """(make, maps of self and others): id maps and a maker of bound
        elements if all share a descriptor, else keyed terms and the
        constructor.  Both makers drop zero coefficients."""
        desc = self._desc
        if desc is None or any(o._desc is not desc for o in others):
            return (type(self), self.terms) + tuple(o.terms for o in others)
        return (lambda ids: _keyed(desc, {u: c for u, c in ids.items() if c}),
                self._ids) + tuple(o._ids for o in others)

    def __bool__(self):
        return bool(self._terms if self._desc is None else self._ids)

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return False
        _make, mine, theirs = self._maps(other)
        return mine == theirs

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        make, mine, theirs = self._maps(other)
        out = dict(mine)
        for w, c in theirs.items():
            out[w] = out[w] + c if w in out else c
        return make(out)   # zeros dropped

    def __neg__(self) -> "HeckeElement":
        make, mine = self._maps()
        return make({w: -c for w, c in mine.items()})

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + -other

    def scale(self, scalar) -> "HeckeElement":
        make, mine = self._maps()
        return make({w: c.scale(scalar) for w, c in mine.items()})

    def __repr__(self):
        return " + ".join("(%s)*N[%r]" % (repr(c).replace("z", self._var), w)
                          for w, c in self.terms.items()) or "0"


class GradedElement(HeckeElement):
    """Graded normal form; scalars live in ZZ[r_1..r_d]."""

    __slots__ = ()
    _var = "r"     # the scalar parts' variable, as shown by repr


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

class HeckeDescriptor:
    """What the multiplication skeleton needs from an algebra.

    Subclasses provide ``simple_info``, ``act_coeff(matrix, c)`` (the
    action of a lattice automorphism on coefficients, for N_gamma) and
    ``_steps``: per simple root, the step (table, build, factor, bracket)
    of ``coeffs.map_monomials``, its table filled as lattice parts are met
    and kept as long as the descriptor, each entry holding the image of
    theta_x and both of its correction terms ready to add.
    """

    element_type = HeckeElement
    z_values: Optional[Tuple[Fraction, ...]] = None

    def __init__(self, rd: RootDatum, wext: ExtendedGroup, cocycle: Cocycle):
        self.rd = rd
        self.wext = wext
        self.d = rd.num_z_vars
        self.cocycle = cocycle
        cocycle.check(wext.rgroup)
        self._one = Fraction(1) if self.z_values else LaurentZ.one(self.d)
        self._coeff_zero = TorusAlgebraElement.zero(rd.rank)

    def scalar_one(self):
        return self._one

    def element(self, terms: Dict[ExtendedWeylElement, TorusAlgebraElement]
                ) -> HeckeElement:
        return self.element_type(terms)

    def zero(self) -> HeckeElement:
        return self.element({})

    def n_element(self, g: ExtendedWeylElement) -> HeckeElement:
        return self.element({g: TorusAlgebraElement.theta(
            (0,) * self.rd.rank, self.scalar_one())})

    def unit(self) -> HeckeElement:
        return self.n_element(self.wext.identity)

    def n_simple(self, i: int) -> HeckeElement:
        return self.n_element(ExtendedWeylElement(
            self.wext.weyl.simple_elements[i], self.wext.rgroup.identity))

    def n_gamma(self, label: str) -> HeckeElement:
        return self.n_element(ExtendedWeylElement(self.wext.weyl.identity,
                                                  label))


# ---------------------------------------------------------------------------
# Affine descriptor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimpleRootInfo:
    index: int
    root: Root
    zvar: int            # 1-based z-variable
    lam: int
    lam_star: Optional[int]
    halvable: bool


class AffineDescriptor(HeckeDescriptor):
    """All data of a twisted affine Hecke algebra, plus the scalar mode.

    ``z_values=None`` gives the symbolic algebra over ZZ[z^{+-1}]; a tuple
    of positive rationals gives the specialization at those values (the
    coefficients are in QQ-mode: integer numerators over one denominator).
    """

    def __init__(self, rd: RootDatum, wext: ExtendedGroup,
                 lam: Dict[Vector, int], lam_star: Dict[Vector, int],
                 cocycle: Cocycle,
                 z_values: Optional[Tuple[Fraction, ...]] = None):
        if wext.rd is not rd:
            raise HeckeError("extended group must be built on the same datum")
        self.z_values = tuple(Fraction(z) for z in z_values) if z_values else None
        super().__init__(rd, wext, cocycle)
        self.lam = {tuple(k): v for k, v in lam.items()}
        self.lam_star = {tuple(k): v for k, v in lam_star.items()}
        if self.z_values is not None:
            if len(self.z_values) != self.d:
                raise HeckeError("expected %d z-values" % self.d)
            if any(z <= 0 for z in self.z_values):
                raise HeckeError("z-values must be positive rationals")
        self._validate_params()
        self.simple_info = tuple(self._simple_info(i)
                                 for i in range(len(rd.simple_roots)))
        self._steps = tuple(map(self._step, self.simple_info))

    # -- validation ----------------------------------------------------

    def _validate_params(self):
        rd = self.rd
        nondiv = {r.vector: r for r in rd.nondivisible_roots}
        halvable = {v for v, r in nondiv.items() if r.halvable}
        if set(self.lam) != set(nondiv):
            raise HeckeError("lambda must be defined exactly on the "
                             "nondivisible roots")
        if set(self.lam_star) != halvable:
            raise HeckeError("lambda* must be defined exactly on the roots "
                             "with halvable coroot")
        if any(v < 0 for v in self.lam.values()) or \
           any(v < 0 for v in self.lam_star.values()):
            raise HeckeError("parameters must be nonnegative integers")
        # a simple reflection moves only the roots pairing nonzero with its
        # coroot, and those meet the coroot's support
        images = [{v: reflect(v, s.vector, s.coroot)
                   for v in rd.roots_meeting(s.coroot)}
                  for s in rd.simple_roots]
        images += self.wext.root_images.values()
        for image in images:
            for v, w in image.items():
                if v in nondiv and self.lam[v] != self.lam.get(w):
                    raise HeckeError("lambda is not W-invariant")
                if v in halvable and self.lam_star[v] != self.lam_star.get(w):
                    raise HeckeError("lambda* is not W-invariant")
        for image in self.wext.root_images.values():
            for r in rd.roots:
                if rd.root(image[r.vector]).component_index != \
                        r.component_index:
                    raise HeckeError("z-variable assignment is not stable "
                                     "under the diagram group")

    def _simple_info(self, i: int) -> SimpleRootInfo:
        root = self.rd.simple_roots[i]
        return SimpleRootInfo(
            i, root, root.component_index, self.lam[root.vector],
            self.lam_star.get(root.vector), root.halvable)

    # -- scalar ring ---------------------------------------------------

    def zbracket(self, j: int, m: int):
        """z_j^m - z_j^{-m} in the active scalar ring."""
        if self.z_values is None:
            return z_bracket(self.d, j, m)
        z = self.z_values[j - 1]
        return z ** m - z ** (-m)

    def _step(self, info: SimpleRootInfo) -> tuple:
        """N_s c = s(c) N_s + sum_x c_x D_x factor (Bernstein-Lusztig), with
        factor = (z^lambda - z^-lambda) + theta_{-alpha} (z^lambda* -
        z^-lambda*), the second summand only for a halvable coroot (D_x of
        ``bernstein_divide``); the bracket is z^lambda - z^-lambda.
        ``build`` reflects theta_x first, so a part whose image leaves the
        packed range raises before its D_x is built."""
        rank, alpha, coroot = self.rd.rank, info.root.vector, info.root.coroot
        terms = {(0,) * rank: self.zbracket(info.zvar, info.lam)}
        bracket = TorusAlgebraElement(rank, terms)
        if info.halvable:
            terms[vscale(alpha, -1)] = self.zbracket(
                info.zvar, info.lam_star)
        factor = TorusAlgebraElement(rank, terms)

        def build(x):
            return (TorusAlgebraElement.theta(reflect(x, alpha, coroot), 1),
                    bernstein_divide(x, info.root, info.halvable, 1))
        return {}, build, factor, bracket

    def zmonomial(self, exps: Sequence[int]):
        if self.z_values is None:
            return LaurentZ.monomial(self.d, tuple(exps))
        v = Fraction(1)
        for z, e in zip(self.z_values, exps):
            v *= z ** e
        return v

    # -- the commutation rule ------------------------------------------

    def act_coeff(self, matrix: Matrix, c: TorusAlgebraElement
                  ) -> TorusAlgebraElement:
        return c.act_matrix(matrix)

    # -- element constructors -------------------------------------------

    def theta_elem(self, x: Sequence[int]) -> HeckeElement:
        return self.element({self.wext.identity: TorusAlgebraElement.theta(
            tuple(x), self.scalar_one())})

    def specialized(self, z_values: Sequence[Fraction]) -> "AffineDescriptor":
        return AffineDescriptor(self.rd, self.wext, self.lam, self.lam_star,
                                self.cocycle, tuple(z_values))


def spread_invariant(rd: RootDatum, wext: ExtendedGroup,
                     seeds: Dict[Vector, int]) -> Dict[Vector, int]:
    """Complete a vector->value map to a W_ext-invariant function on the
    W_ext-orbits of the seed vectors."""
    out: Dict[Vector, int] = {}
    for v, val in seeds.items():
        for m in map(wext.table.action, range(len(wext.table.labels))):
            w = mat_apply(m, v)
            if out.get(w, val) != val:
                raise HeckeError("seed values collide on an orbit")
            out[w] = val
    return out


# ---------------------------------------------------------------------------
# Multiplication: one skeleton for the affine and the graded algebra
# ---------------------------------------------------------------------------

def _ns_mul(desc: HeckeDescriptor, i: int, blk: list) -> list:
    """Left multiplication by N_{s_i} on a block: N_s (c N_u) = s(c)
    N_{s u} + correction N_u, with the bracket term only where s u is
    shorter than u, in one ``map_monomials`` call."""
    table = desc.wext.table
    return map_monomials(blk, desc._steps[i], table.perms[i], table.lengths)


def _ngamma_mul(desc: HeckeDescriptor, label: str,
                terms: Dict[int, TorusAlgebraElement]) -> list:
    """Left multiplication by N_gamma on terms keyed by table ids."""
    if label == desc.wext.rgroup.identity:
        return block(terms)
    amat = desc.wext.rgroup.matrix(label)
    table = desc.wext.table
    perm, labels = table.perms[table.gen_index[label]], table.labels
    return block({perm[u]: cg if desc.cocycle(label, labels[u]) == 1 else -cg
                  for u, c in terms.items()
                  for cg in [desc.act_coeff(amat, c)]})


def _ids(desc: HeckeDescriptor, elem: HeckeElement
         ) -> Dict[int, TorusAlgebraElement]:
    """``elem``'s id map, first bound to ``desc`` from its ``terms`` (read
    under any old binding) by one ``table.index`` lookup per key;
    HeckeError, and no binding, unless every key is in W_ext and every
    coefficient has the rank and scalar mode (QQ iff specialized)."""
    if elem._desc is desc:
        return elem._ids
    index = desc.wext.table.index
    rank, specialized = desc.rd.rank, desc.z_values is not None
    out: Dict[int, TorusAlgebraElement] = {}
    for key, c in elem.terms.items():
        u = index.get(key)
        if u is None or c.rank != rank:
            raise HeckeError("element does not belong to this descriptor")
        if not (c.den if specialized else c.den is None):
            raise HeckeError("element scalar mode does not match the "
                             "descriptor (symbolic vs specialized)")
        out[u] = c
    elem._desc, elem._ids = desc, out
    return out


def _keyed(desc: HeckeDescriptor, coeffs: Dict[int, TorusAlgebraElement]
           ) -> HeckeElement:
    """The element bound to ``desc`` with id map ``coeffs``, kept as is."""
    elem = object.__new__(desc.element_type)
    elem._desc, elem._ids, elem._terms = desc, coeffs, None
    return elem


def multiply(desc: HeckeDescriptor, a: HeckeElement, b: HeckeElement
             ) -> HeckeElement:
    """Exact product in normal form, affine or graded.

    For each label gamma of the terms c N_w N_gamma of ``a``, N_gamma b is
    computed once; N_s then follows for each letter of the recorded word
    of w^-1 (a reduced word of w read right to left).  These words are
    closed under prefixes, so a walk in lexicographic order with a stack
    of partial products (blocks) makes one ``_ns_mul`` per node of their
    trie, and each word one ``coeffs.mul_into`` into the output block.

    Both factors must belong to ``desc`` (``HeckeError`` otherwise).  The
    first product on a descriptor builds the W_ext table, O(|W_ext|) time
    and memory, under the same ``ENUMERATION_CAP`` as ``affine_to_graded``
    and ``count``."""
    a_ids, b_ids = _ids(desc, a), _ids(desc, b)
    wg, table = desc.wext.weyl, desc.wext.table
    # id k |W| + j is (w_j, l_k); e0 + j is (w_j, e)
    nw = len(table.inverse) // desc.wext.rgroup.order()
    e0 = table.identity - table.identity % nw
    weyl_elements, labels = wg.enumerate(), {}
    for u, c in a_ids.items():
        w_inv = weyl_elements[table.inverse[e0 + u % nw] % nw]
        labels.setdefault(table.labels[u], []).append(
            (wg.reduced_word(w_inv), c))
    out = block({})
    for label, words in labels.items():
        # (i_1 .. i_k, N_{s_{i_k}} .. N_{s_{i_1}} N_gamma b) along the word
        path = [((), _ngamma_mul(desc, label, b_ids))]
        for word, c in sorted(words, key=lambda t: t[0]):
            while word[:len(path[-1][0])] != path[-1][0]:
                path.pop()
            for i in word[len(path[-1][0]):]:
                prefix, t = path[-1]
                path.append((prefix + (i,), _ns_mul(desc, i, t)))
            mul_into(out, c, path[-1][1])
    return _keyed(desc, settle(out, desc._coeff_zero))


graded_multiply = multiply


# ---------------------------------------------------------------------------
# Specialization, the z = 1 crossed product, centrality
# ---------------------------------------------------------------------------

def quotient_z1(desc: AffineDescriptor) -> AffineDescriptor:
    """The crossed-product quotient at z_1 = .. = z_d = 1."""
    return desc.specialized(tuple(Fraction(1) for _ in range(desc.d)))


def multiply_crossed(desc: AffineDescriptor, a: HeckeElement, b: HeckeElement
                     ) -> HeckeElement:
    """Independent crossed-product multiplication on O(T) x| ZZ[W_ext, cocycle]:
    (c_w N_w)(d_v N_v) = cocycle * c_w (w . d_v) N_{w v}.  Used as the
    degeneration oracle for the z = 1 quotient."""
    table = desc.wext.table
    labels, b_ids = table.labels, _ids(desc, b)
    out: Dict[int, TorusAlgebraElement] = {}
    for w, cw in _ids(desc, a).items():
        m = table.action(w)
        for v, dv in b_ids.items():
            prod = cw * dv.act_matrix(m)
            if desc.cocycle(labels[w], labels[v]) == -1:
                prod = -prod
            wv = table.mult(w, v)
            out[wv] = out[wv] + prod if wv in out else prod
    return _keyed(desc, {u: c for u, c in out.items() if c})


def symmetrize(desc: AffineDescriptor, x: Sequence[int]) -> HeckeElement:
    """Orbit sum sum_{y in W_ext x} theta_y (central by the Bernstein centre)."""
    return HeckeElement({desc.wext.identity: TorusAlgebraElement(
        desc.rd.rank, spread_invariant(desc.rd, desc.wext,
                                       {tuple(x): desc.scalar_one()}))})


def is_central(desc: AffineDescriptor, a: HeckeElement) -> bool:
    """Commutation against theta-generators, all N_s and all N_gamma."""
    gens = [desc.theta_elem(tuple(1 if k == i else 0 for k in range(desc.rd.rank)))
            for i in range(desc.rd.rank)]
    gens += [desc.n_simple(i) for i in range(len(desc.rd.simple_roots))]
    gens += [desc.n_gamma(l) for l in desc.wext.rgroup.labels
             if l != desc.wext.rgroup.identity]
    return all(multiply(desc, a, g) == multiply(desc, g, a) for g in gens)


# ---------------------------------------------------------------------------
# Serialization (canonical text form)
# ---------------------------------------------------------------------------

def serialize_element(desc: AffineDescriptor, elem: HeckeElement) -> str:
    """Deterministic text form: one `theta[..]*z..*N[word|label]` per term,
    ordered lattice-lexicographically, then by z-exponents, then by the
    group element (length, matrix, diagram label)."""
    terms = _ids(desc, elem)
    if not terms:
        return "0"
    wg, table, rank = desc.wext.weyl, desc.wext.table, desc.rd.rank
    elements, labels = table.elements, table.labels
    ws = sorted(terms, key=lambda u: (table.lengths[u],
                                      elements[u].weyl.matrix, labels[u]))
    nstrs = ["N[%s|%s]" % (" ".join(str(i + 1) for i in wg.reduced_word(
        elements[u].weyl)), labels[u]) for u in ws]
    chunks = []
    for exps, js in monomial_groups([terms[u] for u in ws], desc.d):
        x = exps[:rank]
        head = "theta[%s]*" % ",".join(map(str, x)) if any(x) else ""
        head += "".join("z%d^%d*" % (j + 1, e)
                        for j, e in enumerate(exps[rank:]) if e)
        for i, cval in js:
            mag = abs(cval)
            chunks.append(("+ " if cval > 0 else "- ") + (
                "" if mag == 1 else "%s*" % mag) + head + nstrs[i])
    text = " ".join(chunks)
    return text[2:] if text[0] == "+" else "-" + text[2:]


# ---------------------------------------------------------------------------
# Graded side
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedSimpleInfo:
    index: int
    root: Root
    k: int


class GradedDescriptor(HeckeDescriptor):
    """Twisted graded Hecke algebra on a root (sub)system.

    Group elements are pairs (u, label): u in the Weyl group of the
    subsystem, label indexing the relative diagram group whose members
    carry full ambient action matrices.
    """

    element_type = GradedElement

    def __init__(self, sub_rd: RootDatum, k: Dict[Vector, int],
                 diagram_matrices: Dict[str, Matrix],
                 diagram_table: Dict[Tuple[str, str], str],
                 cocycle: Cocycle):
        self.k = {tuple(v): val for v, val in k.items()}
        if set(self.k) != {r.vector for r in sub_rd.nondivisible_roots}:
            raise HeckeError("k must be defined exactly on the nondivisible roots")
        super().__init__(sub_rd, ExtendedGroup(sub_rd, RGroup(
            cocycle.labels, diagram_matrices, diagram_table)),
            cocycle)
        self.weyl = self.wext.weyl
        self.diagram_matrices = self.wext.rgroup.matrices
        self.simple_info = tuple(GradedSimpleInfo(i, s, self.k[s.vector])
                                 for i, s in enumerate(sub_rd.simple_roots))
        self._steps = tuple(map(self._step, self.simple_info))

    def xi(self, coeffs: Sequence[int]) -> GradedElement:
        """Degree-one polynomial sum coeffs[i] x_i."""
        terms = {tuple(1 if k == i else 0 for k in range(self.rd.rank)):
                 LaurentZ.const(self.d, c) for i, c in enumerate(coeffs) if c}
        return self.element({self.wext.identity:
                             TorusAlgebraElement(self.rd.rank, terms)})

    # -- the commutation rule ------------------------------------------

    def act_coeff(self, matrix: Matrix, c: TorusAlgebraElement
                  ) -> TorusAlgebraElement:
        return c.substitute(matrix)

    def _step(self, info: GradedSimpleInfo) -> tuple:
        """N_s c = s(c) N_s + k(alpha) r_j (c - s c)/alpha, with no bracket
        (the group algebra embeds); s fixes r, so the divided difference is
        linear over ZZ[r].  alpha divides m - s m exactly, so
        ArithmeticError means an internal inconsistency.  ``substitute``
        takes s as the matrix ``WeylGroup.simple_elements`` derives."""
        def build(x):
            m = TorusAlgebraElement.theta(x, 1)
            ms = m.substitute(self.weyl.simple_elements[info.index].matrix)
            return ms, (m - ms).divide_linear(info.root.vector)
        factor = TorusAlgebraElement(self.rd.rank, {
            (0,) * self.rd.rank: LaurentZ.var_power(
                self.d, info.root.component_index, 1, info.k)})
        return {}, build, factor, None


def im_involution(desc: GradedDescriptor, a: GradedElement) -> GradedElement:
    """N_w -> sign(w) N_w on the reflection part (trivial on the diagram
    part), r_j -> r_j, xi -> -xi in degree one; sign(w) = (-1)^l(w).  So
    a monomial x^m r^e of the coefficient of N_w gets the sign (-1)^(l(w) +
    sum of m), in one ``coeffs.negate_lattice`` pass with l(w) read by id.
    ``a`` must belong to ``desc`` (``HeckeError`` otherwise)."""
    lengths = desc.wext.table.lengths
    return _keyed(desc, {u: negate_lattice(c, lengths[u])
                         for u, c in _ids(desc, a).items()})


# ---------------------------------------------------------------------------
# Affine -> graded reduction at a finite-order torus point
# ---------------------------------------------------------------------------

def affine_to_graded(desc: AffineDescriptor, exponents: Vector, order: int
                     ) -> GradedDescriptor:
    """Graded descriptor at a finite-order point t.

    Roots of the subsystem: alpha with alpha(t) = 1, together with the
    coroot-halvable alpha with alpha(t) = -1.  Parameters:
    k(alpha) = 2 lambda(alpha) for non-halvable alpha, and
    k(alpha) = lambda(alpha) + alpha(t) lambda^*(alpha) for halvable ones.
    """
    stab = stabilizer_of_point(desc.wext, tuple(exponents), order)
    sub = stab.subsystem
    k = {v: desc.lam[v] + stab.root_values[v] * desc.lam_star[v]
         if r.halvable else 2 * desc.lam[v]
         for r in sub.nondivisible_roots for v in [r.vector]}
    # the relative diagram group on table ids, (w_j, l_k) being k |W| + j
    wt = desc.wext.table
    nw = len(wt.labels) // desc.wext.rgroup.order()
    labels = ["e"]
    label_of: Dict[int, str] = {}
    for gid in sorted(stab.diagram_part, key=lambda g: (g % nw, wt.labels[g])):
        if gid == wt.identity:
            label_of[gid] = "e"
        else:
            label_of[gid] = "g%d" % len(labels)
            labels.append(label_of[gid])
    matrices = {l: wt.action(gid) for gid, l in label_of.items()}
    table: Dict[Tuple[str, str], str] = {}
    cocycle_table: Dict[Tuple[str, str], int] = {}
    for ga, a in label_of.items():
        for gb, b in label_of.items():
            prod = label_of.get(wt.mult(ga, gb))
            if prod is None:
                raise HeckeError("relative diagram part is not closed")
            table[(a, b)] = prod
            cocycle_table[(a, b)] = desc.cocycle(wt.labels[ga], wt.labels[gb])
    cocycle = Cocycle(labels, cocycle_table)
    return GradedDescriptor(sub, k, matrices, table, cocycle)

