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
left actions ``_ns_mul`` and ``_ngamma_mul``); a descriptor supplies
only its action on coefficients (``act_coeff``) and its N_s step
(``ns_step``: s(c) and the correction term together).  Basis keys
are ``ExtendedWeylElement``s; ``multiply`` turns them into W_ext
``GroupTable`` ids on entry and back on exit, and in between moves them
by the table's left-multiplication permutations and compares lengths
from its ``lengths``; it never multiplies group elements itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .coeffs import LaurentZ, TorusAlgebraElement, z_bracket
from .root_data import Root, RootDatum, pairing, vscale, vsub
from .weyl import (Cocycle, ExtendedGroup, ExtendedWeylElement, Matrix,
                   RGroup, Vector, WeylElement, identity_matrix, mat_apply,
                   stabilizer_of_point)


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
    """Normal form sum_w c_w N_w; keys are extended Weyl elements."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[ExtendedWeylElement, TorusAlgebraElement]):
        self.terms = {w: c for w, c in terms.items() if c}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, HeckeElement) and self.terms == other.terms

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        out = dict(self.terms)
        for w, c in other.terms.items():
            _add_term(out, w, c)
        return type(self)(out)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + other.scale(-1)

    def scale(self, scalar) -> "HeckeElement":
        return type(self)({w: c.scale(scalar) for w, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join("(%r)*N[%r]" % (c, w) for w, c in self.terms.items())


class GradedElement(HeckeElement):
    """Graded normal form; scalars live in ZZ[r_1..r_d]."""

    __slots__ = ()

    def __repr__(self):
        if not self.terms:
            return "0"
        # rename the display variable of the scalar parts
        return " + ".join("(%s)*N[%r]" % (repr(c).replace("z", "r"), w)
                          for w, c in self.terms.items())


def _add_term(out: Dict, key, c: TorusAlgebraElement):
    if not c:
        return
    if key in out:
        s = out[key] + c
        if s:
            out[key] = s
        else:
            del out[key]
    else:
        out[key] = c


# ---------------------------------------------------------------------------
# Descriptors
# ---------------------------------------------------------------------------

class HeckeDescriptor:
    """What the multiplication skeleton needs from an algebra.

    Subclasses provide ``simple_info``, ``act_coeff(matrix, c)`` (the
    action of a lattice automorphism on coefficients, for N_gamma) and
    ``ns_step(info, c, shorter)`` -> the coefficients (s(c), correction)
    of N_{s u} and N_u in N_s * c N_u; shorter says if l(s u) < l(u).
    """

    element_type = HeckeElement
    z_values: Optional[Tuple[Fraction, ...]] = None

    def __init__(self, rd: RootDatum, wext: ExtendedGroup, cocycle: Cocycle):
        self.rd = rd
        self.wext = wext
        self.d = rd.num_z_vars
        self.cocycle = cocycle
        cocycle.check(wext.rgroup.table, wext.rgroup.identity)

    def scalar_one(self):
        return LaurentZ.one(self.d) if self.z_values is None else Fraction(1)

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
            WeylElement(self.simple_info[i].matrix), self.wext.rgroup.identity))

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
    matrix: Matrix
    zvar: int            # 1-based z-variable
    lam: int
    lam_star: Optional[int]
    halvable: bool


class AffineDescriptor(HeckeDescriptor):
    """All data of a twisted affine Hecke algebra, plus the scalar mode.

    ``z_values=None`` gives the symbolic algebra over ZZ[z^{+-1}]; a tuple
    of positive rationals gives the specialization at those values (the
    coefficients become Fractions).
    """

    def __init__(self, rd: RootDatum, wext: ExtendedGroup,
                 lam: Dict[Vector, int], lam_star: Dict[Vector, int],
                 cocycle: Cocycle,
                 z_values: Optional[Tuple[Fraction, ...]] = None):
        if wext.rd is not rd:
            raise HeckeError("extended group must be built on the same datum")
        super().__init__(rd, wext, cocycle)
        self.lam = {tuple(k): v for k, v in lam.items()}
        self.lam_star = {tuple(k): v for k, v in lam_star.items()}
        self.z_values = tuple(Fraction(z) for z in z_values) if z_values else None
        if self.z_values is not None:
            if len(self.z_values) != self.d:
                raise HeckeError("expected %d z-values" % self.d)
            if any(z <= 0 for z in self.z_values):
                raise HeckeError("z-values must be positive rationals")
        self._validate_params()
        self.simple_info = tuple(self._simple_info(i)
                                 for i in range(len(rd.simple_roots)))
        self._corrections = tuple(self._correction_data(info)
                                  for info in self.simple_info)

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
        mats = list(rd.simple_reflections())
        mats += [self.wext.rgroup.matrix(l) for l in self.wext.rgroup.labels]
        for m in mats:
            for v in nondiv:
                w = mat_apply(m, v)
                if self.lam[v] != self.lam.get(w):
                    raise HeckeError("lambda is not W-invariant")
                if v in halvable and self.lam_star[v] != self.lam_star.get(w):
                    raise HeckeError("lambda* is not W-invariant")
        for l in self.wext.rgroup.labels:
            m = self.wext.rgroup.matrix(l)
            for r in rd.roots:
                img = rd.root(mat_apply(m, r.vector))
                if img.component_index != r.component_index:
                    raise HeckeError("z-variable assignment is not stable "
                                     "under the diagram group")

    def _simple_info(self, i: int) -> SimpleRootInfo:
        root = self.rd.simple_roots[i]
        return SimpleRootInfo(
            index=i, root=root, matrix=self.rd.simple_reflections()[i],
            zvar=root.component_index, lam=self.lam[root.vector],
            lam_star=self.lam_star.get(root.vector), halvable=root.halvable)

    # -- scalar ring ---------------------------------------------------

    def zbracket(self, j: int, m: int):
        """z_j^m - z_j^{-m} in the active scalar ring."""
        if self.z_values is None:
            return z_bracket(self.d, j, m)
        z = self.z_values[j - 1]
        return z ** m - z ** (-m)

    def _correction_data(self, info: SimpleRootInfo) -> tuple:
        """(factor, bracket) for the N_s step: G_alpha(x) = D factor =
        D (z^lambda - z^-lambda) + theta_{-alpha} D (z^lambda* -
        z^-lambda*), the second summand only for a halvable coroot, which
        halves the pairing and steps by 2 alpha (D the telescoping quotient
        of ``bernstein_divide``); bracket is the constant z^lambda -
        z^-lambda of the quadratic relation."""
        rank = self.rd.rank
        zero = (0,) * rank
        bracket = self.zbracket(info.zvar, info.lam)
        quadratic = TorusAlgebraElement(rank, {zero: bracket})
        if not info.halvable:
            return quadratic, quadratic
        return TorusAlgebraElement(rank, {
            zero: bracket, vscale(info.root.vector, -1):
            self.zbracket(info.zvar, info.lam_star)}), quadratic

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

    def ns_step(self, info: SimpleRootInfo, c: TorusAlgebraElement,
                shorter: bool) -> tuple:
        """s(c) and the Bernstein-Lusztig correction sum_x c_x G_alpha(x),
        plus (z^lambda - z^-lambda) s(c) when s u is shorter than u (the
        quadratic relation), in one pass over c."""
        factor, bracket = self._corrections[info.index]
        root = info.root
        return c.reflect_telescope(root.vector, root.coroot, info.halvable,
                                   factor, bracket if shorter else None)

    # -- element constructors -------------------------------------------

    def theta_elem(self, x: Sequence[int]) -> HeckeElement:
        return self.element({self.wext.identity: TorusAlgebraElement.theta(
            tuple(x), self.scalar_one())})

    def specialized(self, z_values: Sequence[Fraction]) -> "AffineDescriptor":
        return AffineDescriptor(self.rd, self.wext, self.lam, self.lam_star,
                                self.cocycle, tuple(z_values))


def spread_invariant(rd: RootDatum, wext: ExtendedGroup,
                     seeds: Dict[Vector, int]) -> Dict[Vector, int]:
    """Complete a root->value map to a W_ext-invariant function on the
    W_ext-orbits of the seed roots."""
    out: Dict[Vector, int] = {}
    for v, val in seeds.items():
        for m in wext.table.actions:
            w = mat_apply(m, v)
            if out.get(w, val) != val:
                raise HeckeError("seed values collide on an orbit")
            out[w] = val
    return out


# ---------------------------------------------------------------------------
# Multiplication: one skeleton for the affine and the graded algebra
# ---------------------------------------------------------------------------

def _ns_mul(desc: HeckeDescriptor, i: int,
            terms: Dict[int, TorusAlgebraElement]
            ) -> Dict[int, TorusAlgebraElement]:
    """Left multiplication by N_{s_i} on terms keyed by table ids:
    N_s (c N_u) = s(c) N_{s u} + correction N_u, both from ``ns_step``."""
    info = desc.simple_info[i]
    table = desc.wext.table
    perm, lengths = table.perms[i], table.lengths
    out: Dict[int, TorusAlgebraElement] = {}
    for u, c in terms.items():
        su = perm[u]
        cs, corr = desc.ns_step(info, c, lengths[su] < lengths[u])
        _add_term(out, su, cs)
        _add_term(out, u, corr)
    return out


def _ngamma_mul(desc: HeckeDescriptor, label: str,
                terms: Dict[int, TorusAlgebraElement]
                ) -> Dict[int, TorusAlgebraElement]:
    """Left multiplication by N_gamma on terms keyed by table ids."""
    if label == desc.wext.rgroup.identity:
        return terms
    amat = desc.wext.rgroup.matrix(label)
    table = desc.wext.table
    perm, labels = table.perms[table.gen_index[label]], table.labels
    out: Dict[int, TorusAlgebraElement] = {}
    for u, c in terms.items():
        cg = desc.act_coeff(amat, c)
        sign = desc.cocycle(label, labels[u])
        _add_term(out, perm[u], cg if sign == 1 else -cg)
    return out


def _check_element(desc: HeckeDescriptor, elem: HeckeElement) -> None:
    index = desc.wext.table.index
    specialized = desc.z_values is not None
    for key, c in elem.terms.items():
        if key not in index or c.rank != desc.rd.rank:
            raise HeckeError("element does not belong to this descriptor")
        types = set(map(type, c.terms.values()))
        if types - {Fraction} if specialized else Fraction in types:
            raise HeckeError("element scalar mode does not match the "
                             "descriptor (symbolic vs specialized)")


def multiply(desc: HeckeDescriptor, a: HeckeElement, b: HeckeElement
             ) -> HeckeElement:
    """Exact product in normal form, affine or graded.

    Both factors must have their keys in W_ext (``HeckeError``
    otherwise).  The first product on a descriptor builds the W_ext
    table, O(|W_ext|) time and memory, under the same
    ``ENUMERATION_CAP`` as ``affine_to_graded`` and ``count``."""
    _check_element(desc, a)
    _check_element(desc, b)
    wg, table = desc.wext.weyl, desc.wext.table
    b_ids = {table.index[key]: c for key, c in b.terms.items()}
    out: Dict[int, TorusAlgebraElement] = {}
    for key, c in a.terms.items():
        t = _ngamma_mul(desc, key.diagram, b_ids)
        for i in reversed(wg.reduced_word(key.weyl)):
            t = _ns_mul(desc, i, t)
        for u, c2 in t.items():
            _add_term(out, u, c * c2)
    return desc.element({table.elements[u]: c for u, c in out.items()})


graded_multiply = multiply


def act(desc: AffineDescriptor, g: ExtendedWeylElement,
        e: TorusAlgebraElement) -> TorusAlgebraElement:
    """theta_x -> theta_{g x} with z-coefficients fixed."""
    return e.act_matrix(desc.wext.action_matrix(g))


# ---------------------------------------------------------------------------
# Specialization, the z = 1 crossed product, centrality
# ---------------------------------------------------------------------------

def specialize_element(spec_desc: AffineDescriptor, elem: HeckeElement
                       ) -> HeckeElement:
    """Map a symbolic element into the specialized algebra."""
    if spec_desc.z_values is None:
        raise HeckeError("target descriptor is not specialized")
    out: Dict[ExtendedWeylElement, TorusAlgebraElement] = {}
    zvals = spec_desc.z_values
    for w, c in elem.terms.items():
        terms: Dict[Vector, Fraction] = {}
        for x, e, v in c.monomials(len(zvals)):
            terms[x] = terms.get(x, 0) + v * spec_desc.zmonomial(e)
        _add_term(out, w, TorusAlgebraElement(c.rank, terms))
    return HeckeElement(out)


def quotient_z1(desc: AffineDescriptor) -> AffineDescriptor:
    """The crossed-product quotient at z_1 = .. = z_d = 1."""
    return desc.specialized(tuple(Fraction(1) for _ in range(desc.d)))


def multiply_crossed(desc: AffineDescriptor, a: HeckeElement, b: HeckeElement
                     ) -> HeckeElement:
    """Independent crossed-product multiplication on O(T) x| ZZ[W_ext, cocycle]:
    (c_w N_w)(d_v N_v) = cocycle * c_w (w . d_v) N_{w v}.  Used as the
    degeneration oracle for the z = 1 quotient."""
    out: Dict[ExtendedWeylElement, TorusAlgebraElement] = {}
    for w, cw in a.terms.items():
        for v, dv in b.terms.items():
            sign = desc.cocycle(w.diagram, v.diagram)
            moved = dv.act_matrix(desc.wext.action_matrix(w))
            prod = cw * moved
            if sign == -1:
                prod = -prod
            _add_term(out, desc.wext.mult(w, v), prod)
    return HeckeElement(out)


def symmetrize(desc: AffineDescriptor, x: Sequence[int]) -> HeckeElement:
    """Orbit sum sum_{y in W_ext x} theta_y (central by the Bernstein centre)."""
    orbit = {mat_apply(m, x) for m in desc.wext.table.actions}
    one = desc.scalar_one()
    coeff = TorusAlgebraElement(desc.rd.rank, {y: one for y in orbit})
    return HeckeElement({desc.wext.identity: coeff})


def is_central(desc: AffineDescriptor, a: HeckeElement) -> bool:
    """Commutation against theta-generators, all N_s and all N_gamma."""
    gens = [desc.theta_elem(tuple(1 if k == i else 0 for k in range(desc.rd.rank)))
            for i in range(desc.rd.rank)]
    gens += [desc.n_simple(i) for i in range(len(desc.rd.simple_roots))]
    gens += [desc.n_gamma(l) for l in desc.wext.rgroup.labels
             if l != desc.wext.rgroup.identity]
    for g in gens:
        if multiply(desc, a, g) != multiply(desc, g, a):
            return False
    return True


# ---------------------------------------------------------------------------
# Serialization (canonical text form)
# ---------------------------------------------------------------------------

def serialize_element(desc: AffineDescriptor, elem: HeckeElement) -> str:
    """Deterministic text form: one `theta[..]*z..*N[word|label]` per term,
    ordered lattice-lexicographically, then by z-exponents, then by the
    group element (length, matrix, diagram label)."""
    if not elem.terms:
        return "0"
    pieces: List[Tuple[tuple, tuple, tuple, str, object]] = []
    for w in elem.terms:
        gkey = (desc.wext.weyl.length(w.weyl), w.weyl.matrix, w.diagram)
        word = " ".join(str(i + 1) for i in desc.wext.weyl.reduced_word(w.weyl))
        nstr = "N[%s|%s]" % (word, w.diagram)
        for x, ze, cval in elem.terms[w].monomials(desc.d):
            factors = []
            if any(x):
                factors.append("theta[%s]" % ",".join(map(str, x)))
            for j, e in enumerate(ze):
                if e:
                    factors.append("z%d^%d" % (j + 1, e))
            factors.append(nstr)
            pieces.append((x, ze, gkey, "*".join(factors), cval))
    pieces.sort(key=lambda p: (p[0], p[1], p[2]))
    chunks = []
    for _, _, _, body, cval in pieces:
        mag = abs(cval)
        coef = "" if mag == 1 else "%s*" % mag
        term = coef + body
        if not chunks:
            chunks.append(term if cval > 0 else "-" + term)
        else:
            chunks.append(("+ " if cval > 0 else "- ") + term)
    return " ".join(chunks)


# ---------------------------------------------------------------------------
# Graded side
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedSimpleInfo:
    index: int
    root: Root
    matrix: Matrix
    rvar: int
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
                 cocycle: Cocycle, identity_label: str = "e"):
        self.k = {tuple(v): val for v, val in k.items()}
        if set(self.k) != {r.vector for r in sub_rd.nondivisible_roots}:
            raise HeckeError("k must be defined exactly on the nondivisible roots")
        super().__init__(sub_rd, ExtendedGroup(sub_rd, RGroup(
            cocycle.labels, diagram_matrices, diagram_table, identity_label)),
            cocycle)
        self.weyl = self.wext.weyl
        self.diagram_matrices = self.wext.rgroup.matrices
        self.simple_info = tuple(
            GradedSimpleInfo(i, s, sub_rd.simple_reflections()[i],
                             s.component_index, self.k[s.vector])
            for i, s in enumerate(sub_rd.simple_roots))

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

    def ns_step(self, info: GradedSimpleInfo, c: TorusAlgebraElement,
                shorter: bool) -> tuple:
        """s(c) and k(alpha) r_j (c - s c) / alpha; alpha divides c - s c
        exactly, so ``divide_linear`` raising ArithmeticError means an
        internal inconsistency."""
        cs = c.substitute(info.matrix)
        diff = c - cs
        if not (diff and info.k):
            return cs, TorusAlgebraElement.zero(self.rd.rank)
        return cs, diff.divide_linear(info.root.vector).scale(
            LaurentZ.var_power(self.d, info.rvar, 1, info.k))


def im_involution(desc: GradedDescriptor, a: GradedElement) -> GradedElement:
    """N_w -> sign(w) N_w on the reflection part (trivial on the diagram
    part), r_j -> r_j, xi -> -xi in degree one; sign(w) = (-1)^l(w)."""
    rank = desc.rd.rank
    neg = tuple(tuple(-int(i == j) for j in range(rank)) for i in range(rank))
    out: Dict[ExtendedWeylElement, TorusAlgebraElement] = {}
    for key, c in a.terms.items():
        c = c.substitute(neg)
        _add_term(out, key, -c if desc.weyl.length(key.weyl) % 2 else c)
    return desc.element(out)


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
    k: Dict[Vector, int] = {}
    for r in sub.nondivisible_roots:
        v = r.vector
        pair_mod = sum(a * b for a, b in zip(v, exponents)) % order
        if not desc.rd.root(v).halvable:
            if pair_mod != 0:
                raise HeckeError("non-halvable subsystem root with alpha(t) != 1")
            k[v] = 2 * desc.lam[v]
        else:
            if pair_mod == 0:
                sign = 1
            elif 2 * pair_mod % order == 0:
                sign = -1
            else:
                raise HeckeError("alpha(t) must be +-1 for halvable roots")
            k[v] = desc.lam[v] + sign * desc.lam_star[v]
    # the relative diagram group, closed on W_ext table ids
    wt = desc.wext.table
    labels = ["e"]
    label_of: Dict[int, str] = {}
    for gid in sorted(stab.diagram_part,
                      key=lambda g: (wt.elements[g].weyl.matrix, wt.labels[g])):
        if gid == wt.identity:
            label_of[gid] = "e"
        else:
            label_of[gid] = "g%d" % len(labels)
            labels.append(label_of[gid])
    matrices = {l: wt.actions[gid] for gid, l in label_of.items()}
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
    return GradedDescriptor(sub, k, matrices, table, cocycle, "e")


def graded_from_datum(rd: RootDatum, k: Dict[Vector, int]) -> GradedDescriptor:
    """Plain graded algebra of a root datum (trivial diagram part)."""
    return GradedDescriptor(
        rd, k, {"e": identity_matrix(rd.rank)}, {("e", "e"): "e"},
        Cocycle.trivial(("e",)), "e")
