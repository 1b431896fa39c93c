"""From an inertial datum to a twisted affine Hecke algebra descriptor.

An inertial datum is the combinatorial shadow of a Bernstein component
of enhanced L-parameters: a group family (Sp / SOodd / SOeven / GL / SL)
together with one block per inertial class of irreducible summands.  A
classical block records (side, dim tau, e, ell, partner ell, torsion);
a GL-family block records (d_i, e_i, torsion t_i) -- its ``dim`` field
carries d_i -- plus optionally the Levi block size m_i under ``levi``.

The assembled report contains the product root datum (one z-variable
per block), the extended Weyl group with its R-group, all lambda /
lambda* values, and the specialization data z_block = q^{torsion/2}
giving quadratic relations (T - q^{lambda*torsion})(T + 1) = 0.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .hecke import AffineDescriptor, HeckeError
from .params import a_from_ell, is_admissible_ell, lambda_from_jordan
from .root_data import (Root, RootDatum, RootDatumError, build_classical,
                        empty_datum, product, weyl_order_classical)
from .weyl import (ENUMERATION_CAP, Cocycle, ExtendedGroup, RGroup,
                   WeylError)

Torsion = Union[int, str]

GREEK = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
         "theta_", "iota", "kappa", "mu", "nu")

FAMILIES = ("Sp", "SOodd", "SOeven", "GL", "SL")


class ValidationError(ValueError):
    """Carries the full list of validation failures."""

    def __init__(self, errors: List[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass(frozen=True)
class BlockDatum:
    """One inertial class of summands.

    side "O"/"S": classical self-dual block, ``dim`` = dim tau,
    ``ell`` / ``partner_ell`` the multiplicities of tau and of its
    unramified-twist partner in the discrete part.  side "GL": either a
    non-self-dual pair in a classical group (``dim`` = dim tau) or a
    GL/SL-family block (``dim`` = d_i).  ``torsion`` is the torsion
    number t(tau): a positive integer or a symbolic name.
    """
    side: str
    dim: int
    e: int
    ell: int = 0
    partner_ell: Optional[int] = None
    torsion: Torsion = 1
    levi: Optional[int] = None

    def ell_total(self) -> int:
        return self.ell + (self.partner_ell or 0)

    def sort_key(self):
        side_order = {"S": 0, "O": 1, "GL": 2}[self.side]
        return (side_order, self.dim, self.e, self.ell, self.partner_ell or 0,
                str(self.torsion))


@dataclass(frozen=True)
class SLRGroupSpec:
    labels: Tuple[str, ...]
    matrices: Dict[str, Tuple[Tuple[int, ...], ...]]
    table: Dict[Tuple[str, str], str]
    cocycle: Dict[Tuple[str, str], int]
    translations: Dict[str, Tuple[Fraction, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class InertialDatum:
    family: str
    n: int
    blocks: Tuple[BlockDatum, ...]
    division_degree: int = 1
    sl_rgroup: Optional[SLRGroupSpec] = None


# ---------------------------------------------------------------------------
# JSON input
# ---------------------------------------------------------------------------

# The JSON shape of a datum.  A spec is (kind, arg): ("integer", minimum or
# None), ("string", minimum length), ("enum", allowed values), ("array",
# item spec), ("map", value spec) for an object with free keys, or
# ("object", table) with table = {field: (required, spec)}.  An integer is
# an int: true and 2.0 are not.  A torsion is a non-empty string or an
# integer at least 1.
DATUM_SHAPE = ("object", {
    "group": (True, ("object", {
        "family": (True, ("enum", FAMILIES)),
        "n": (True, ("integer", 0)),
        "division_degree": (False, ("integer", 1)),
    })),
    "blocks": (True, ("array", ("object", {
        "side": (True, ("enum", ("O", "S", "GL"))),
        "dim": (True, ("integer", 1)),
        "e": (True, ("integer", 0)),
        "ell": (False, ("integer", 0)),
        "partner_ell": (False, ("integer", 0)),
        "torsion": (False, ("torsion", 1)),
        "levi": (False, ("integer", 1)),
    }))),
    "sl_rgroup": (False, ("object", {
        "labels": (True, ("array", ("string", 0))),
        "matrices": (True, ("map", ("array", ("array", ("integer", None))))),
        "table": (True, ("map", ("string", 0))),
        "cocycle": (True, ("map", ("integer", None))),
        "translations": (False, ("map", ("array", None))),
    })),
})
_JSON_TYPES = {"integer": int, "string": str, "array": list, "map": dict,
               "object": dict}


def _check_shape(value, spec=DATUM_SHAPE) -> None:
    """ValidationError, worded as JSON Schema words it, for the first
    place where ``value`` leaves ``spec``."""
    kind, arg = spec
    if kind == "enum":
        if type(value) is not str or value not in arg:
            raise ValidationError(["%r is not one of %r" % (value, list(arg))])
        return
    name = {"map": "object", "torsion": "integer', 'string"}.get(kind, kind)
    if kind == "torsion":
        kind = "string" if type(value) is str else "integer"
    if type(value) is not _JSON_TYPES[kind]:
        raise ValidationError(["%r is not of type '%s'" % (value, name)])
    if kind == "integer" and arg is not None and value < arg:
        raise ValidationError(["%r is less than the minimum of %d"
                               % (value, arg)])
    if kind == "string" and len(value) < arg:
        raise ValidationError(["%r should be non-empty" % (value,)])
    if kind == "array" and arg is not None:
        for item in value:
            _check_shape(item, arg)
    if kind == "map":
        for item in value.values():
            _check_shape(item, arg)
    if kind == "object":
        extra = sorted(set(value) - set(arg))
        if extra:
            raise ValidationError([
                "Additional properties are not allowed (%s %s unexpected)"
                % (", ".join(map(repr, extra)),
                   "was" if len(extra) == 1 else "were")])
        for key, (required, item) in arg.items():
            if key in value:
                _check_shape(value[key], item)
            elif required:
                raise ValidationError(["%r is a required property" % key])


def _translation_entry(s) -> Fraction:
    """An SL translation entry: an integer or a "p/q" string.  Floats and
    decimal strings are refused: 0.1 would be read as a fraction with
    denominator 2^55 and make the common point order huge."""
    if isinstance(s, bool) or not (
            isinstance(s, int) or
            isinstance(s, str) and re.fullmatch(r"[+-]?\d+(/\d+)?", s)):
        raise ValueError("translation entry %r is not an integer or a "
                         "'p/q' string" % (s,))
    return Fraction(s)


def datum_from_json(doc: Union[str, dict]) -> InertialDatum:
    """Parse a JSON inertial datum after ``_check_shape`` (unknown fields
    rejected); semantic validation happens in ``validate``."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    _check_shape(doc)
    sl = None
    if "sl_rgroup" in doc:
        raw = doc["sl_rgroup"]
        try:
            translations = {
                l: tuple(_translation_entry(s) for s in vec)
                for l, vec in raw.get("translations", {}).items()}
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(["sl_rgroup: %s" % exc]) from exc
        sl = SLRGroupSpec(
            labels=tuple(raw["labels"]),
            matrices={l: tuple(map(tuple, m))
                      for l, m in raw["matrices"].items()},
            table={tuple(k.split(",")): v for k, v in raw["table"].items()},
            cocycle={tuple(k.split(",")): v
                     for k, v in raw["cocycle"].items()},
            translations=translations)
    # the checked field names are those of the dataclasses
    return InertialDatum(blocks=tuple(BlockDatum(**b) for b in doc["blocks"]),
                         sl_rgroup=sl, **doc["group"])


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(datum: InertialDatum) -> InertialDatum:
    """Check all block invariants and the rank accounting; returns the
    normalized datum (blocks canonically sorted)."""
    if datum.family not in FAMILIES:
        raise ValidationError(["unknown family %r" % (datum.family,)])
    errors: List[str] = []
    if datum.sl_rgroup is not None and datum.family != "SL":
        errors.append("sl_rgroup is only meaningful for SL data")
    classical = datum.family in ("Sp", "SOodd", "SOeven")
    for i, b in enumerate(datum.blocks):
        tag = "block %d (%s)" % (i + 1, b.side)
        if b.side not in ("O", "S", "GL"):
            errors.append("%s: unknown side" % tag)
            continue
        if b.dim < 1:
            errors.append("%s: dim must be >= 1" % tag)
        if isinstance(b.torsion, int) and b.torsion < 1:
            errors.append("%s: torsion must be >= 1" % tag)
        if b.side == "GL":
            if b.ell or b.partner_ell:
                errors.append("%s: GL blocks must have ell = 0 and no "
                              "partner" % tag)
        else:
            if not classical:
                errors.append("%s: classical side in a %s datum"
                              % (tag, datum.family))
            rule = "d(d+1)" if b.side == "S" else "d^2"
            for what, ell in (("ell", b.ell), ("partner ell", b.partner_ell)):
                if ell is not None and not is_admissible_ell(b.side, ell):
                    errors.append("%s: %s = %d must be of the form %s"
                                  % (tag, what, ell, rule))
        if b.e == 0 and b.ell_total() == 0:
            errors.append("%s: empty block (e = 0 and no discrete part)" % tag)
    if errors:
        raise ValidationError(errors)

    if classical:
        nvee = 2 * datum.n + 1 if datum.family == "Sp" else 2 * datum.n
        total = sum(2 * b.e * b.dim if b.side == "GL" else
                    b.dim * (2 * b.e + b.ell_total()) for b in datum.blocks)
        if total != nvee:
            errors.append("rank accounting: blocks cover dimension %d, the "
                          "standard representation has dimension %d"
                          % (total, nvee))
    else:
        if any(b.side != "GL" for b in datum.blocks):
            errors.append("GL/SL data admit only GL blocks")
        levis = [b.levi for b in datum.blocks]
        if all(l is not None for l in levis):
            total = sum(b.e * b.levi for b in datum.blocks)
            if total != datum.n:
                errors.append("rank accounting: sum e_i m_i = %d but the "
                              "group is GL_%d" % (total, datum.n))
        for i, b in enumerate(datum.blocks):
            if datum.division_degree % b.dim:
                errors.append("block %d: d_i = %d must divide the division "
                              "algebra degree %d"
                              % (i + 1, b.dim, datum.division_degree))
    if errors:
        raise ValidationError(errors)
    ordered = tuple(sorted(datum.blocks, key=lambda b: b.sort_key()))
    return InertialDatum(datum.family, datum.n, ordered,
                         datum.division_degree, datum.sl_rgroup)


# ---------------------------------------------------------------------------
# Per-block root systems and parameters
# ---------------------------------------------------------------------------

def root_component(side: str, e: int, ell_total: int
                   ) -> Optional[Tuple[str, int]]:
    """Root-system family contributed by one block, or None when empty.

    S row: C_e when the inertial class is absent from the discrete part,
    BC_e otherwise; O row: D_e / B_e likewise; GL row: A_{e-1} once two
    copies meet.
    """
    if side in ("S", "O"):
        fams = ("C", "BC") if side == "S" else ("D", "B")
        return (fams[ell_total != 0], e) if e else None
    if side == "GL":
        return ("A", e - 1) if e > 1 else None
    raise ValidationError(["unknown side %r" % (side,)])


def _block_datum(family_rank: Optional[Tuple[str, int]], e: int) -> RootDatum:
    """Root datum of one block on its e torus coordinates."""
    if family_rank is None:
        return empty_datum(e)
    fam, rank = family_rank
    if fam == "D" and rank == 1:
        return empty_datum(1)                      # SO_2: no roots on one coordinate
    return build_classical(fam, rank)              # A_rank lives in ZZ^{rank+1} = ZZ^e


def _block_weyl_order(family_rank: Optional[Tuple[str, int]]) -> int:
    return 1 if family_rank is None else weyl_order_classical(*family_rank)


def _root_params(datum_family: str, b: BlockDatum, fam: str, r: Root
                 ) -> Tuple[int, Optional[int]]:
    """lambda and lambda* (None unless the coroot is halvable) of a
    nondivisible root r of block b, whose root system has family fam."""
    if datum_family in ("GL", "SL"):
        return b.dim, None
    if fam in ("A", "C", "D") or sum(c * c for c in r.vector) != 1:
        return 1, 1 if r.halvable else None
    pair = lambda_from_jordan(a_from_ell(b.side, b.ell),
                              a_from_ell(b.side, b.partner_ell or 0))
    return pair.lam, pair.lam_star


# ---------------------------------------------------------------------------
# R-groups
# ---------------------------------------------------------------------------

def build_rgroup(datum: InertialDatum, offsets: Sequence[int]
                 ) -> Tuple[RGroup, Cocycle, str]:
    """Elementary abelian 2-group of sign flips r_tau for the D-type
    blocks (O side, e >= 1, no discrete part), with the even-SO rule for
    pure-GL Levis; trivial cocycle.  Block i has the coordinates
    offsets[i] .. offsets[i + 1] - 1.  Members are bitmasks over the
    candidate blocks, multiplied by xor; the |R|^2-entry table is refused
    above ``ENUMERATION_CAP`` before any member is built."""
    rank = offsets[-1]
    candidates = [i for i, b in enumerate(datum.blocks)   # carry r_tau
                  if b.side == "O" and b.e >= 1 and b.ell_total() == 0]
    k = len(candidates)
    odd = sum(1 << j for j, i in enumerate(candidates)
              if datum.blocks[i].dim % 2 == 1)
    even_rule = datum.family == "SOeven" and \
        all(b.ell_total() == 0 for b in datum.blocks)
    order = 2 ** (k - 1) if even_rule and odd else 2 ** k
    if order ** 2 > ENUMERATION_CAP:
        raise ValidationError(["|R| = %d: its table of %d entries exceeds "
                               "the enumeration cap %d"
                               % (order, order ** 2, ENUMERATION_CAP)])
    members = [m for m in range(1 << k)
               if not even_rule or (m & odd).bit_count() % 2 == 0]
    if order == 1:
        structure = "trivial"
    elif even_rule:
        structure = ("subgroup of (Z/2)^%d with even odd-dimensional "
                     "support, order %d" % (k, order))
    else:
        structure = "(Z/2)^%d generated by %s" % (
            k, ", ".join("r%d" % (i + 1) for i in candidates))
    labels, matrices = {}, {}
    for m in members:
        bits = [j for j in range(k) if m >> j & 1]
        labels[m] = "*".join("r%d" % (candidates[j] + 1) for j in bits) or "e"
        # r_tau flips the last coordinate of its block
        flips = {offsets[candidates[j] + 1] - 1 for j in bits}
        matrices[labels[m]] = tuple(
            tuple((-1 if i in flips else 1) if i == j else 0
                  for j in range(rank)) for i in range(rank))
    table = {(labels[a], labels[b]): labels[a ^ b]
             for a in members for b in members}
    rg = RGroup(tuple(labels.values()), matrices, table)
    return rg, Cocycle.trivial(rg.labels), structure


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimpleRootReport:
    name: str
    block: int
    vector: Tuple[int, ...]
    lam: int
    lam_star: Optional[int]
    torsion: Torsion

    def exponent(self) -> Union[int, str]:
        if isinstance(self.torsion, int):
            return self.lam * self.torsion
        if self.lam == 1:
            return self.torsion
        return "%d%s" % (self.lam, self.torsion)


@dataclass
class HeckeReport:
    datum: InertialDatum
    descriptor: AffineDescriptor
    torus_dim: int
    group_order: int
    rgroup_structure: str
    block_systems: List[Optional[Tuple[str, int]]]
    block_reduced: List[Optional[Tuple[str, int]]]
    simple_roots: List[SimpleRootReport]
    character_lattice: Optional[dict] = None

    def specializations(self) -> List[dict]:
        out = []
        for s in self.simple_roots:
            exp = s.exponent()
            qpow = "q" if exp == 1 else (
                "q^%s" % exp if isinstance(exp, int) else "q^{%s}" % exp)
            out.append({
                "root": s.name,
                "lambda": s.lam,
                "torsion": s.torsion,
                "exponent": exp,
                "relation": "(T[%s] - %s)*(T[%s] + 1) = 0"
                            % (s.name, qpow, s.name),
            })
        return out

    def to_json(self) -> dict:
        fams, reds = ([None if fr is None else "%s%d" % fr for fr in frs]
                      for frs in (self.block_systems, self.block_reduced))
        return {
            "family": self.datum.family,
            "n": self.datum.n,
            "torus_dim": self.torus_dim,
            "num_z_vars": self.descriptor.d,
            "weyl_order": self.group_order,
            "rgroup": {
                "order": self.descriptor.wext.rgroup.order(),
                "structure": self.rgroup_structure,
            },
            "root_systems": fams,
            "reduced_root_systems": reds,
            "simple_roots": [{
                "name": s.name,
                "block": s.block + 1,
                "vector": list(s.vector),
                "lambda": s.lam,
                "lambda_star": s.lam_star,
                "torsion": s.torsion,
            } for s in self.simple_roots],
            "specializations": self.specializations(),
            "character_lattice": self.character_lattice,
        }

    def to_text(self) -> str:
        lines = ["Twisted affine Hecke algebra for %s (n = %d)"
                 % (self.datum.family, self.datum.n)]
        sysnames = [("%s%d" % fr) if fr else "empty"
                    for fr in self.block_systems]
        rednames = [("%s%d" % fr) if fr else "empty"
                    for fr in self.block_reduced]
        lines.append("root system   : %s" % " x ".join(sysnames))
        lines.append("reduced system: %s" % " x ".join(rednames))
        lines.append("torus dimension %d, %d z-variable(s), |W| = %d, R-group: %s"
                     % (self.torus_dim, self.descriptor.d, self.group_order,
                        self.rgroup_structure))
        lines.append("parameters:")
        for s in self.simple_roots:
            star = "" if s.lam_star is None else ", lambda* = %d" % s.lam_star
            lines.append("  %-8s lambda = %d%s" % (s.name, s.lam, star))
        lines.append("quadratic relations at z = q^{torsion/2}:")
        for rel in self.specializations():
            lines.append("  " + rel["relation"])
        if self.character_lattice:
            lines.append("character lattice: %r" % (self.character_lattice,))
        return "\n".join(lines)


def assemble(datum: InertialDatum) -> HeckeReport:
    """Construct the full twisted affine Hecke algebra descriptor."""
    datum = validate(datum)
    block_data: List[RootDatum] = []
    systems: List[Optional[Tuple[str, int]]] = []
    offsets = [0]
    for i, b in enumerate(datum.blocks):
        fr = root_component(b.side, b.e, b.ell_total()) \
            if datum.family not in ("GL", "SL") else \
            root_component("GL", b.e, 0)
        systems.append(fr)
        try:
            rd = _block_datum(fr, b.e)
        except RootDatumError as exc:
            raise ValidationError(["block %d: %s" % (i + 1, exc)]) from exc
        block_data.append(rd)
        offsets.append(offsets[-1] + rd.rank)

    # orthogonal sum over blocks, one z-variable per block (also for
    # rootless blocks, which still own a deformation variable); a datum
    # with no blocks keeps one on the rank-0 torus
    combined = product(*block_data or [empty_datum(0)])
    lam: Dict[tuple, int] = {}
    lam_star: Dict[tuple, int] = {}
    for r in combined.nondivisible_roots:
        i = r.component_index - 1
        lam[r.vector], star = _root_params(datum.family, datum.blocks[i],
                                           systems[i][0], r)
        if star is not None:
            lam_star[r.vector] = star

    supplied = datum.family == "SL" and datum.sl_rgroup is not None
    try:
        if supplied:
            rg, cocycle = _sl_rgroup(datum.sl_rgroup)
            structure = "supplied R-group of order %d" % rg.order()
        else:
            rg, cocycle, structure = build_rgroup(datum, offsets)
        wext = ExtendedGroup(combined, rg)
        descriptor = AffineDescriptor(combined, wext, lam, lam_star, cocycle)
    except (WeylError, HeckeError) as exc:
        if not supplied:
            raise
        raise ValidationError(["sl_rgroup: %s" % exc]) from exc

    group_order = math.prod(map(_block_weyl_order, systems))
    reduced = [("B", fr[1]) if fr and fr[0] == "BC" else fr for fr in systems]

    # the simple roots in descending lexicographic order are those of
    # block 1, then block 2, ..., each in its own order
    simple_reports: List[SimpleRootReport] = []
    for i, roots in itertools.groupby(combined.simple_roots,
                                      lambda s: s.component_index - 1):
        for j, s in enumerate(roots, 1):
            simple_reports.append(SimpleRootReport(
                name="%s%d" % (GREEK[i % len(GREEK)], j), block=i,
                vector=s.vector, lam=lam[s.vector],
                lam_star=lam_star.get(s.vector),
                torsion=datum.blocks[i].torsion))

    charlat = None
    if datum.family == "SL":
        weights = [b.torsion if isinstance(b.torsion, int) else 1
                   for b, rd in zip(datum.blocks, block_data)
                   for _ in range(rd.rank)]
        g = math.gcd(*weights) if weights else 1
        charlat = {
            "constraint": weights,
            "note": "characters x with sum_j w_j x_j = 0 (quotient torus)",
            "quotient_order": g,
        }

    return HeckeReport(
        datum=datum, descriptor=descriptor, torus_dim=combined.rank,
        group_order=group_order, rgroup_structure=structure,
        block_systems=systems, block_reduced=reduced,
        simple_roots=simple_reports, character_lattice=charlat)


def _sl_rgroup(spec: SLRGroupSpec) -> Tuple[RGroup, Cocycle]:
    rg = RGroup(spec.labels, dict(spec.matrices), dict(spec.table),
                translations=dict(spec.translations))
    cocycle = Cocycle(spec.labels, dict(spec.cocycle))
    return rg, cocycle


def _check_q_bits(report: HeckeReport, bits: int) -> None:
    """ValidationError when q^m, m the largest integer exponent of q in the
    relations (q itself among them), could pass the interpreter's limit on
    printed integer digits, q = a/b with a, b <= 2^bits."""
    m = max([1] + [abs(r["exponent"]) for r in report.specializations()
                   if isinstance(r["exponent"], int)])
    limit = getattr(sys, "get_int_max_str_digits", int)()   # from 3.10.7
    # q^m <= 2^(m bits) above and below the bar, and log10(2) < 0.30103
    if limit and m * bits * 30103 // 100000 + 1 > limit:
        raise ValidationError(["q^%d could have more than %d digits, the "
                               "limit for printed integers" % (m, limit)])


def parse_q(report: HeckeReport, text: str) -> Fraction:
    """``text`` as the positive rational q of ``specialize_report``.
    Fraction builds 10^e for a decimal exponent e, so the digit limit is
    applied to 10^e before Fraction sees the string."""
    exp = re.search(r"e([-+]?[\d_]+)\s*$", text, re.IGNORECASE)
    try:
        size = abs(int(exp.group(1))) if exp else 0
    except ValueError:   # malformed or over-long: Fraction refuses it
        size = 0
    _check_q_bits(report, size * 3321 // 1000)   # 10^size has more bits
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(["cannot parse q = %r: %s" % (text, exc)])
    if q <= 0:
        raise ValidationError(["q must be a positive rational"])
    return q


def specialize_report(report: HeckeReport, q: Fraction) -> List[dict]:
    """Quadratic relations specialized at z_block = q^{torsion/2}: each
    simple root contributes (T - q^{lambda*torsion})(T + 1) = 0, with the
    exponent kept symbolic when the torsion is.  ValidationError, before
    any power is taken, when q^m (q itself among them) could pass the
    interpreter's limit on printed integer digits."""
    rels, q = report.specializations(), Fraction(q)
    _check_q_bits(report, max((q.numerator - 1).bit_length(),
                              (q.denominator - 1).bit_length()))
    return [dict(rel, q_power_value=str(q ** rel["exponent"]))
            if isinstance(rel["exponent"], int) else dict(rel)
            for rel in rels]


# ---------------------------------------------------------------------------
# Built-in examples
# ---------------------------------------------------------------------------

BUILTIN_EXAMPLES: Dict[str, dict] = {
    # Sp_58: two GL_4 factors carrying a symplectic-type tau of dimension 4
    # (discrete part 6 = 2+4), three GL_1 factors on the trivial character
    # (discrete part 9 = 1+3+5, unramified partner 4 = 1+3).
    "sp58": {
        "group": {"family": "Sp", "n": 29},
        "blocks": [
            {"side": "S", "dim": 4, "e": 2, "ell": 6, "partner_ell": 0,
             "torsion": "t(tau)"},
            {"side": "O", "dim": 1, "e": 3, "ell": 9, "partner_ell": 4,
             "torsion": 1},
        ],
    },
    # cuspidal GL datum: single block, e = 1, so the algebra is O(T) (x) ZZ[z].
    "gl-cuspidal": {
        "group": {"family": "GL", "n": 1, "division_degree": 2},
        "blocks": [
            {"side": "GL", "dim": 2, "e": 1, "torsion": 1, "levi": 1},
        ],
    },
    # one type-A_2 component with lambda = 2 and f = d*t = 2.
    "gl-a2": {
        "group": {"family": "GL", "n": 3, "division_degree": 2},
        "blocks": [
            {"side": "GL", "dim": 2, "e": 3, "torsion": 1, "levi": 1},
        ],
    },
    # SL2-dual block: W = S_2 inverting a rank-1 torus (type B_1).
    "sp2-iwahori": {
        "group": {"family": "Sp", "n": 1},
        "blocks": [
            {"side": "O", "dim": 1, "e": 1, "ell": 1, "torsion": 1},
        ],
    },
}
