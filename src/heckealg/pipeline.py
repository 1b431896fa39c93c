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

import functools
import json
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import jsonschema

from .hecke import AffineDescriptor, HeckeError
from .params import a_from_ell, is_admissible_ell, lambda_from_jordan
from .root_data import (Root, RootDatum, RootDatumError, build_classical,
                        empty_datum, weyl_order_classical)
from .weyl import Cocycle, ExtendedGroup, RGroup, WeylError

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

INPUT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["group", "blocks"],
    "properties": {
        "group": {
            "type": "object",
            "additionalProperties": False,
            "required": ["family", "n"],
            "properties": {
                "family": {"enum": list(FAMILIES)},
                "n": {"type": "integer", "minimum": 0},
                "division_degree": {"type": "integer", "minimum": 1},
            },
        },
        "blocks": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["side", "dim", "e"],
                "properties": {
                    "side": {"enum": ["O", "S", "GL"]},
                    "dim": {"type": "integer", "minimum": 1},
                    "e": {"type": "integer", "minimum": 0},
                    "ell": {"type": "integer", "minimum": 0},
                    "partner_ell": {"type": "integer", "minimum": 0},
                    "torsion": {"anyOf": [
                        {"type": "integer", "minimum": 1},
                        {"type": "string", "minLength": 1}]},
                    "levi": {"type": "integer", "minimum": 1},
                },
            },
        },
        "sl_rgroup": {
            "type": "object",
            "additionalProperties": False,
            "required": ["labels", "matrices", "table", "cocycle"],
            "properties": {
                "labels": {"type": "array", "items": {"type": "string"}},
                "matrices": {"type": "object", "additionalProperties": {
                    "type": "array", "items": {
                        "type": "array", "items": {"type": "integer"}}}},
                "table": {"type": "object",
                          "additionalProperties": {"type": "string"}},
                "cocycle": {"type": "object",
                            "additionalProperties": {"type": "integer"}},
                "translations": {"type": "object",
                                 "additionalProperties": {"type": "array"}},
            },
        },
    },
}


@functools.lru_cache(maxsize=None)
def _input_validator():
    """The schema validator, built and self-checked once, on first use."""
    cls = jsonschema.validators.validator_for(INPUT_SCHEMA)
    cls.check_schema(INPUT_SCHEMA)
    return cls(INPUT_SCHEMA)


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
    """Parse and schema-check a JSON inertial datum (unknown fields
    rejected); semantic validation happens in ``validate``."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    error = jsonschema.exceptions.best_match(
        _input_validator().iter_errors(doc))
    if error is not None:
        raise error
    grp = doc["group"]
    blocks = [BlockDatum(
        side=b["side"], dim=b["dim"], e=b["e"], ell=b.get("ell", 0),
        partner_ell=b.get("partner_ell"), torsion=b.get("torsion", 1),
        levi=b.get("levi")) for b in doc["blocks"]]
    sl = None
    if "sl_rgroup" in doc:
        raw = doc["sl_rgroup"]
        table = {tuple(k.split(",")): v for k, v in raw["table"].items()}
        try:
            cocycle = {tuple(k.split(",")): int(v)
                       for k, v in raw["cocycle"].items()}
            translations = {
                l: tuple(_translation_entry(s) for s in vec)
                for l, vec in raw.get("translations", {}).items()}
            matrices = {l: tuple(tuple(int(x) for x in row) for row in m)
                        for l, m in raw["matrices"].items()}
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValidationError(["sl_rgroup: %s" % exc]) from exc
        sl = SLRGroupSpec(labels=tuple(raw["labels"]), matrices=matrices,
                          table=table, cocycle=cocycle,
                          translations=translations)
    return InertialDatum(family=grp["family"], n=grp["n"],
                         division_degree=grp.get("division_degree", 1),
                         blocks=tuple(blocks), sl_rgroup=sl)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(datum: InertialDatum) -> InertialDatum:
    """Check all block invariants and the rank accounting; returns the
    normalized datum (blocks canonically sorted)."""
    errors: List[str] = []
    if datum.family not in FAMILIES:
        errors.append("unknown family %r" % (datum.family,))
        raise ValidationError(errors)
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
        total = 0
        for b in datum.blocks:
            if b.side == "GL":
                total += 2 * b.e * b.dim
            else:
                total += b.dim * (2 * b.e + b.ell_total())
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
    if side == "S":
        if e == 0:
            return None
        return ("C", e) if ell_total == 0 else ("BC", e)
    if side == "O":
        if e == 0:
            return None
        return ("D", e) if ell_total == 0 else ("B", e)
    if side == "GL":
        if e <= 1:
            return None
        return ("A", e - 1)
    raise ValidationError(["unknown side %r" % (side,)])


def _block_datum(family_rank: Optional[Tuple[str, int]], e: int) -> RootDatum:
    """Root datum of one block on its e torus coordinates."""
    if family_rank is None:
        return empty_datum(e)
    fam, rank = family_rank
    if fam == "A":
        return build_classical("A", rank)          # lives in ZZ^{rank+1} = ZZ^e
    if fam == "D" and rank == 1:
        return empty_datum(1)                      # SO_2: no roots on one coordinate
    return build_classical(fam, rank)


def _block_weyl_order(family_rank: Optional[Tuple[str, int]]) -> int:
    if family_rank is None:
        return 1
    fam, rank = family_rank
    return weyl_order_classical(fam, rank)


def _block_params(datum_family: str, b: BlockDatum, rd: RootDatum,
                  fam_rank: Optional[Tuple[str, int]]
                  ) -> Tuple[Dict[tuple, int], Dict[tuple, int]]:
    """lambda / lambda* on the nondivisible roots of one block's datum."""
    lam: Dict[tuple, int] = {}
    lam_star: Dict[tuple, int] = {}
    if fam_rank is None:
        return lam, lam_star
    fam, _ = fam_rank
    if datum_family in ("GL", "SL"):
        for r in rd.nondivisible_roots:
            lam[r.vector] = b.dim
        return lam, lam_star
    for r in rd.nondivisible_roots:
        short = sum(c * c for c in r.vector) == 1
        if fam in ("A", "C", "D") or not short:
            lam[r.vector] = 1
            if r.halvable:
                lam_star[r.vector] = 1
        else:
            a = a_from_ell(b.side, b.ell)
            a_prime = a_from_ell(b.side, b.partner_ell or 0)
            pair = lambda_from_jordan(a, a_prime)
            lam[r.vector] = pair.lam
            lam_star[r.vector] = pair.lam_star
    return lam, lam_star


# ---------------------------------------------------------------------------
# R-groups
# ---------------------------------------------------------------------------

def _flip_matrix(rank: int, coords: Sequence[int]):
    return tuple(tuple((-1 if (i == j and i in coords) else
                        (1 if i == j else 0)) for j in range(rank))
                 for i in range(rank))


def build_rgroup(datum: InertialDatum, block_data: Sequence[RootDatum],
                 offsets: Sequence[int]) -> Tuple[RGroup, Cocycle, str]:
    """Elementary abelian 2-group of sign flips r_tau for the D-type
    blocks (O side, e >= 1, no discrete part), with the even-SO rule for
    pure-GL Levis; trivial cocycle."""
    rank = offsets[-1]
    candidates: List[int] = []   # block indices (0-based) carrying r_tau
    odd_dim: Dict[int, bool] = {}
    for i, b in enumerate(datum.blocks):
        if b.side == "O" and b.e >= 1 and b.ell_total() == 0:
            candidates.append(i)
            odd_dim[i] = (b.dim % 2 == 1)
    pure_gl = all(b.ell_total() == 0 for b in datum.blocks)
    if datum.family == "SOeven" and pure_gl:
        members = [frozenset(s) for s in _even_odd_subsets(candidates, odd_dim)]
        structure = ("trivial" if len(members) == 1 else
                     "subgroup of (Z/2)^%d with even odd-dimensional support, "
                     "order %d" % (len(candidates), len(members)))
    else:
        members = [frozenset(s) for s in _all_subsets(candidates)]
        structure = ("trivial" if len(members) == 1 else
                     "(Z/2)^%d generated by %s" % (
                         len(candidates),
                         ", ".join("r%d" % (i + 1) for i in candidates)))
    labels = {}
    matrices = {}
    for s in members:
        label = "e" if not s else "*".join("r%d" % (i + 1) for i in sorted(s))
        labels[s] = label
        coords = []
        for i in s:
            coords.append(offsets[i + 1] - 1)   # last coordinate of block i
        matrices[label] = _flip_matrix(rank, coords)
    table = {}
    for s1 in members:
        for s2 in members:
            table[(labels[s1], labels[s2])] = labels[s1 ^ s2]
    rg = RGroup(tuple(labels[s] for s in members), matrices, table, "e")
    cocycle = Cocycle.trivial(tuple(labels[s] for s in members))
    return rg, cocycle, structure


def _all_subsets(items):
    out = [set()]
    for i in items:
        out += [s | {i} for s in out]
    return out


def _even_odd_subsets(items, odd_dim):
    return [s for s in _all_subsets(items)
            if len([i for i in s if odd_dim[i]]) % 2 == 0]


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
        fams = []
        for fr in self.block_systems:
            fams.append(None if fr is None else "%s%d" % fr)
        reds = []
        for fr in self.block_reduced:
            reds.append(None if fr is None else "%s%d" % fr)
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
        lines = []
        lines.append("Twisted affine Hecke algebra for %s (n = %d)"
                     % (self.datum.family, self.datum.n))
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
    # rootless blocks, which still own a deformation variable)
    rank = offsets[-1]
    roots = []
    for i, rd in enumerate(block_data):
        for r in rd.roots:
            roots.append(Root(_embed(r.vector, offsets[i], rank),
                              _embed(r.coroot, offsets[i], rank), i + 1))
    combined = RootDatum(rank, roots, max(1, len(datum.blocks)))

    lam: Dict[tuple, int] = {}
    lam_star: Dict[tuple, int] = {}
    for i, (b, rd, fr) in enumerate(zip(datum.blocks, block_data, systems)):
        bl, bs = _block_params(datum.family, b, rd, fr)
        for v, val in bl.items():
            lam[_embed(v, offsets[i], rank)] = val
        for v, val in bs.items():
            lam_star[_embed(v, offsets[i], rank)] = val

    supplied = datum.family == "SL" and datum.sl_rgroup is not None
    try:
        if supplied:
            rg, cocycle = _sl_rgroup(datum.sl_rgroup)
            structure = "supplied R-group of order %d" % rg.order()
        else:
            rg, cocycle, structure = build_rgroup(datum, block_data, offsets)
        wext = ExtendedGroup(combined, rg)
        descriptor = AffineDescriptor(combined, wext, lam, lam_star, cocycle)
    except (WeylError, HeckeError) as exc:
        if not supplied:
            raise
        raise ValidationError(["sl_rgroup: %s" % exc]) from exc

    group_order = 1
    reduced: List[Optional[Tuple[str, int]]] = []
    for fr in systems:
        group_order *= _block_weyl_order(fr)
        if fr is None:
            reduced.append(None)
        elif fr[0] == "BC":
            reduced.append(("B", fr[1]))
        else:
            reduced.append(fr)

    simple_reports: List[SimpleRootReport] = []
    for i, (b, rd) in enumerate(zip(datum.blocks, block_data)):
        letter = GREEK[i % len(GREEK)]
        for j, s in enumerate(rd.simple_roots):
            vec = _embed(s.vector, offsets[i], combined.rank)
            simple_reports.append(SimpleRootReport(
                name="%s%d" % (letter, j + 1), block=i,
                vector=vec, lam=lam[vec], lam_star=lam_star.get(vec),
                torsion=b.torsion))

    charlat = None
    if datum.family == "SL":
        weights = []
        for b, rd in zip(datum.blocks, block_data):
            t = b.torsion if isinstance(b.torsion, int) else 1
            weights.extend([t] * rd.rank)
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


def _embed(v: tuple, offset: int, rank: int) -> tuple:
    return (0,) * offset + tuple(v) + (0,) * (rank - offset - len(v))


def _sl_rgroup(spec: SLRGroupSpec) -> Tuple[RGroup, Cocycle]:
    rg = RGroup(spec.labels, dict(spec.matrices), dict(spec.table),
                identity="e", translations=dict(spec.translations))
    cocycle = Cocycle(spec.labels, dict(spec.cocycle))
    return rg, cocycle


def is_in_character_lattice(report: HeckeReport, x: Sequence[int]) -> bool:
    """SL case: membership of a character in the quotient-torus lattice."""
    if report.character_lattice is None:
        return True
    w = report.character_lattice["constraint"]
    return sum(a * b for a, b in zip(w, x)) == 0


def _check_q_bits(report: HeckeReport, bits: int) -> None:
    """ValidationError when q^m, m the largest integer exponent of q in the
    relations (q itself among them), could pass the interpreter's limit on
    printed integer digits, q having ``bits`` bits above or below the bar."""
    m = max([1] + [abs(r["exponent"]) for r in report.specializations()
                   if isinstance(r["exponent"], int)])
    limit = getattr(sys, "get_int_max_str_digits", int)()   # from 3.10.7
    # q^m has at most m * bits bits, and log10(2) < 0.30103
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
    _check_q_bits(report, max(q.numerator.bit_length(),
                              q.denominator.bit_length()))
    out = []
    for rel in rels:
        item = dict(rel)
        if isinstance(rel["exponent"], int):
            item["q_power_value"] = str(q ** rel["exponent"])
        out.append(item)
    return out


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
