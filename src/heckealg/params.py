"""Parameter arithmetic: lambda, lambda* from Jordan/cuspidal data.

All functions are closed-form integer arithmetic.  The two cuspidal
shapes are:

* symplectic side (S): unipotent partition (2, 4, .., 2d) of ell = d(d+1),
  largest part a = 2d (a = 0 when ell = 0);
* orthogonal side (O): partition (1, 3, .., 2d-1) of ell = d^2, largest
  part a = 2d - 1 (a = -1 when ell = 0).

From a block's largest part a and its unramified-twist partner's largest
part a', the affine parameters of the short root are
lambda = (a + a')/2 + 1 and lambda* = |a - a'|/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple


class ParameterError(ValueError):
    pass


@dataclass(frozen=True)
class ParamPair:
    lam: int
    lam_star: int
    basepoint_swapped: bool = False

    def __post_init__(self):
        if self.lam < 0 or self.lam_star < 0:
            raise ParameterError("parameters must be nonnegative")


def _admissible_tail(side: str, ell: int) -> Tuple[int, int]:
    """Nearest admissible values below/above an inadmissible ell."""
    lo, hi = 0, ell
    d = 0
    while True:
        v = d * (d + 1) if side == "S" else d * d
        if v <= ell:
            lo = v
        if v >= ell:
            hi = v
            break
        d += 1
    return lo, hi


def is_admissible_ell(side: str, ell: int) -> bool:
    if ell < 0:
        return False
    if side == "S":
        d = int((math.isqrt(1 + 4 * ell) - 1) // 2)
        return d * (d + 1) == ell
    if side == "O":
        d = math.isqrt(ell)
        return d * d == ell
    if side == "GL":
        return ell == 0
    raise ParameterError("unknown side %r" % (side,))


def cuspidal_d(side: str, ell: int) -> int:
    """The d with ell = d(d+1) (side S) or ell = d^2 (side O)."""
    if not is_admissible_ell(side, ell):
        lo, hi = _admissible_tail(side, ell)
        raise ParameterError(
            "ell = %d is not admissible for side %s: must be %s; nearest "
            "admissible values are %d and %d"
            % (ell, side, "d(d+1)" if side == "S" else "a square", lo, hi))
    if side == "S":
        return (math.isqrt(1 + 4 * ell) - 1) // 2
    return math.isqrt(ell)


def a_from_ell(side: str, ell: int) -> int:
    """Largest part of the cuspidal partition; the trivial-partner
    conventions give a = 0 (S) and a = -1 (O) at ell = 0."""
    d = cuspidal_d(side, ell)
    if d == 0:
        return 0 if side == "S" else -1
    return 2 * d if side == "S" else 2 * d - 1


def lambda_from_jordan(a: int, a_prime: int) -> ParamPair:
    """lambda = (a + a')/2 + 1 and lambda* = |a - a'|/2.

    Both inputs must have the same parity (both even on the S side, both
    odd on the O side).  When a < a' the pair is still returned, with a
    flag recording that the natural basepoint has a and a' exchanged.
    """
    if (a - a_prime) % 2:
        raise ParameterError("a = %d and a' = %d must have equal parity"
                             % (a, a_prime))
    lam = (a + a_prime) // 2 + 1
    lam_star = abs(a - a_prime) // 2
    return ParamPair(lam, lam_star, basepoint_swapped=a < a_prime)
