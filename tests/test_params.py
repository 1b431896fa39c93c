import pytest

from heckealg.params import (ParameterError, a_from_ell, cuspidal_d,
                             is_admissible_ell, lambda_from_jordan)
from oracle_helpers import (c_lambda_roundtrip, cuspidal_partition,
                            lambda_c_roundtrip)


def test_cuspidal_partitions():
    assert cuspidal_partition("S", 2) == (2, 4)
    assert cuspidal_partition("O", 3) == (1, 3, 5)
    assert cuspidal_partition("S", 0) == ()
    assert cuspidal_partition("O", 0) == ()


def test_a_from_ell_reference_values():
    assert a_from_ell("S", 6) == 4          # partition (2, 4)
    assert a_from_ell("O", 9) == 5          # partition (1, 3, 5)
    assert a_from_ell("O", 0) == -1
    assert a_from_ell("S", 0) == 0
    assert a_from_ell("O", 4) == 3          # partition (1, 3)


def test_inadmissible_ell():
    with pytest.raises(ParameterError) as exc:
        a_from_ell("S", 5)
    assert "nearest" in str(exc.value)
    with pytest.raises(ParameterError):
        a_from_ell("O", 5)
    assert is_admissible_ell("S", 12) and not is_admissible_ell("S", 11)
    assert is_admissible_ell("O", 16) and not is_admissible_ell("O", 15)


def test_partition_sums_match_ell():
    for d in range(0, 15):
        assert sum(cuspidal_partition("S", d)) == d * (d + 1)
        assert sum(cuspidal_partition("O", d)) == d * d
        assert cuspidal_d("S", d * (d + 1)) == d
        assert cuspidal_d("O", d * d) == d


def test_lambda_from_jordan_reference_values():
    p = lambda_from_jordan(5, 3)
    assert (p.lam, p.lam_star) == (5, 1)
    p = lambda_from_jordan(4, 0)
    assert (p.lam, p.lam_star) == (3, 2)
    p = lambda_from_jordan(0, 0)
    assert (p.lam, p.lam_star) == (1, 0)


def test_lambda_from_jordan_parity_and_swap():
    with pytest.raises(ParameterError):
        lambda_from_jordan(4, 3)
    p = lambda_from_jordan(3, 5)
    assert (p.lam, p.lam_star) == (5, 1) and p.basepoint_swapped


def test_jordan_nonnegativity_all_admissible():
    # all admissible (a, a') pairs generated from ell values up to 400
    for side in ("S", "O"):
        avals = []
        d = 0
        while True:
            ell = d * (d + 1) if side == "S" else d * d
            if ell > 400:
                break
            avals.append(a_from_ell(side, ell))
            d += 1
        for a in avals:
            for ap in avals:
                p = lambda_from_jordan(a, ap)
                assert p.lam >= 0 and p.lam_star >= 0
                assert p.basepoint_swapped == (a < ap)
                # strictly positive once the block is present in phi
                # ((-1, -1) is the D-row, which carries no short root)
                if max(a, ap) >= 1:
                    assert p.lam > 0


def test_roundtrip_c_lambda():
    # non-halvable: c = 2: lambda = 1 (and lambda* undefined)
    assert c_lambda_roundtrip(2, None, False) == (1, None)
    assert lambda_c_roundtrip(1, None, False) == (2, None)
    # halvable: lambda = 5, lambda* = 1 -> c = 6, c* = 4
    assert lambda_c_roundtrip(5, 1, True) == (6, 4)
    assert c_lambda_roundtrip(6, 4, True) == (5, 1)
    # BC: c = 3, c* = 1 -> lambda = 2, lambda* = 1
    assert c_lambda_roundtrip(3, 1, True) == (2, 1)

    with pytest.raises(ParameterError):
        c_lambda_roundtrip(3, None, False)
    with pytest.raises(ParameterError):
        c_lambda_roundtrip(3, 2, True)
    with pytest.raises(ParameterError):
        lambda_c_roundtrip(1, None, True)


def test_roundtrip_identity_on_domain():
    for lam in range(0, 22):
        c, cs = lambda_c_roundtrip(lam, None, False)
        assert c_lambda_roundtrip(c, cs, False) == (lam, None)
        for lam_star in range(0, lam + 1):
            c, cs = lambda_c_roundtrip(lam, lam_star, True)
            assert c_lambda_roundtrip(c, cs, True) == (lam, lam_star)
