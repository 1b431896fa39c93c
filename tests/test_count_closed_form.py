"""``count`` totals against their closed form on integers.

A datum qualifies when its R-group and cocycle are trivial and every block
is a type-A, B, C or BC system whose ranks fill the torus; then the total
at order N is a product over blocks of coefficients of powers of
P(x) = prod 1 / (1 - x^j) (``oracle_helpers.closed_form_total``), and each
orbit's stabilizer order and count are products of factorials and of
partition and bipartition numbers (``oracle_helpers.closed_form_orbit``).
"""

import hashlib
import json
import pathlib

import pytest

from heckealg.cli import main
from heckealg.pipeline import BUILTIN_EXAMPLES, assemble, datum_from_json
from oracle_helpers import (closed_form_orbit, closed_form_total,
                            partition_power)

BENCH_DATA = pathlib.Path(__file__).resolve().parents[1] / "bench" / "data"
DATA = dict(BUILTIN_EXAMPLES)
DATA.update((p.stem, json.loads(p.read_text()))
            for p in sorted(BENCH_DATA.glob("*.json")))
QUALIFYING = ["gl-a2", "gl4", "sp2-iwahori", "sp3", "sp58"]

# Sp n = 5 with one O block: W(B5), |W| = 3840; each pin is a total and
# the first 16 hex digits of the sha256 of stdout
B5 = {"group": {"family": "Sp", "n": 5},
      "blocks": [{"side": "O", "dim": 1, "e": 5, "ell": 1}]}
B5_PINS = [(1, 36, "400d4dc0934cc2ce"),
           (2, 252, "f50b3e12aac7ef33"),
           (3, 108, "db42eef144c0fcd8")]


def qualifies(report):
    """Trivial R-group and cocycle, and blocks of type A (A_m on m + 1
    coordinates), B, C or BC that fill the torus."""
    systems, desc = report.block_systems, report.descriptor
    return all(s is not None and s[0] in ("A", "B", "C", "BC")
               for s in systems) \
        and sum(m + (fam == "A") for fam, m in systems) == report.torus_dim \
        and desc.wext.rgroup.order() == 1 \
        and set(desc.cocycle.table.values()) == {1}


def count_stdout(args, capsys):
    code = main(["count", "--format", "json"] + args)
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    return out


def test_partition_powers():
    assert [partition_power(1, n) for n in range(8)] == \
        [1, 1, 2, 3, 5, 7, 11, 15]
    # bipartitions: the classes of W(B_n)
    assert [partition_power(2, n) for n in range(7)] == \
        [1, 2, 5, 10, 20, 36, 65]


def test_qualifying_data():
    assert sorted(name for name, doc in DATA.items()
                  if qualifies(assemble(datum_from_json(doc)))) == QUALIFYING


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("name", QUALIFYING)
def test_count_total_matches_closed_form(name, order, tmp_path, capsys):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(DATA[name]))
    doc = json.loads(count_stdout(["--order", str(order), "--input",
                                   str(path)], capsys))
    systems = assemble(datum_from_json(DATA[name])).block_systems
    assert doc["total"] == closed_form_total(systems, order)
    assert doc["total"] == sum(o["count"] for o in doc["orbits"])
    for o in doc["orbits"]:
        assert (o["stabilizer_order"], o["count"]) == \
            closed_form_orbit(systems, o["representative"], order)


@pytest.mark.parametrize("order, total, digest", B5_PINS,
                         ids=[str(p[0]) for p in B5_PINS])
def test_b5_count_pinned_and_closed_form(order, total, digest, tmp_path,
                                         capsys):
    path = tmp_path / "b5.json"
    path.write_text(json.dumps(B5))
    out = count_stdout(["--order", str(order), "--input", str(path)], capsys)
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest
    doc = json.loads(out)
    assert doc["total"] == total == closed_form_total([("B", 5)], order)
    for o in doc["orbits"]:
        assert (o["stabilizer_order"], o["count"]) == \
            closed_form_orbit([("B", 5)], o["representative"], order)


# W(B6) and W(B7) (the datum of B5 with n = e = 6 and 7) are too large to
# count in the suite; their closed-form totals at N = 1, 2 and 60, against
# which `count` was checked outside it at N = 1 and 2 on B6 and N = 1 on B7
@pytest.mark.parametrize("rank, totals", [(6, (65, 574, 5299019)),
                                          (7, (110, 1240, 36518823))])
def test_b6_b7_closed_form_totals_pinned(rank, totals):
    assert tuple(closed_form_total([("B", rank)], order)
                 for order in (1, 2, 60)) == totals
