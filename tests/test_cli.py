import hashlib
import json
import pathlib
import resource
import subprocess
import sys
import time

import pytest

from heckealg.cli import main


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_describe_builtin_sp58(capsys):
    code, out, _ = run_cli(["describe", "--example", "sp58"], capsys)
    assert code == 0
    assert "BC2 x B3" in out
    assert "|W| = 384" in out
    assert "(T[beta3] - q^5)*(T[beta3] + 1) = 0" in out


def test_describe_json_format(capsys):
    code, out, _ = run_cli(["describe", "--example", "gl-a2",
                            "--format", "json", "--q", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["weyl_order"] == 6
    assert all(rel["q_power_value"] == "9"
               for rel in doc["specializations"])


def test_describe_cuspidal(capsys):
    code, out, _ = run_cli(["describe", "--example", "gl-cuspidal"], capsys)
    assert code == 0
    assert "torus dimension 1" in out
    assert "|W| = 1" in out


def test_describe_file_input(tmp_path, capsys):
    from heckealg.pipeline import BUILTIN_EXAMPLES
    p = tmp_path / "datum.json"
    p.write_text(json.dumps(BUILTIN_EXAMPLES["sp58"]))
    code, out, _ = run_cli(["describe", "--input", str(p)], capsys)
    assert code == 0 and "BC2 x B3" in out


def test_malformed_json_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run_cli(["describe", "--input", str(p)], capsys)
    assert code == 2
    assert "input error" in err


def test_unknown_field_exit_2(tmp_path, capsys):
    p = tmp_path / "bad2.json"
    p.write_text(json.dumps({"group": {"family": "Sp", "n": 1},
                             "blocks": [], "junk": True}))
    code, _, err = run_cli(["describe", "--input", str(p)], capsys)
    assert code == 2


def test_invalid_datum_exit_2(tmp_path, capsys):
    p = tmp_path / "bad3.json"
    p.write_text(json.dumps({"group": {"family": "Sp", "n": 3},
                             "blocks": [{"side": "S", "dim": 1, "e": 1,
                                         "ell": 5}]}))
    code, _, err = run_cli(["describe", "--input", str(p)], capsys)
    assert code == 2
    assert "d(d+1)" in err


def test_missing_input_exit_2(capsys):
    code, _, err = run_cli(["describe"], capsys)
    assert code == 2


def test_unknown_example_exit_2(capsys):
    code, _, err = run_cli(["describe", "--example", "nope"], capsys)
    assert code == 2
    assert "available" in err


def test_nonpositive_q_exit_2(capsys):
    code, _, err = run_cli(["describe", "--example", "gl-a2", "--q", "-1"],
                           capsys)
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize("q", ["-1e5", "-1/2"])
def test_negative_q_not_read_as_option(q, capsys):
    # argparse alone reads these as options and prints its usage
    code, out, err = run_cli(["describe", "--example", "gl-a2", "--q", q],
                             capsys)
    assert code == 2 and out == ""
    assert err == "input error: q must be a positive rational\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("q", ["1e1000", "1e-999999"])
def test_huge_q_exit_2_before_output(q, fmt, capsys):
    # sp58 has q^5 in its relations: 5000 and ~5 million digits, above the
    # interpreter's 4300-digit limit for printed integers
    code, out, err = run_cli(["describe", "--example", "sp58", "--q", q,
                              "--format", fmt], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "q^5" in err


@pytest.mark.parametrize("q", ["1e10000000", "1e-10000000"])
def test_huge_q_exponent_refused_before_parse(q, capsys):
    # Fraction would build 10^(10^7) first, which took seconds
    start = time.perf_counter()
    code, out, err = run_cli(["describe", "--example", "gl-a2", "--q", q],
                             capsys)
    assert time.perf_counter() - start < 2
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "q^2" in err


def test_q_exponent_within_digit_limit(capsys):
    code, out, _ = run_cli(["describe", "--example", "gl-a2", "--q", "1e1000"],
                           capsys)
    assert code == 0
    assert "at q = 1%s:" % ("0" * 1000) in out


def test_q_one_never_trips_digit_limit(tmp_path, capsys):
    # 1^40000 = 1: a bound of 1 bit per factor of q would refuse it
    doc = {"group": {"family": "GL", "n": 3, "division_degree": 2},
           "blocks": [{"side": "GL", "dim": 2, "e": 3, "torsion": 20000,
                       "levi": 1}]}
    p = tmp_path / "q1.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run_cli(["describe", "--input", str(p)], capsys)
    assert code == 0
    assert "(T[alpha1] - q^40000)*(T[alpha1] + 1) = 0" in out


def test_large_q_below_digit_limit(capsys):
    code, out, _ = run_cli(["describe", "--example", "sp58", "--q", "1e800"],
                           capsys)
    assert code == 0
    assert "[q^m = 1%s]" % ("0" * 4000) in out


def test_count_cap_exit_2(capsys):
    code, _, err = run_cli(["count", "--example", "gl-a2", "--order", "100"],
                           capsys)
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("family,order", [("GL", 300000), ("SL", 10 ** 12)])
def test_count_rank0_torus_under_cap(family, order, tmp_path, capsys):
    # a rank-0 torus has one point at every order: N^0 = 1 is under the cap,
    # and an SL character lattice does no work proportional to the order
    p = tmp_path / "rank0.json"
    p.write_text(json.dumps({"group": {"family": family, "n": 0},
                             "blocks": []}))
    t0 = time.monotonic()
    code, out, err = run_cli(["count", "--input", str(p), "--order",
                              str(order), "--format", "json"], capsys)
    assert time.monotonic() - t0 < 10
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["total"] == 1 and len(doc["orbits"]) == 1


def _gl_doc(e):
    return {"group": {"family": "GL", "n": e},
            "blocks": [{"side": "GL", "dim": 1, "e": e, "levi": 1}]}


def test_count_group_cap_exit_2_before_enumeration(tmp_path, capsys):
    # |W| = 12! exceeds the enumeration cap; the closed-form order refuses
    # the input before any group element is enumerated
    p = tmp_path / "gl12.json"
    p.write_text(json.dumps(_gl_doc(12)))
    t0 = time.monotonic()
    code, out, err = run_cli(["count", "--input", str(p)], capsys)
    assert time.monotonic() - t0 < 10
    assert code == 2 and out == ""
    assert "exceeds the enumeration cap" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["describe", "count"])
def test_oversized_root_datum_exit_2(command, tmp_path, capsys):
    p = tmp_path / "gl40.json"
    p.write_text(json.dumps(_gl_doc(40)))
    code, out, err = run_cli([command, "--input", str(p)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("input error: block 1: rank 40 exceeds")
    assert err.count("\n") == 1


def test_gl_blocks_30_describe_within_256_mib():
    """``describe`` on 30 GL blocks of type A11 (rank 360, 330 simple
    reflections) exits 0 in a child capped at 256 MiB of address space
    and 30 s of wall clock: a reflection is kept as its root and coroot,
    and no rank x rank matrix is built per simple reflection."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    path = pathlib.Path(__file__).resolve().parent / "data" / \
        "gl_blocks_30.json"
    proc = subprocess.run(
        [sys.executable, "-m", "heckealg.cli", "describe", "--input",
         str(path)], capture_output=True, text=True, timeout=30,
        preexec_fn=cap)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "torus dimension 360, 30 z-variable(s)" in proc.stdout


# (representative, orbit size, stabilizer order, count) per orbit.  The
# order-2 counts were checked once against a separate computation of each
# stabilizer and its cocycle-regular classes with the matrix group layer.
SP58_ORBITS = {
    1: [([0, 0, 0, 0, 0], 1, 384, 50)],
    2: [([0, 0, 0, 0, 0], 1, 384, 50), ([0, 0, 0, 0, 1], 3, 128, 50),
        ([0, 0, 0, 1, 1], 3, 128, 50), ([0, 0, 1, 1, 1], 1, 384, 50),
        ([0, 1, 0, 0, 0], 2, 192, 40), ([0, 1, 0, 0, 1], 6, 64, 40),
        ([0, 1, 0, 1, 1], 6, 64, 40), ([0, 1, 1, 1, 1], 2, 192, 40),
        ([1, 1, 0, 0, 0], 1, 384, 50), ([1, 1, 0, 0, 1], 3, 128, 50),
        ([1, 1, 0, 1, 1], 3, 128, 50), ([1, 1, 1, 1, 1], 1, 384, 50)],
}


def _orbits_digest(orbits):
    return hashlib.sha256(json.dumps(orbits, sort_keys=True).encode()
                          ).hexdigest()


# (total, number of orbits, sha256 of the sorted-key JSON of the orbit
# list) for orders too large to list; order 10 reads 8448 in 1176 orbits
# but takes several seconds, so it is not pinned here.
SP58_DIGESTS = {
    8: (4900, 525,
        "dfb21284fdf52ca02f6c4671f15fe6461f4c1818dd34f3ba544eb7864af21a56"),
}


def test_count_sp58_order_8(capsys):
    t0 = time.monotonic()
    code, out, _ = run_cli(["count", "--example", "sp58", "--order", "8",
                            "--format", "json"], capsys)
    assert time.monotonic() - t0 < 10
    assert code == 0
    doc = json.loads(out)
    assert (doc["total"], len(doc["orbits"]), _orbits_digest(doc["orbits"])
            ) == SP58_DIGESTS[8]


@pytest.mark.parametrize("order, total", [(1, 50), (2, 560)])
def test_count_sp58(order, total, capsys):
    t0 = time.monotonic()
    code, out, _ = run_cli(["count", "--example", "sp58", "--order",
                            str(order), "--format", "json"], capsys)
    assert time.monotonic() - t0 < 10
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == total
    assert [(o["representative"], o["orbit_size"], o["stabilizer_order"],
             o["count"]) for o in doc["orbits"]] == SP58_ORBITS[order]


def test_check_small(capsys):
    code, out, _ = run_cli(["check", "--seed", "7", "--triples", "3",
                            "--im-pairs", "2", "--cone-samples", "20"],
                           capsys)
    assert code == 0
    assert "0 failure(s)" in out


@pytest.mark.parametrize("flag", ["--triples", "--im-pairs",
                                  "--cone-samples"])
@pytest.mark.parametrize("value", ["0", "-5", "10001"])
def test_check_sizes_below_one_exit_2(flag, value):
    """Sizes below 1 and above the caps (2000, 1000 and 10000, ten times
    the defaults) exit 2, in a child under a 10 s limit, so that a size
    that is not refused fails here instead of running the suites."""
    proc = subprocess.run([sys.executable, "-m", "heckealg.cli", "check",
                           flag, value], capture_output=True, text=True,
                          timeout=10)
    cap = {"--triples": 2000, "--im-pairs": 1000, "--cone-samples": 10000}
    bound = ">= 1" if int(value) < 1 else "<= %d" % cap[flag]
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "input error: %s must be %s\n" % (flag, bound)


def test_check_deterministic(capsys):
    args = ["check", "--seed", "7", "--triples", "2", "--im-pairs", "2",
            "--cone-samples", "10"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_count_cuspidal(capsys):
    code, out, _ = run_cli(["count", "--example", "gl-cuspidal",
                            "--order", "3"], capsys)
    assert code == 0
    assert "total irreducibles: 3" in out


def test_count_rank1_inversion(capsys):
    # W = S_2 inverting a rank-1 torus: both order-2 points are fixed,
    # each contributing the 2 irreducibles of S_2
    code, out, _ = run_cli(["count", "--example", "sp2-iwahori",
                            "--order", "2"], capsys)
    assert code == 0
    assert "total irreducibles: 4" in out


def test_count_order_1(capsys):
    code, out, _ = run_cli(["count", "--example", "gl-a2", "--order", "1",
                            "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["orbits"]) == 1
    assert doc["orbits"][0]["representative"] == [0, 0, 0]


def test_count_sl_quotient_classes(tmp_path, capsys):
    # SL-type datum: the R-group translation identifies exponent classes
    # modulo the central direction; at order 1 the single class has the
    # full (Z/2)^2 stabilizer with a symmetric cocycle: 4 irreducibles
    doc = {
        "group": {"family": "SL", "n": 4, "division_degree": 1},
        "blocks": [
            {"side": "GL", "dim": 1, "e": 2, "levi": 2, "torsion": 2},
        ],
        "sl_rgroup": {
            "labels": ["e", "g"],
            "matrices": {"e": [[1, 0], [0, 1]], "g": [[1, 0], [0, 1]]},
            "table": {"e,e": "e", "e,g": "g", "g,e": "g", "g,g": "e"},
            "cocycle": {"e,e": 1, "e,g": 1, "g,e": 1, "g,g": -1},
            "translations": {"g": ["1/2", "1/2"]},
        },
    }
    p = tmp_path / "sl.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run_cli(["count", "--input", str(p), "--order", "1"],
                           capsys)
    assert code == 0
    assert "total irreducibles: 4" in out


def _sl_doc(matrices, table, translations=None, labels=None):
    labels = labels or sorted(matrices)
    doc = {
        "group": {"family": "SL", "n": 4, "division_degree": 1},
        "blocks": [
            {"side": "GL", "dim": 1, "e": 2, "levi": 2, "torsion": 2},
        ],
        "sl_rgroup": {
            "labels": labels, "matrices": matrices, "table": table,
            "cocycle": {"%s,%s" % (a, b): 1 for a in labels for b in labels},
        },
    }
    if translations is not None:
        doc["sl_rgroup"]["translations"] = translations
    return doc


Z2_TABLE = {"e,e": "e", "e,g": "g", "g,e": "g", "g,g": "e"}
IDENTITY = [[1, 0], [0, 1]]
BAD_SL_RGROUPS = {
    "not-unimodular": _sl_doc({"e": IDENTITY, "g": [[2, 1], [1, 2]]},
                              Z2_TABLE),
    "incomplete-table": _sl_doc({"e": IDENTITY, "g": IDENTITY},
                                {"e,e": "e", "e,g": "g", "g,e": "g"}),
    "not-a-homomorphism": _sl_doc({"e": IDENTITY, "g": [[1, 1], [0, 1]]},
                                  Z2_TABLE),
    "wrong-shape": _sl_doc({"e": IDENTITY, "g": [[1, 0]]}, Z2_TABLE),
    "moves-positive-roots": _sl_doc({"e": IDENTITY, "g": [[0, 1], [1, 0]]},
                                    Z2_TABLE),
    "wrong-rank": _sl_doc({"e": [[1]], "g": [[1]]}, Z2_TABLE),
    "bad-translation-literal": _sl_doc({"e": IDENTITY, "g": IDENTITY},
                                       Z2_TABLE, {"g": ["x", "x"]}),
    "short-translation": _sl_doc({"e": IDENTITY, "g": IDENTITY}, Z2_TABLE,
                                 {"g": ["1/2"]}),
    "translation-of-unknown-label": _sl_doc({"e": IDENTITY, "g": IDENTITY},
                                            Z2_TABLE, {"h": ["1/2", "0"]}),
    # t(g g) = t(e) = 0, but t(g) + P_g t(g) = (2/3, 0) mod 1
    "translation-breaks-group-law": _sl_doc({"e": IDENTITY, "g": IDENTITY},
                                            Z2_TABLE, {"g": ["1/3", "0"]}),
    # the simple reflection swaps the coordinates: (0, 1/2) != (1/2, 0)
    "translation-not-w-invariant": _sl_doc({"e": IDENTITY, "g": IDENTITY},
                                           Z2_TABLE, {"g": ["1/2", "0"]}),
    # two labels sharing a matrix: the matrices multiply as any table does
    "repeated-label": _sl_doc({"e": IDENTITY}, {"e,e": "e"},
                              labels=["e", "e"]),
    "no-identity-law": _sl_doc({"e": IDENTITY, "g": IDENTITY},
                               dict.fromkeys(Z2_TABLE, "e")),
    "not-associative": _sl_doc(
        {"e": IDENTITY, "a": IDENTITY, "b": IDENTITY},
        {"e,e": "e", "e,a": "a", "e,b": "b", "a,e": "a", "b,e": "b",
         "a,a": "e", "b,b": "e", "a,b": "a", "b,a": "b"}),
    # keys that are not pairs of labels
    "stray-table-key": _sl_doc({"e": IDENTITY, "g": IDENTITY},
                               dict(Z2_TABLE, **{"x,y,z": "e"})),
    "stray-cocycle-key": _sl_doc({"e": IDENTITY, "g": IDENTITY}, Z2_TABLE),
}
BAD_SL_RGROUPS["stray-cocycle-key"]["sl_rgroup"]["cocycle"]["q"] = 1


@pytest.mark.parametrize("command", ["describe", "count"])
@pytest.mark.parametrize("case", sorted(BAD_SL_RGROUPS))
def test_bad_sl_rgroup_exit_2(case, command, tmp_path, capsys):
    p = tmp_path / "sl.json"
    p.write_text(json.dumps(BAD_SL_RGROUPS[case]))
    code, out, err = run_cli([command, "--input", str(p)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: sl_rgroup:")
    assert err.count("\n") == 1 and "Traceback" not in err


UNBOUNDED_SL_COUNTS = {
    # a float literal would be read as a fraction with denominator 2^55
    "float-translation": _sl_doc({"e": IDENTITY, "g": IDENTITY}, Z2_TABLE,
                                 {"g": [0.1, 0.1]}),
    # consistent with the group law (P_g t = -t), so only the common
    # order 1000003 of the points can refuse it
    "large-denominator": _sl_doc({"e": IDENTITY, "g": [[0, -1], [-1, 0]]},
                                 Z2_TABLE, {"g": ["1/1000003", "1/1000003"]}),
}


@pytest.mark.parametrize("case", sorted(UNBOUNDED_SL_COUNTS))
def test_sl_translation_count_bounded_exit_2(case, tmp_path):
    # run in a subprocess with a timeout: without the up-front bound the
    # count does not finish
    p = tmp_path / "sl.json"
    p.write_text(json.dumps(UNBOUNDED_SL_COUNTS[case]))
    proc = subprocess.run(
        [sys.executable, "-m", "heckealg.cli", "count", "--input", str(p),
         "--order", "1"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("input error:")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_non_label_in_sl_table_exit_2(tmp_path, capsys):
    table = dict(Z2_TABLE)
    table["e,g"] = [1]
    doc = _sl_doc({"e": IDENTITY, "g": IDENTITY}, table)
    p = tmp_path / "sl.json"
    p.write_text(json.dumps(doc))
    code, out, err = run_cli(["count", "--input", str(p)], capsys)
    assert code == 2 and out == ""
    assert err == "input error: [1] is not of type 'string'\n"


def _bench_sl_doc(edit):
    """A copy of bench/data/sl.json, changed in memory by ``edit``."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "data"
    doc = json.loads((path / "sl.json").read_text())
    edit(doc["sl_rgroup"])
    return doc


MISTYPED_SL_RGROUPS = {
    # read with int(), 0.7 would be 0, and "1" and -1.9 would be 1 and -1
    "float-matrix-entry": (
        lambda r: r["matrices"].update(g=[[1, 0.7], [0, 1]]),
        "0.7 is not of type 'integer'"),
    "string-matrix-entry": (
        lambda r: r["matrices"].update(g=[[1, 0], [0, "1"]]),
        "'1' is not of type 'integer'"),
    "float-cocycle": (lambda r: r["cocycle"].update({"g,g": -1.9}),
                      "-1.9 is not of type 'integer'"),
    "bare-integer-matrix": (lambda r: r["matrices"].update(g=1),
                            "1 is not of type 'array'"),
    "bare-integer-translation": (lambda r: r["translations"].update(g=1),
                                 "1 is not of type 'array'"),
}


@pytest.mark.parametrize("case", sorted(MISTYPED_SL_RGROUPS))
def test_mistyped_sl_rgroup_exit_2(case, tmp_path, capsys):
    edit, message = MISTYPED_SL_RGROUPS[case]
    p = tmp_path / "sl.json"
    p.write_text(json.dumps(_bench_sl_doc(edit)))
    code, out, err = run_cli(["count", "--input", str(p), "--order", "2"],
                             capsys)
    assert code == 2 and out == ""
    assert err == "input error: %s\n" % message


def _edited(name, edit):
    """A copy of a built-in example, changed in memory by ``edit``."""
    from heckealg.pipeline import BUILTIN_EXAMPLES
    doc = json.loads(json.dumps(BUILTIN_EXAMPLES[name]))
    edit(doc)
    return doc


# integers written as floats: each would read as the integer it equals
INTEGRAL_FLOATS = {
    "e": (_edited("sp2-iwahori", lambda d: d["blocks"][0].update(e=1.0)),
          "1.0 is not of type 'integer'"),
    "n": (_edited("sp2-iwahori", lambda d: d["group"].update(n=1.0)),
          "1.0 is not of type 'integer'"),
    "torsion": (_edited("sp2-iwahori",
                        lambda d: d["blocks"][0].update(torsion=2.0)),
                "2.0 is not of type 'integer', 'string'"),
    "dim": (_edited("gl-a2", lambda d: d["blocks"][0].update(dim=2.0)),
            "2.0 is not of type 'integer'"),
    "division_degree": (_edited("gl-a2", lambda d: d["group"].update(
        division_degree=2.0)), "2.0 is not of type 'integer'"),
    "matrix-entry": (_bench_sl_doc(lambda r: r["matrices"].update(
        g=[[1.0, 0], [0, 1]])), "1.0 is not of type 'integer'"),
}


@pytest.mark.parametrize("command", ["describe", "count"])
@pytest.mark.parametrize("case", sorted(INTEGRAL_FLOATS))
def test_integral_float_exit_2(case, command, tmp_path, capsys):
    doc, message = INTEGRAL_FLOATS[case]
    p = tmp_path / "datum.json"
    p.write_text(json.dumps(doc))
    code, out, err = run_cli([command, "--input", str(p)], capsys)
    assert code == 2 and out == ""
    assert err == "input error: %s\n" % message


def test_cli_imports_only_the_standard_library():
    # site hooks (setuptools' _distutils_hack among them) load before the
    # snapshot; every module that the import and one command add counts
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import heckealg.cli\n"
        "heckealg.cli.main(['describe', '--example', 'sp58'])\n"
        "added = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "sys.stderr.write(' '.join(sorted(added)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0 and "BC2 x B3" in proc.stdout
    added = proc.stderr.split()
    assert "heckealg" in added
    assert [m for m in added if m != "heckealg" and
            m not in sys.stdlib_module_names] == []


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "heckealg.cli", "describe", "--example",
         "gl-a2"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "A2" in proc.stdout


PARSER_SEQUENCE = (["describe", "--example", "gl-a2"],
                   ["count", "--example", "sp2-iwahori", "--order", "4"],
                   ["count", "--order", "x"],
                   ["count", "--example", "gl-a2", "--order", "2",
                    "--format", "json"])


def test_parser_reused_across_calls(capsys):
    """One process that runs every command of the sequence, an argparse
    error (exit 2) among them, prints and exits as separate processes do."""
    alone = [subprocess.run([sys.executable, "-m", "heckealg.cli"] + args,
                            capture_output=True, text=True)
             for args in PARSER_SEQUENCE]
    for args, proc in zip(PARSER_SEQUENCE, alone):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)
    assert [p.returncode for p in alone] == [0, 0, 2, 0]


SL_ALTERNATING = pathlib.Path(__file__).resolve().parent / "data" / \
    "sl_alternating.json"


@pytest.mark.parametrize("cocycle, totals", [("alternating", (2, 4, 3)),
                                             ("trivial", (8, 16, 12))])
def test_count_depends_on_the_cocycle(cocycle, totals, tmp_path, capsys):
    """(Z/2)^2 acts trivially on the torus, so it lies in every stabilizer;
    with the alternating cocycle it has one projective irreducible where
    the trivial cocycle gives four characters, so each total is a quarter."""
    doc = json.loads(SL_ALTERNATING.read_text())
    if cocycle == "trivial":
        rgroup = doc["sl_rgroup"]
        rgroup["cocycle"] = dict.fromkeys(rgroup["cocycle"], 1)
    path = tmp_path / "sl.json"
    path.write_text(json.dumps(doc))
    for order, total in zip((1, 2, 3), totals):
        code, out, _ = run_cli(["count", "--input", str(path), "--order",
                                str(order), "--format", "json"], capsys)
        assert code == 0 and json.loads(out)["total"] == total
