"""Golden outputs: CLI reports, canonical product forms and demo output.

``tests/golden.json`` pins, byte for byte:

* ``describe --format json`` for every built-in example;
* ``count --format json`` for a set of built-in and SL data and orders;
* ``serialize_element`` forms of seeded affine products (symbolic,
  specialized and at z = 1);
* sorted canonical forms of seeded graded products and of their images
  under the Iwahori-Matsumoto involution;
* the standard output of every demo script.

Regenerate the file only for an intended change of output:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from heckealg.checks import (graded_test_descriptors, random_element,
                             random_graded, standard_descriptors)
from heckealg.cli import main
from heckealg.hecke import (graded_multiply, im_involution, multiply,
                            quotient_z1, serialize_element)
from heckealg.pipeline import BUILTIN_EXAMPLES

from oracle_helpers import monomials, specialize_element

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_FILE = Path(__file__).resolve().parent / "golden.json"
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))

SL_DATUM = {
    "group": {"family": "SL", "n": 4, "division_degree": 1},
    "blocks": [{"side": "GL", "dim": 1, "e": 2, "levi": 2, "torsion": 2}],
    "sl_rgroup": {
        "labels": ["e", "g"],
        "matrices": {"e": [[1, 0], [0, 1]], "g": [[1, 0], [0, 1]]},
        "table": {"e,e": "e", "e,g": "g", "g,e": "g", "g,g": "e"},
        "cocycle": {"e,e": 1, "e,g": 1, "g,e": 1, "g,g": -1},
        "translations": {"g": ["1/2", "1/2"]},
    },
}

COUNT_CASES = ([("gl-cuspidal", 1)]
               + [("gl-a2", n) for n in (1, 2, 3, 4)]
               + [("sp2-iwahori", n) for n in (1, 2, 3, 4, 6)]
               + [("sl", n) for n in (1, 2)])


def _cli_stdout(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    assert code == 0, args
    return buf.getvalue()


def describe_json(example):
    return _cli_stdout(["describe", "--example", example, "--format", "json"])


def count_json(example, order):
    args = ["count", "--order", str(order), "--format", "json"]
    if example in BUILTIN_EXAMPLES:
        return _cli_stdout(args + ["--example", example])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "datum.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(SL_DATUM, fh)
        return _cli_stdout(args + ["--input", path])


@lru_cache(maxsize=None)
def _descriptors():
    return standard_descriptors()


def affine_products():
    """name -> serialize_element of seeded products."""
    out = {}
    for name, desc in _descriptors().items():
        rng = random.Random(2017)
        for i in range(3):
            a, b = random_element(desc, rng), random_element(desc, rng)
            out["%s/%d" % (name, i)] = serialize_element(
                desc, multiply(desc, a, b))
        spec = desc.specialized(tuple(Fraction(3, 2) for _ in range(desc.d)))
        a, b = (specialize_element(spec, random_element(desc, rng))
                for _ in range(2))
        out["%s/specialized" % name] = serialize_element(
            spec, multiply(spec, a, b))
        q1 = quotient_z1(desc)
        a, b = (specialize_element(q1, random_element(desc, rng))
                for _ in range(2))
        out["%s/z1" % name] = serialize_element(q1, multiply(q1, a, b))
    return out


def graded_form(gd, elem):
    """Sorted [reduced word, label, monomial, r-exponents, coefficient]."""
    rows = []
    for key, coeff in elem.terms.items():
        word = list(gd.weyl.reduced_word(key.weyl))
        for mono, rexp, c in monomials(coeff, gd.d):
            rows.append([word, key.diagram, list(mono), list(rexp), c])
    return sorted(rows)


def graded_products():
    """name -> canonical forms of a seeded graded product and IM images."""
    out = {}
    for name, gd in graded_test_descriptors(_descriptors()).items():
        rng = random.Random(2017)
        for i in range(2):
            a, b = random_graded(gd, rng), random_graded(gd, rng)
            ab = graded_multiply(gd, a, b)
            out["%s/%d" % (name, i)] = {
                "product": graded_form(gd, ab),
                "im_a": graded_form(gd, im_involution(gd, a)),
                "im_product": graded_form(gd, im_involution(gd, ab)),
            }
    return out


def demo_stdout(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env,
                          cwd=str(ROOT), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def collect():
    return {
        "describe": {ex: describe_json(ex) for ex in sorted(BUILTIN_EXAMPLES)},
        "count": {"%s/%d" % case: count_json(*case) for case in COUNT_CASES},
        "affine": affine_products(),
        "graded": graded_products(),
        "demos": {demo: demo_stdout(demo) for demo in DEMOS},
    }


@lru_cache(maxsize=None)
def golden():
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("example", sorted(BUILTIN_EXAMPLES))
def test_describe_json_golden(example):
    assert describe_json(example) == golden()["describe"][example]


@pytest.mark.parametrize("case", COUNT_CASES,
                         ids=["%s-%d" % case for case in COUNT_CASES])
def test_count_json_golden(case):
    assert count_json(*case) == golden()["count"]["%s/%d" % case]


def test_affine_products_golden():
    assert affine_products() == golden()["affine"]


def test_graded_products_golden():
    assert graded_products() == golden()["graded"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_stdout_golden(demo):
    assert demo_stdout(demo) == golden()["demos"][demo]


if __name__ == "__main__":
    GOLDEN_FILE.write_text(json.dumps(collect(), indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
