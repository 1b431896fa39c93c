"""Seeded mutation fuzz of the input boundary.

A built-in or ``bench/data`` datum with one or two values replaced,
deleted or added goes through ``datum_from_json`` -> ``assemble`` ->
``count --order 2``.  It either counts, or fails with the
``ValidationError`` that the CLI turns into exit 2 with one stderr line;
any other exception would be a traceback at the CLI.
"""

import argparse
import contextlib
import copy
import io
import json
import pathlib

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from heckealg.cli import cmd_count  # noqa: E402
from heckealg.pipeline import BUILTIN_EXAMPLES, ValidationError  # noqa: E402

BENCH_DATA = pathlib.Path(__file__).resolve().parents[1] / "bench" / "data"
BASES = [doc for _name, doc in sorted(BUILTIN_EXAMPLES.items())] + [
    json.loads(path.read_text()) for path in sorted(BENCH_DATA.glob("*.json"))]

# small integers keep every mutated group and point set small enough to
# count in well under a second
INTS = st.integers(-2, 4)
STRINGS = st.sampled_from(["", "e", "g", "x", "1/2", "1/3", "2/0", "-1",
                           "t(tau)", "GL", "SL", "Sp", "SO", "S", "O", "e,g",
                           "g,g"])
VALUES = st.one_of(
    INTS, STRINGS, st.none(), st.booleans(),
    st.just([]), st.just({}), st.just([[1, 0], [0, 1]]),
    st.just([[0, 1], [1, 0]]), st.just(["1/2"]), st.just(0.5), st.just(1.0),
    st.just(2.0)
).map(copy.deepcopy)     # a value inserted twice must not be one object


def _paths(node, prefix=()):
    """Paths (tuples of keys and indices) to every value below the root."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    out = []
    for key, value in items:
        out.append(prefix + (key,))
        out.extend(_paths(value, prefix + (key,)))
    return out


@st.composite
def mutated_datums(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(_paths(doc)))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["same-type"] * 6 +
                                      ["replace", "delete", "add"]))
        old = parent[path[-1]]
        if action == "same-type" and type(old) in (int, str):
            parent[path[-1]] = draw(INTS if type(old) is int else STRINGS)
        elif action in ("same-type", "replace"):
            parent[path[-1]] = draw(VALUES)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(["extra", "n", "e", "torsion",
                                         "translations"]))] = draw(VALUES)
        else:
            parent.append(draw(VALUES))
    return doc


@pytest.fixture(scope="module")
def datum_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "datum.json"


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(doc=mutated_datums())
def test_mutated_datums_fail_only_with_validation_errors(doc, datum_file):
    datum_file.write_text(json.dumps(doc))
    args = argparse.Namespace(input=str(datum_file), example=None, order=2,
                              format="json")
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            assert cmd_count(args) == 0
        except ValidationError:
            pass
