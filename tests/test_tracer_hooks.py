"""The entry points that ``bench/tracing.py`` wraps still exist.

The benchmark tracer replaces library functions by name; a rename in
``src/`` would otherwise surface only when the benchmark runs.  This
test imports the tracer module and touches nothing under ``bench/``.
"""

import importlib.util
import pathlib
import random

from heckealg import hecke
from heckealg.checks import random_element, standard_descriptors

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve_and_round_trip():
    tracing = _load_tracing()
    hooks = tracing.SPANS + tracing.COUNTS
    originals = {(owner, attr): getattr(owner, attr, None)
                 for owner, attr, _name in hooks}
    missing = [attr for (owner, attr), fn in originals.items()
               if not callable(fn)]
    assert missing == []

    desc = standard_descriptors()["B2"]
    rng = random.Random(0)
    a, b = random_element(desc, rng), random_element(desc, rng)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not fn
                   for (owner, attr), fn in originals.items())
        # through the module attribute, which the tracer replaces
        product = hecke.multiply(desc, a, b)
        metrics = tracer.metrics()
    finally:
        tracer.remove()
    assert all(getattr(owner, attr) is fn
               for (owner, attr), fn in originals.items())
    assert product == hecke.multiply(desc, a, b)
    assert metrics["hecke.multiply_calls"] == 1
    assert metrics["hecke.ns_steps"] > 0
    assert metrics["weyl.reduced_word_s"] > 0
