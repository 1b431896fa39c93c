"""The entry points that ``bench/tracing.py`` wraps still exist.

The benchmark tracer replaces library functions by name; a rename in
``src/`` would otherwise surface only when the benchmark runs.  This
test imports the tracer module and touches nothing under ``bench/``.
"""

import random

from heckealg import hecke, spectra
from heckealg.checks import random_element, standard_descriptors
from heckealg.coeffs import LaurentZ, TorusAlgebraElement
from heckealg.root_data import build_classical
from heckealg.weyl import ExtendedGroup

from oracle_helpers import load_bench_module


def _load_tracing():
    return load_bench_module("tracing")


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


def test_tracer_counts_laurent_and_torus_products_apart():
    tracing = _load_tracing()
    z = LaurentZ.var_power(2, 1, 1) - LaurentZ.var_power(2, 2, -1)
    t = TorusAlgebraElement(1, {(1,): z, (-2,): 3})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        z * z
        laurent = tracer.metrics()
        tracer.reset()
        t * t
        torus = tracer.metrics()
    finally:
        tracer.remove()
    assert (laurent["coeffs.laurent_mul_calls"],
            laurent["coeffs.torus_mul_calls"]) == (1, 0)
    assert (torus["coeffs.laurent_mul_calls"],
            torus["coeffs.torus_mul_calls"]) == (0, 1)


def test_tracer_sees_the_class_pass_of_a_count():
    tracing = _load_tracing()
    group = spectra.FiniteGroup.from_extended(
        ExtendedGroup(build_classical("B", 2)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # through the module attribute, which the tracer replaces
        count = spectra.count_twisted_irreps(group)
        metrics = tracer.metrics()
        calls = dict(tracer.calls)
    finally:
        tracer.remove()
    assert count == 5
    assert metrics["spectra.conjugacy_classes_s"] > 0
    assert metrics["spectra.twisted_irreps_s"] > 0
    assert calls["twisted_irreps"] == calls["conjugacy_classes"] == 1
