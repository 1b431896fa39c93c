"""Per-layer spans and counts, recorded from outside the library.

``Tracer.install`` replaces entry points of the ``heckealg`` layers with
wrappers and ``Tracer.remove`` puts the originals back, so untraced
passes run the unmodified program.  A module-level function is replaced
in every ``heckealg`` module that holds it (``cli`` imports ``assemble``
by name, for instance); a method is replaced on its class.

Spans are aggregated in place rather than stored one by one: the
coefficient ring is entered millions of times per pass.  For each span
name the tracer keeps the number of calls, the inclusive time of the
outermost calls, and the self time, which is the span's duration minus
the time covered by the traced spans it contains.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from heckealg import coeffs, hecke, pipeline, spectra, weyl

# (owner, attribute, span name); owner is a module or a class.
SPANS = (
    (coeffs.LaurentZ, "__mul__", "laurent_mul"),
    (coeffs.TorusAlgebraElement, "__mul__", "torus_mul"),
    (coeffs.TorusAlgebraElement, "act_matrix", "act_matrix"),
    (hecke, "multiply", "multiply"),
    (hecke, "graded_multiply", "graded_multiply"),
    (hecke, "im_involution", "im_involution"),
    (hecke, "multiply_crossed", "crossed_multiply"),
    (weyl.ExtendedGroup, "mult", "group_mult"),
    (weyl.ExtendedGroup, "inv", "group_inv"),
    (weyl.ExtendedGroup, "act_point", "act_point"),
    (weyl.WeylGroup, "enumerate", "enumerate"),
    (weyl.WeylGroup, "reduced_word", "reduced_word"),
    (weyl.WeylGroup, "length", "length"),
    (weyl, "cone_classify", "cone_classify"),
    (spectra, "extended_quotient_count", "count"),
    (spectra.FiniteGroup, "conjugacy_classes", "conjugacy_classes"),
    (spectra, "count_twisted_irreps", "twisted_irreps"),
    (spectra, "twisted_algebra_center_dim", "center_dim"),
    (pipeline, "assemble", "assemble"),
    (pipeline, "datum_from_json", "datum_from_json"),
)

# Entry points that are counted but not timed.
COUNTS = ((hecke, "_ns_mul", "ns_steps"),)


def normal_form_terms(elem) -> int:
    """Monomials (group element, lattice vector, z-monomial) of a product."""
    n = 0
    for coeff in elem.terms.values():
        for v in coeff.terms.values():
            n += len(v.terms) if isinstance(v, coeffs.LaurentZ) else 1
    return n


class Tracer:
    def __init__(self):
        self._saved: List[Tuple[object, str, object]] = []
        self.calls: Counter = Counter()
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.max_stabilizer = 0
        self._active: Counter = Counter()
        self._stack: List[List[float]] = [[0.0]]

    def reset(self) -> None:
        """Forget everything recorded; the installed wrappers stay."""
        for store in (self.calls, self.inclusive, self.self_time,
                      self.counts, self._active):
            store.clear()
        self.max_stabilizer = 0
        self._stack[:] = [[0.0]]

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, fn: Callable,
              on_result: Optional[Callable] = None) -> Callable:
        clock = time.perf_counter
        stack, active = self._stack, self._active
        calls, inclusive = self.calls, self.inclusive
        self_time = self.self_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stack[-1][0] += dur
                self_time[name] += dur - frame[0]
                active[name] -= 1
                if not active[name]:
                    inclusive[name] += dur
                calls[name] += 1
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _on_multiply(self, result) -> None:
        self.counts["normal_form_terms"] += normal_form_terms(result)

    def _on_count(self, result) -> None:
        _total, orbits = result
        self.counts["points"] += sum(o.orbit_size for o in orbits)
        self.counts["orbits"] += len(orbits)
        self.max_stabilizer = max([self.max_stabilizer] +
                                  [o.stabilizer_order for o in orbits])

    # -- install / remove -------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        if isinstance(owner, type):
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("heckealg") and \
                    getattr(mod, attr, None) is original:
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        hooks = {"multiply": self._on_multiply, "count": self._on_count}
        for owner, attr, name in SPANS:
            self._replace(owner, attr,
                          self._span(name, getattr(owner, attr),
                                     hooks.get(name)))
        for owner, attr, name in COUNTS:
            self._replace(owner, attr, self._count(name, getattr(owner, attr)))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- metrics ------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        c, t, s = self.calls, self.inclusive, self.self_time
        points = self.counts["points"]
        return {
            "coeffs.laurent_mul_calls": c["laurent_mul"],
            "coeffs.laurent_mul_s": t["laurent_mul"],
            "coeffs.torus_mul_calls": c["torus_mul"],
            "coeffs.torus_mul_s": t["torus_mul"],
            "coeffs.act_matrix_s": t["act_matrix"],
            "hecke.multiply_calls": c["multiply"],
            "hecke.multiply_self_s": s["multiply"],
            "hecke.ns_steps": self.counts["ns_steps"],
            "hecke.normal_form_terms": self.counts["normal_form_terms"],
            "hecke.graded_multiply_s": t["graded_multiply"],
            "hecke.im_involution_s": t["im_involution"],
            "hecke.crossed_multiply_s": t["crossed_multiply"],
            "weyl.group_mult_calls": c["group_mult"],
            "weyl.group_mult_s": t["group_mult"],
            "weyl.group_inv_s": t["group_inv"],
            "weyl.act_point_calls": c["act_point"],
            "weyl.act_point_s": t["act_point"],
            "weyl.enumerate_s": t["enumerate"],
            "weyl.cone_classify_calls": c["cone_classify"],
            "weyl.cone_classify_s": t["cone_classify"],
            "weyl.reduced_word_s": t["reduced_word"],
            "weyl.length_s": t["length"],
            "spectra.count_self_s": s["count"],
            "spectra.conjugacy_classes_s": t["conjugacy_classes"],
            "spectra.twisted_irreps_s": t["twisted_irreps"],
            "spectra.center_dim_s": t["center_dim"],
            "spectra.points": points,
            "spectra.orbits": self.counts["orbits"],
            "spectra.max_stabilizer": self.max_stabilizer,
            "spectra.act_point_per_point":
                c["act_point"] / points if points else 0.0,
            "pipeline.assemble_s": t["assemble"],
            "pipeline.datum_from_json_s": t["datum_from_json"],
        }
