"""Per-layer counters and timers wrapped around facetfit's public functions.

A traced run replaces, for its duration, the module attributes through
which facetfit's layers call each other, with wrappers that count calls and
add up inclusive wall time.  Names imported into another module are wrapped
there too: ``carrier`` is looked up in ``design``, ``sim`` and ``geometry``,
``rank_and_kernel`` in ``qp`` and ``design``, ``reconstruct`` in ``sim``.
Nothing in the library is edited; leaving the ``with`` block restores every
attribute.

Times are inclusive: ``qp.rank_s`` is also part of ``qp.cls_s`` and of
``design.uniqueness_s``, and ``fan.carrier_s`` is part of ``design.build_s``
and ``sim.sample_s``.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import facetfit.design
import facetfit.estimator
import facetfit.fan
import facetfit.geometry
import facetfit.qp
import facetfit.sim

# (layer key, owner, attribute names it is reached through).  Every module
# that imported the function by name is listed, so no call bypasses it.
_WRAPPED = (
    ("fan.validate", facetfit.fan, "validate"),
    ("fan.carrier", facetfit.fan, "carrier"),
    ("fan.carrier", facetfit.design, "carrier"),
    ("fan.carrier", facetfit.sim, "carrier"),
    ("fan.carrier", facetfit.geometry, "carrier"),
    ("sim.sample", facetfit.sim, "sample_concentrated"),
    ("sim.in_ct", facetfit.sim, "in_ct"),
    ("sim.noise", facetfit.sim.NoiseModel, "sample"),
    ("design.build", facetfit.design, "build_design"),
    ("design.build", facetfit.sim, "build_design"),
    ("design.uniqueness", facetfit.design, "uniqueness_report"),
    ("design.uniqueness", facetfit.estimator, "uniqueness_report"),
    ("design.matching", facetfit.design, "direction_graph"),
    ("design.matching", facetfit.design, "max_matching"),
    ("qp.cls", facetfit.qp, "solve_cls"),
    ("qp.rank", facetfit.qp, "rank_and_kernel"),
    ("qp.rank", facetfit.design, "rank_and_kernel"),
    ("qp.lp", facetfit.qp, "solve_lp"),
    ("estimator.reconstruct", facetfit.estimator, "reconstruct"),
    ("estimator.reconstruct", facetfit.sim, "reconstruct"),
    ("estimator.solution_set", facetfit.estimator, "solution_set"),
    ("estimator.unbounded", facetfit.estimator, "detect_unbounded"),
    ("geometry.hausdorff", facetfit.geometry, "hausdorff"),
    ("geometry.hausdorff", facetfit.sim, "hausdorff"),
    ("geometry.cap_max", facetfit.geometry, "max_linear_over_cone_cap"),
)


class Tracer:
    """Call counts, inclusive seconds and a few work counters per layer."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.work: dict[str, int] = defaultdict(int)

    def reset(self):
        self.calls.clear()
        self.seconds.clear()
        self.work.clear()

    def _note(self, key, result):
        """Work counters that the return value carries."""
        if key == "sim.in_ct" and result:
            self.work["sim.in_ct_accepted"] += 1
        elif key == "design.build":
            self.work["design.rows_built"] += len(result.matrix)
        elif key == "qp.cls":
            self.work["qp.cls_iterations"] += result.iterations

    def _wrap(self, key, func):
        calls, seconds, note = self.calls, self.seconds, self._note
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                seconds[key] += clock() - start
                calls[key] += 1
            note(key, result)
            return result

        traced.__wrapped__ = func
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block."""
        saved = []
        try:
            for key, owner, attr in _WRAPPED:
                func = owner.__dict__[attr]
                saved.append((owner, attr, func))
                setattr(owner, attr, self._wrap(key, func))
            yield self
        finally:
            for owner, attr, func in reversed(saved):
                setattr(owner, attr, func)

    def per_task(self, tasks: int) -> dict[str, float]:
        """Loop metrics divided by the number of tasks (``accept_ratio`` is a
        ratio of in_ct calls and is not divided)."""
        out = {}
        for key in ("fan.carrier", "sim.in_ct", "qp.rank", "qp.lp", "geometry.cap_max"):
            out[key + "_calls"] = self.calls[key] / tasks
        for key in ("fan.carrier", "sim.sample", "sim.noise", "design.build",
                    "design.uniqueness", "design.matching", "qp.cls", "qp.rank",
                    "qp.lp", "estimator.reconstruct", "estimator.solution_set",
                    "estimator.unbounded", "geometry.hausdorff"):
            out[key + "_s"] = self.seconds[key] / tasks
        out["design.rows_built"] = self.work["design.rows_built"] / tasks
        out["qp.cls_iterations"] = self.work["qp.cls_iterations"] / tasks
        in_ct = self.calls["sim.in_ct"]
        out["sim.accept_ratio"] = self.work["sim.in_ct_accepted"] / in_ct if in_ct else 0.0
        return out
