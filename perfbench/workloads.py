"""The four benchmark workloads and the loop that times them.

Every workload has the same life cycle:

1. ``fans()`` builds its fans, which are written to fan files;
2. set-up loads them back with ``cli.load_fan`` and validates them, builds
   the wall system and the constants (c_delta), several times over; the
   median is ``setup_s``;
3. ``prepare(seed)`` makes the inputs from the seed;
4. the timed loop runs whole rounds of the same tasks until the run length
   is used up, so every round does identical work and the failed share of a
   run does not depend on how many rounds fit; peak memory is read when the
   first round ends, and the outputs of the last round are kept;
5. ``check()`` compares the kept outputs with the reference computations in
   ``oracle`` and with the method's guarantees, and every round's outputs
   with the first's.

Tasks call facetfit through module attributes (``facetfit.estimator.
reconstruct``, not a name bound at import), so a traced run sees them.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import facetfit.catalog
import facetfit.cli
import facetfit.estimator
import facetfit.qp
import facetfit.sim
from facetfit.design import Dataset

import oracle
from tracing import Tracer


@dataclass
class Task:
    """One operation: its wall time, the host-speed factor around it, and
    whether it is of the workload's largest size (the class ``task_p50_s``
    is taken over)."""

    wall: float
    factor: float
    large: bool

    @property
    def seconds(self) -> float:
        """Time in reference seconds."""
        return self.wall * self.factor


class HostSpeed:
    """Converts wall time on a shared host into seconds at a reference speed.

    The host's speed drifts by up to a third over tens of seconds, from
    other machines sharing it.  A fixed reference computation (a Python
    loop of small numpy products, the kind of work facetfit's loops do) is
    timed before and after every task; the task's wall time is scaled by
    ``REFERENCE_S`` over the mean of the two probes.  Nothing
    of facetfit runs in the probe, so the scale does not move with the
    program.
    """

    REFERENCE_S = 0.004   # the probe unit at full speed on the 2-core host
    _M = np.array([[0.9, -0.2, 0.1], [0.3, 1.1, -0.4], [-0.1, 0.2, 0.8]])

    def __init__(self):
        self.last = None

    def _unit(self):
        u = np.array([0.3, 0.5, 0.8])
        acc = 0.0
        for _ in range(1000):
            acc += float(np.min(self._M @ u))
            u = u[::-1].copy()
        return acc

    def probe(self, reps: int = 5) -> float:
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            self._unit()
            times.append(time.perf_counter() - start)
        self.last = statistics.median(times)
        return self.last

    def timed(self, func):
        """Run ``func()``; return ``(result, wall seconds, factor)``.

        One probe unit is only milliseconds long and noisy, so after a long
        task the probe repeats the unit for about 5% of the task's time.
        """
        before = self.last if self.last is not None else self.probe()
        start = time.perf_counter()
        result = func()
        wall = time.perf_counter() - start
        reps = min(60, max(5, round(0.05 * wall / before)))
        return result, wall, self.factor(before, self.probe(reps))

    def factor(self, before: float, after: float) -> float:
        return 2.0 * self.REFERENCE_S / (before + after)


class ProbedNoise:
    """The noise model of a convergence run, probing the host speed first.

    ``run_convergence`` draws the noise once per replicate, inside the
    replicate's timer; the probe's value and duration are recorded by
    (m, replicate) so the task time can leave the probe out.
    """

    def __init__(self, noise: facetfit.sim.NoiseModel, speed: HostSpeed):
        self.noise = noise
        self.speed = speed
        self.probes: dict[tuple, tuple[float, float]] = {}

    def sample(self, m, key=()):
        start = time.perf_counter()
        value = self.speed.probe(reps=3)
        self.probes[tuple(key)] = (value, time.perf_counter() - start)
        return self.noise.sample(m, key=key)


@dataclass
class CheckReport:
    failed_per_round: int = 0
    problems: list[str] = field(default_factory=list)

    def expect(self, ok, message):
        if not ok:
            self.problems.append(message)


class Workload:
    name = ""
    setup_reps = 11

    def __init__(self, size: str):
        self.size = size
        self.notes: list[str] = []   # failed operations, for the log

    def fans(self) -> dict:
        raise NotImplementedError

    def prepare(self, fans: dict, seed: int) -> None:
        raise NotImplementedError

    def run_round(self, fans: dict, capture: bool, speed: HostSpeed):
        """Run one round; return ``(tasks, fingerprint)``.
        ``capture`` marks the round whose outputs ``check`` examines."""
        raise NotImplementedError

    def check(self, fans: dict, report: CheckReport) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Convergence workloads: sim.run_convergence, one task per replicate
# ---------------------------------------------------------------------------

class Convergence(Workload):
    """Acceptance criterion 5 style experiment through ``run_convergence``.

    The reconstructions of the captured round (dataset and result) are kept
    by wrapping ``facetfit.sim.reconstruct``, one extra Python call per
    replicate, so the checks can recompute them.
    """

    fan_key = ""
    schedules = {}
    replicates = 20
    sigma = 0.1
    eta = 0.05
    slope_band = (-0.75, -0.25)

    def plan(self, fan, m):
        raise NotImplementedError

    def prepare(self, fans, seed):
        self.schedule = self.schedules[self.size]
        self.plan_seed = 2 * seed
        self.noise = facetfit.sim.NoiseModel(sigma=self.sigma, seed=2 * seed + 1)
        self.h0 = np.ones(fans[self.fan_key].n_rays)
        self.captured = []

    def run_round(self, fans, capture, speed):
        fan = fans[self.fan_key]
        sim = facetfit.sim
        if capture:
            inner = sim.reconstruct

            def capture(f, dataset, opts=None):
                result = inner(f, dataset, opts)
                self.captured.append((dataset, result))
                return result

            sim.reconstruct = capture
        noise = ProbedNoise(self.noise, speed)
        try:
            start = speed.last if speed.last is not None else speed.probe()
            records = sim.run_convergence(fan, self.h0, lambda m: self.plan(fan, m),
                                          self.schedule, self.replicates, noise)
            end = speed.probe()
        finally:
            if capture:
                sim.reconstruct = inner
        if capture:
            self.records = records
        # Each replicate's time, less its probe, scaled by its own probe and
        # the next one.
        top = self.schedule[-1]
        probes = [noise.probes.get((r.m, r.replicate)) for r in records]
        values = [p[0] for p in probes if p is not None]
        following = iter(values[1:] + [end])
        tasks = []
        for r, probe in zip(records, probes):
            if probe is None:   # failed before drawing its noise
                tasks.append(Task(r.elapsed, speed.factor(start, end), r.m == top))
            else:
                value, spent = probe
                tasks.append(Task(r.elapsed - spent, speed.factor(value, next(following)),
                                  r.m == top))
        fingerprint = [(r.m, r.replicate, r.failed, r.hausdorff_error, r.objective)
                       for r in records]
        return tasks, fingerprint

    def check(self, fans, report):
        fan = fans[self.fan_key]
        records = self.records
        report.failed_per_round = sum(r.failed for r in records)
        report.expect(len(records) == len(self.schedule) * self.replicates,
                      f"{len(records)} records")
        report.expect(report.failed_per_round == 0,
                      f"{report.failed_per_round} failed records: "
                      + "; ".join(r.message for r in records if r.failed)[:300])
        if report.failed_per_round:
            return
        medians = [statistics.median(r.hausdorff_error for r in records if r.m == m)
                   for m in self.schedule]
        report.expect(all(a > b for a, b in zip(medians, medians[1:])),
                      f"median errors {medians} do not fall as m grows")
        slope = oracle.loglog_slope(self.schedule, medians)
        lo, hi = self.slope_band
        report.expect(lo <= slope <= hi, f"log-log slope {slope:.3f} outside [{lo}, {hi}]")
        params = facetfit.sim.bound_parameters(
            fan, self.plan(fan, self.schedule[0]), gamma=self.noise.gamma, eta=self.eta)
        violations = sum(r.hausdorff_error >= params.value(r.m) for r in records)
        allowed = max(3, len(records) // 20)
        report.expect(violations <= allowed,
                      f"bound violated {violations} times in {len(records)}")

        report.expect(len(self.captured) == len(records),
                      f"captured {len(self.captured)} reconstructions")
        rays, cells = fan.rays.copy(), [tuple(c) for c in fan.cells]
        W = oracle.wall_rows(rays, cells)
        cover = oracle.sphere_covering(fan.dim, 20000)
        radius = oracle.covering_radius(fan.dim, 20000)
        for rec, (dataset, result) in zip(records, self.captured):
            where = f"m={rec.m} replicate {rec.replicate}"
            report.expect(rec.objective == result.objective, f"{where}: record objective")
            h = result.h_hat
            report.expect(float(np.min(W @ h)) >= -1e-9 * (1.0 + np.linalg.norm(h)),
                          f"{where}: h_hat outside the deformation cone")
            self.check_fit(fan, dataset, result, W, report, where)
            lower, lipschitz = oracle.sampled_hausdorff(rays, cells, h, self.h0, cover)
            err = rec.hausdorff_error
            report.expect(lower <= err * (1.0 + 1e-9) + 1e-12
                          and err <= lower + lipschitz * radius + 1e-12,
                          f"{where}: Hausdorff error {err} against sampled {lower}")
            if len(report.problems) > 20:
                return

    def check_fit(self, fan, dataset, result, W, report, where):
        raise NotImplementedError


class ConvergenceHexagon(Convergence):
    """Hexagon, exact facet directions (t = 0): every sample is a ray."""

    name = "convergence-hexagon"
    fan_key = "hexagon"
    schedules = {"full": (100, 1000, 10000), "tiny": (30, 100, 300)}

    def fans(self):
        return {"hexagon": facetfit.catalog.hexagon_fan()}

    def plan(self, fan, m):
        return facetfit.sim.facet_direction_plan(fan, m, delta=1.0 / 6.0,
                                                 seed=self.plan_seed)

    def check_fit(self, fan, dataset, result, W, report, where):
        # Each sample is a normalized ray, so the estimate is the per-ray
        # mean of the values and the objective the within-ray sum of squares.
        units = fan.rays / np.linalg.norm(fan.rays, axis=1)[:, None]
        ray_of = np.argmax(dataset.directions @ units.T, axis=1)
        y = dataset.values
        h_ref = np.array([y[ray_of == j].mean() for j in range(fan.n_rays)])
        within = float(sum(np.sum((y[ray_of == j] - h_ref[j]) ** 2)
                           for j in range(fan.n_rays)))
        dev = float(np.max(np.abs(result.h_hat - h_ref)))
        report.expect(dev <= 1e-12 * (1.0 + float(np.max(np.abs(h_ref)))),
                      f"{where}: h_hat is {dev:.2e} from the per-ray means")
        report.expect(abs(result.objective - within) <= 1e-9 * (1.0 + within),
                      f"{where}: objective {result.objective} against {within}")


class ConvergenceConcentrated(Convergence):
    """Well-conditioned random 3D fan, t > 0 plan with a uniform fill."""

    name = "convergence-3d-concentrated"
    fan_key = "fan3d"
    schedules = {"full": (200, 800, 3200), "tiny": (60, 120, 240)}
    t = 0.004
    delta = 0.08

    def fans(self):
        return {"fan3d": facetfit.catalog.random_polytopal_fan(3, 6, seed=203)}

    def plan(self, fan, m):
        return facetfit.sim.make_plan(fan, self.t, self.delta, m, seed=self.plan_seed)

    def check_fit(self, fan, dataset, result, W, report, where):
        A = oracle.design(fan.rays, fan.cells, dataset.directions)
        check_cone_fit(A, dataset.values, W, result, report, where)


def check_cone_fit(A, y, W, result, report, where):
    """Objective and estimate against the QR/NNLS solve, plus the KKT
    residual recomputed from A, y, W and h_hat."""
    h_ref, obj_ref = oracle.cone_least_squares(A, y, W)
    report.expect(abs(result.objective - obj_ref) <= 1e-8 * (1.0 + obj_ref),
                  f"{where}: objective {result.objective} against {obj_ref}")
    gap = float(np.max(np.abs(result.h_hat - h_ref)))
    report.expect(gap <= 1e-6 * (1.0 + float(np.max(np.abs(h_ref)))),
                  f"{where}: h_hat is {gap:.2e} from the reference solve")
    kkt = oracle.kkt_residual(A, y, W, result.h_hat)
    tol = oracle.kkt_tolerance(A, y)
    report.expect(kkt <= tol, f"{where}: KKT residual {kkt:.2e} above {tol:.2e}")


# ---------------------------------------------------------------------------
# One large reconstruction per task
# ---------------------------------------------------------------------------

class ReconstructLarge(Workload):
    """``reconstruct`` at m = 2e4 uniform directions on a 20-cell 3D fan.

    m is 2e4 rather than 5e4 so that a task lasts about 1.5 reference
    seconds: the host-speed probes around 5 s tasks could not follow the
    host's drift (quartile spreads of 9-17% between runs, against 1-3%).

    The truth is ``1 + s g`` for a Gaussian g, with s the largest step that
    keeps it in the deformation cone, so one wall is tight.  Values are its
    support values, from its vertices, plus N(0, 0.1^2) noise.
    """

    name = "reconstruct-large"
    sizes = {"full": 20_000, "tiny": 2_000}
    sigma = 0.1

    def fans(self):
        return {"fan3d": facetfit.catalog.random_polytopal_fan(3, 12, seed=7)}

    def prepare(self, fans, seed):
        fan = fans["fan3d"]
        rays, cells = fan.rays.copy(), [tuple(c) for c in fan.cells]
        rng = np.random.default_rng([seed, 3])
        m = self.sizes[self.size]
        U = rng.standard_normal((m, fan.dim))
        U /= np.linalg.norm(U, axis=1)[:, None]
        W = oracle.wall_rows(rays, cells)
        base = np.ones(fan.n_rays)
        g = rng.standard_normal(fan.n_rays)
        wg = W @ g
        down = wg < 0
        step = float(np.min((W @ base)[down] / -wg[down]))
        self.truth = base + step * g
        values = oracle.support_values(oracle.vertices(rays, cells, self.truth), U)
        self.dataset = Dataset(U, values + self.sigma * rng.standard_normal(m))

    def run_round(self, fans, capture, speed):
        result, wall, factor = speed.timed(
            lambda: facetfit.estimator.reconstruct(fans["fan3d"], self.dataset))
        if capture:
            self.result = result
        fingerprint = (result.h_hat.tobytes(), result.objective,
                       result.solution_set.dimension)
        return [Task(wall, factor, True)], fingerprint

    def check(self, fans, report):
        fan = fans["fan3d"]
        rays, cells = fan.rays.copy(), [tuple(c) for c in fan.cells]
        A = oracle.design(rays, cells, self.dataset.directions)
        W = oracle.wall_rows(rays, cells)
        check_cone_fit(A, self.dataset.values, W, self.result, report, self.name)
        report.expect(self.result.solution_set.dimension == 0
                      and self.result.uniqueness.unique_for_all_y,
                      "full-rank design reported as not unique")


# ---------------------------------------------------------------------------
# Under-determined reconstructions (m < n): the solution-set LPs
# ---------------------------------------------------------------------------

@dataclass
class Case:
    fan_key: str
    dataset: Dataset
    warm_start: np.ndarray | None
    large: bool
    label: str


class Underdetermined(Workload):
    """``reconstruct`` with fewer samples than rays.

    Seeded datasets: uniform directions that positively span R^d (so the
    minimizer set is bounded and ``detect_unbounded`` runs all its LPs),
    values of P(1) plus N(0, 0.02^2) noise, refit from the warm start
    h = 1.  The benchmark predicts the estimate, ``1 + A^+ (y - A 1)``, and
    redraws until it lies strictly inside the cone; the minimizer set then
    has the full kernel dimension.

    Fixed datasets, the same for every seed, reproduce the two known
    faults from a cold start; each fails every time it runs:
    - F1: on the 12-ray fan the estimate lands on a wall within round-off
      and ``solution_set`` lets ``qp.Infeasible`` escape;
    - F2: on the hexagon ``solution_set`` counts movable kernel vectors
      and reports dimension 1 for a set of dimension 2.
    """

    name = "underdetermined"
    setup_reps = 7
    sigma = 0.02
    # (fan, m, datasets per round); the last is the largest size.
    specs = {
        "full": (("hexagon", 4, 2), ("octagon", 6, 2), ("fan3d_10", 7, 1),
                 ("fan3d_12", 9, 1), ("fan3d_14", 11, 1)),
        "tiny": (("hexagon", 4, 2), ("octagon", 6, 2)),
    }
    # The dataset of the largest size runs this many times a round, so that
    # ``task_p50_s`` is a median over several tasks in every run.
    large_repeats = {"full": 3, "tiny": 1}
    # (label, fan, m, generator seed, noise): datasets that hit F1 and F2.
    fixed = (("F1", "fan3d_12", 7, 1060, 0.3), ("F2", "hexagon", 4, 11, 0.3))

    def fans(self):
        cat = facetfit.catalog
        return {
            "hexagon": cat.hexagon_fan(),
            "octagon": cat.regular_polygon_fan(8),
            "fan3d_10": cat.random_polytopal_fan(3, 10, seed=11),
            "fan3d_12": cat.random_polytopal_fan(3, 12, seed=7),
            "fan3d_14": cat.random_polytopal_fan(3, 14, seed=13),
        }

    @staticmethod
    def directions(fan, m, rng):
        U = rng.standard_normal((m, fan.dim))
        return U / np.linalg.norm(U, axis=1)[:, None]

    @staticmethod
    def values(fan, U, rng, sigma):
        """Support values of P(1) at U plus N(0, sigma^2) noise."""
        rays, cells = fan.rays.copy(), [tuple(c) for c in fan.cells]
        y = oracle.support_values(oracle.vertices(rays, cells, np.ones(fan.n_rays)), U)
        return y + sigma * rng.standard_normal(U.shape[0])

    def prepare(self, fans, seed):
        self.cases = []
        specs = self.specs[self.size]
        for k, (key, m, count) in enumerate(specs):
            fan = fans[key]
            rays, cells = fan.rays.copy(), [tuple(c) for c in fan.cells]
            W = oracle.wall_rows(rays, cells)
            ones = np.ones(fan.n_rays)
            margin = 0.25 * float(np.min(W @ ones))
            for j in range(count):
                # The design is fixed; the seed draws the noise.
                design_rng = np.random.default_rng([4, k, j])
                while True:
                    U = self.directions(fan, m, design_rng)
                    A = oracle.design(rays, cells, U)
                    s = np.linalg.svd(A, compute_uv=False)
                    if oracle.positively_spanning(U) and s[-1] >= 1e-3 * s[0]:
                        break
                pinv = np.linalg.pinv(A)
                noise_rng = np.random.default_rng([seed, 4, k, j])
                for _ in range(10_000):
                    y = self.values(fan, U, noise_rng, self.sigma)
                    if float(np.min(W @ (ones + pinv @ (y - A @ ones)))) > margin:
                        break
                else:
                    raise RuntimeError(f"no interior dataset for {key} at m={m}")
                large = k == len(specs) - 1
                case = Case(key, Dataset(U, y), ones, large, f"{key} m={m} #{j}")
                self.cases += [case] * (self.large_repeats[self.size] if large else 1)
        for label, key, m, gen_seed, noise in self.fixed:
            rng = np.random.default_rng(gen_seed)
            U = self.directions(fans[key], m, rng)
            y = self.values(fans[key], U, rng, noise)
            self.cases.append(Case(key, Dataset(U, y), None, False,
                                   f"{label}: {key} m={m} generator seed {gen_seed}"))

    def run_round(self, fans, capture, speed):
        tasks, outputs = [], []
        for case in self.cases:
            opts = (facetfit.qp.SolverOptions(warm_start=case.warm_start)
                    if case.warm_start is not None else None)
            out, wall, factor = speed.timed(lambda: self.attempt(fans, case, opts))
            tasks.append(Task(wall, factor, case.large))
            outputs.append(out)
        if capture:
            self.outputs = outputs
        fingerprint = [type(o).__name__ if isinstance(o, Exception)
                       else (o.h_hat.tobytes(), o.solution_set.dimension,
                             o.solution_set.bounded) for o in outputs]
        return tasks, fingerprint

    @staticmethod
    def attempt(fans, case, opts):
        try:
            return facetfit.estimator.reconstruct(fans[case.fan_key], case.dataset, opts)
        except Exception as exc:  # noqa: BLE001 - a failed operation, counted
            return exc

    def check(self, fans, report):
        for case, out in zip(self.cases, self.outputs):
            if isinstance(out, Exception):
                report.failed_per_round += 1
                self.notes.append(f"{case.label}: failed, {type(out).__name__}: {out}")
                continue
            fan = fans[case.fan_key]
            rays, cells = fan.rays.copy(), [tuple(c) for c in fan.cells]
            A = oracle.design(rays, cells, case.dataset.directions)
            W = oracle.wall_rows(rays, cells)
            y = case.dataset.values
            sset = out.solution_set
            dim, bounded = oracle.minimizer_set(A, W, out.y_hat)
            if (dim, bounded) != (sset.dimension, sset.bounded):
                report.failed_per_round += 1
                self.notes.append(
                    f"{case.label}: failed, solution set reported as dimension "
                    f"{sset.dimension} bounded={sset.bounded}, LP oracle gives "
                    f"dimension {dim} bounded={bounded}")
                continue
            where = case.label
            report.expect(oracle.consistent(A, W, y),
                          f"{where}: data not reachable from the cone")
            scale = 1.0 + float(np.linalg.norm(y))
            report.expect(float(np.linalg.norm(out.y_hat - y)) <= 1e-8 * scale,
                          f"{where}: fitted values differ from the exact fit")
            report.expect(out.objective <= 1e-12 * scale ** 2,
                          f"{where}: objective {out.objective} for consistent data")
            h = out.h_hat
            report.expect(float(np.min(W @ h)) >= -1e-9 * (1.0 + np.linalg.norm(h)),
                          f"{where}: h_hat outside the deformation cone")
            if case.warm_start is not None:
                report.expect(bounded and dim == fan.n_rays - len(y),
                              f"{where}: interior estimate with dimension {dim}, "
                              f"bounded={bounded}")


WORKLOADS = {cls.name: cls for cls in
             (ConvergenceHexagon, ConvergenceConcentrated, ReconstructLarge,
              Underdetermined)}


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def write_fan(fan, path):
    with open(path, "w") as fh:
        json.dump({"format": "fan/1", "dim": fan.dim,
                   "rays": fan.rays.tolist(),
                   "cells": [list(c) for c in fan.cells]}, fh)


def load_fans(paths: dict) -> dict:
    """What a user pays before the first reconstruction: read, validate,
    wall system, constants."""
    fans = {}
    for key, path in paths.items():
        fan = facetfit.cli.load_fan(path)
        fan.require_valid()
        fan.wall_system
        fan.constants
        fans[key] = fan
    return fans


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool, units: dict,
        size: str = "full", work_dir: str | None = None, log=None) -> dict:
    """Run one workload; return the result object that `run.py` prints.
    ``units`` maps the names of the metrics to report to their units."""
    workload = WORKLOADS[name](size)
    tracer = Tracer() if trace else None
    traced = tracer.installed if tracer else contextlib.nullcontext
    speed = HostSpeed()

    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        paths = {}
        for key, fan in workload.fans().items():
            paths[key] = os.path.join(tmp, key + ".json")
            write_fan(fan, paths[key])
        setup, setup_wall, validate_times = [], [], []
        with traced():
            for _ in range(workload.setup_reps):
                if tracer:
                    tracer.reset()
                fans, wall, factor = speed.timed(lambda: load_fans(paths))
                setup.append(wall * factor)
                setup_wall.append(wall)
                if tracer:
                    validate_times.append(tracer.seconds["fan.validate"] * factor)

    workload.prepare(fans, seed)

    tasks: list[Task] = []
    fingerprints = []
    if tracer:
        tracer.reset()
    speed.probe()
    with traced():
        start = time.perf_counter()
        last = False
        while not last:
            # Each round starts without the previous rounds' garbage.
            gc.collect()
            round_start = time.perf_counter()
            # The outputs the checks need are kept from the last round: the
            # one that starts when a round as long as the one before would
            # use up the run.  The first round never keeps them, so the
            # peak memory read after it is the program's alone.
            if fingerprints:
                last = round_start - start + round_wall >= seconds
            round_tasks, fingerprint = workload.run_round(fans, capture=last, speed=speed)
            round_wall = time.perf_counter() - round_start
            tasks += round_tasks
            fingerprints.append(fingerprint)
            if len(fingerprints) == 1:
                # Later rounds can peak higher only through garbage that the
                # collector has not reached yet, which depends on how many
                # rounds fit; the first round is the same in every run.
                rss = peak_rss_mb()

    report = CheckReport()
    workload.check(fans, report)
    report.expect(all(f == fingerprints[0] for f in fingerprints[1:]),
                  "rounds of identical inputs gave different outputs")
    rounds = len(fingerprints)
    attempted = len(tasks)
    failed = report.failed_per_round * rounds
    wall = sum(t.wall for t in tasks)
    reference = sum(t.seconds for t in tasks)
    large = [t.seconds for t in tasks if t.large]

    if log:
        log(f"{name}: seed {seed}, {rounds} rounds, {attempted} tasks, {failed} failed; "
            f"{wall:.2f} s wall = {reference:.2f} reference s "
            f"(host at {wall and reference / wall:.2f} of reference speed); "
            f"wall set-up {statistics.median(setup_wall):.4f} s")
        for line in workload.notes:
            log("  " + line)
        for line in report.problems:
            log("  CHECK FAILED: " + line)

    if trace:
        # Layer times in reference seconds, scaled like the loop as a whole.
        values = {k: v * reference / wall if k.endswith("_s") else v
                  for k, v in tracer.per_task(attempted).items()}
        values["fan.validate_s"] = statistics.median(validate_times)
        values["trace.tasks_per_s"] = attempted / reference
    else:
        values = {
            "setup_s": statistics.median(setup),
            "tasks_per_s": attempted / reference,
            "task_p50_s": statistics.median(large),
            "peak_rss_mb": rss,
        }
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    return {"correct": not report.problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}
