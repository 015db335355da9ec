"""Convergence runs sample and score their replicates in groups.

``run_convergence`` samples the replicates of one sample count in groups
(one ``_sample_plans`` call each) and scores them with one
``hausdorff_rows`` call; its records must equal, bit for bit, those of
the one-replicate loop of ``oracles``, whatever the groups.
"""

import gc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facetfit import catalog, estimator, sim
from facetfit.fan import SimplicialFan
from facetfit.sim import (NoiseModel, derive_seed, facet_direction_plan, make_plan,
                          run_convergence, sample_concentrated)

from oracles import loop_convergence


def record_bits(records):
    return [(r.m, r.replicate, r.failed, r.message, float(r.hausdorff_error).hex(),
             float(r.objective).hex()) for r in records]


def runs():
    """(fan, h0, plan family, schedule) with 5 replicates: the first m takes
    one group of all 5, the second groups of 3 and 2, the last groups of 1.
    The roof fan's h° (``carrier_blocks``' vertex guess) is on its type
    cone's boundary, so some of its trials go to the scan."""
    hexagon = catalog.hexagon_fan()
    fan3d = catalog.random_polytopal_fan(3, 6, seed=203)
    roof_y = catalog.roof_fan_y()
    return [
        (hexagon, np.ones(6), lambda m: facet_direction_plan(hexagon, m, 1 / 6, seed=4),
         (30, 200, 600)),
        (fan3d, np.ones(6), lambda m: make_plan(fan3d, 0.004, 0.08, m, seed=5),
         (100, 250, 800)),
        (roof_y, np.array([4.0, 4, 2, 2, 0]),
         lambda m: make_plan(roof_y, 0.008, 0.01, m, seed=6), (80, 200, 600)),
    ]


@pytest.mark.parametrize("case", range(3))
def test_records_equal_the_one_replicate_loop(case, monkeypatch):
    fan, h0, family, schedule = runs()[case]
    noise = NoiseModel(sigma=0.1, seed=7)
    groups = []
    inner = sim._sample_plans
    monkeypatch.setattr(sim, "_sample_plans",
                        lambda fan, plans: groups.append(len(plans)) or inner(fan, plans))
    records = run_convergence(fan, h0, family, schedule, 5, noise)
    assert groups == [5, 3, 2, 1, 1, 1, 1, 1]
    assert not any(r.failed for r in records)
    assert record_bits(records) == \
        record_bits(loop_convergence(fan, h0, family, schedule, 5, noise))


def test_a_run_reads_no_uniqueness_report(monkeypatch):
    # The report is computed on first read, and a run reads none.
    def refused(fan, design):
        raise AssertionError("uniqueness_report called")

    monkeypatch.setattr(estimator, "uniqueness_report", refused)
    noise = NoiseModel(sigma=0.1, seed=7)
    for fan, h0, family, schedule in runs():
        records = run_convergence(fan, h0, family, schedule, 5, noise)
        assert not any(r.failed for r in records)
        assert record_bits(records) == \
            record_bits(loop_convergence(fan, h0, family, schedule, 5, noise))


def test_a_run_frees_each_result_before_the_next_reconstruct(monkeypatch):
    # A result holds its design; the run must not keep it while the next
    # replicate builds its own.
    results, alive = [], []
    inner = sim.reconstruct

    def watched(fan, dataset):
        alive.append(bool(results) and results[-1]() is not None)
        result = inner(fan, dataset)
        results.append(weakref.ref(result))
        return result

    monkeypatch.setattr(sim, "reconstruct", watched)
    fan, h0, family, schedule = runs()[1]
    records = run_convergence(fan, h0, family, schedule, 5, NoiseModel(sigma=0.1, seed=7))
    assert not any(r.failed for r in records)
    assert len(alive) == 15 and not any(alive)


def group_cases():
    return [catalog.hexagon_fan(), catalog.random_polytopal_fan(3, 6, seed=203),
            catalog.random_polytopal_fan(2, 7, seed=101)]


@pytest.mark.parametrize("case", range(3))
@settings(max_examples=6, deadline=None)
@given(plans=st.lists(st.tuples(st.integers(0, 2**32 - 1),
                                st.sampled_from([0.0, 0.002, 0.004]),
                                st.integers(40, 200)), min_size=1, max_size=4))
def test_a_plan_samples_the_same_alone_and_in_a_group(case, plans):
    fan = group_cases()[case]
    plans = [make_plan(fan, t, 0.05, m, seed) for seed, t, m in plans]
    for plan, rows in zip(plans, sim._sample_plans(fan, plans)):
        assert rows.tobytes() == sample_concentrated(fan, plan).tobytes()


class FarStreams:
    """``sim._rng`` with the ray streams of one plan seed replaced by
    Gaussians of 1e6 in every entry: each candidate of such a ray is the
    diagonal direction, in no ray's neighborhood, so the plan starves."""

    def __init__(self, seed):
        self.seed, self.inner = seed, sim._rng

    def __call__(self, seed):
        if isinstance(seed, np.random.SeedSequence) and seed.entropy == self.seed:
            return SimpleNamespace(standard_normal=lambda size: np.full(size, 1e6))
        return self.inner(seed)


def first_row_dropped(blocks):
    """``carrier_blocks`` that leaves row 0 of its first call without a
    carrier: the first trial of the first pair of a pass sequence."""
    calls = []

    def dropped(fan, X):
        calls.append(len(X))
        return [(c, rows[rows != 0], lam[rows != 0]) if len(calls) == 1
                else (c, rows, lam) for c, rows, lam in blocks(fan, X)]

    return dropped


@pytest.mark.parametrize("fault, rep", [("starved", 1), ("no carrier", 0)])
def test_a_failing_plan_leaves_its_group_unchanged(hexagon, monkeypatch, fault, rep):
    # At m = 80 the three replicates share one group.
    family = lambda m: make_plan(hexagon, 0.008, 0.01, m, 31)
    noise = NoiseModel(sigma=0.1, seed=5)
    clean = run_convergence(hexagon, np.ones(6), family, [80, 320], 3, noise)
    plan = family(80)
    plan = replace(plan, seed=derive_seed(plan.seed, 80, rep))

    def patch():
        if fault == "starved":
            monkeypatch.setattr(sim, "_rng", FarStreams(plan.seed))
        else:
            monkeypatch.setattr(sim, "carrier_blocks", first_row_dropped(sim.carrier_blocks))

    patch()
    with pytest.raises(Exception) as alone:
        sample_concentrated(hexagon, plan)
    monkeypatch.undo()
    patch()
    records = run_convergence(hexagon, np.ones(6), family, [80, 320], 3, noise)
    expected = {"starved": "rejection sampling starved for ray 0 at t=0.008",
                "no carrier": f"no cell of {hexagon!r} admits nonnegative coefficients"}
    assert str(alone.value) == expected[fault]
    assert records[rep].failed and records[rep].message == expected[fault]
    assert record_bits(records[:rep] + records[rep + 1:]) == \
        record_bits(clean[:rep] + clean[rep + 1:])


class TickingNoise:
    """The noise model of a run, advancing a fake clock by 1 per draw."""

    def __init__(self, clock):
        self.clock, self.noise = clock, NoiseModel(sigma=0.1, seed=3)

    def sample(self, m, key=()):
        self.clock.advance(1.0)
        return self.noise.sample(m, key)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_elapsed_adds_up_to_the_clock_outside_plan_building(hexagon, monkeypatch):
    # Sampling a group takes 3, a reconstruction 2, the noise 1, scoring a
    # sample count 5 and building its plans 1000.
    clock = FakeClock()
    monkeypatch.setattr(sim, "time", clock)

    def ticking(name, dt):
        inner = getattr(sim, name)

        def call(*args):
            clock.advance(dt)
            return inner(*args)

        monkeypatch.setattr(sim, name, call)

    ticking("_sample_plans", 3.0)
    ticking("reconstruct", 2.0)
    ticking("hausdorff_rows", 5.0)

    def family(m):
        clock.advance(1000.0)
        return facet_direction_plan(hexagon, m, seed=2)

    # Groups: 4 and 1 at m = 30, 2, 2 and 1 at m = 60, 1 each at m = 120.
    records = run_convergence(hexagon, np.ones(6), family, [30, 60, 120], 5,
                              TickingNoise(clock))
    assert not any(r.failed for r in records)
    assert sum(r.elapsed for r in records) == pytest.approx(clock.now - 3000.0, rel=1e-12)
    groups = {30: [4, 4, 4, 4, 1], 60: [2, 2, 2, 2, 1], 120: [1] * 5}
    assert [r.elapsed for r in records] == pytest.approx(
        [3.0 + 3.0 / size + 5.0 / 5 for m in (30, 60, 120) for size in groups[m]],
        rel=1e-12)


def test_h0_is_checked_and_its_vertices_computed_once_per_run(hexagon, monkeypatch):
    calls = []
    inner = sim.cell_vertices
    monkeypatch.setattr(sim, "cell_vertices",
                        lambda fan, h: calls.append(h) or inner(fan, h))
    records = run_convergence(hexagon, np.ones(6),
                              lambda m: facet_direction_plan(hexagon, m, seed=2),
                              [30, 60], 3, NoiseModel(sigma=0.1, seed=3))
    assert not any(r.failed for r in records)
    assert len(calls) == 1


class StageFailed(RuntimeError):
    """A patched stage's exception; unlike RuntimeError, weakly referable."""


@pytest.mark.parametrize("stage", ["sampling", "h0", "reconstruct"])
def test_a_failed_replicate_keeps_its_message_not_its_exception(hexagon, monkeypatch, stage):
    # An exception holds its traceback, whose frames hold a failed
    # reconstruction's design, and one stashed in a local of the run makes
    # a cycle with the run's frame.  With the garbage collector off, only
    # reference counts free them, so the run must keep no exception.
    raised, designs, alive = [], [], []
    build = estimator.design_mod.build_design

    def watched(fan, directions):
        alive.append(sum(ref() is not None for ref in designs))
        design = build(fan, directions)
        designs.append(weakref.ref(design))
        return design

    def made():
        exc = StageFailed(f"{stage} failed")
        raised.append(weakref.ref(exc))
        return exc

    def failing(*args):
        # No local names the exception, so this frame makes no cycle with it.
        raise made()

    monkeypatch.setattr(estimator.design_mod, "build_design", watched)
    owner, name = {"sampling": (sim, "_sample_plans"), "h0": (sim, "cell_vertices"),
                   "reconstruct": (estimator, "solution_set")}[stage]
    monkeypatch.setattr(owner, name, failing)
    family = lambda m: facet_direction_plan(hexagon, m, seed=2)
    enabled = gc.isenabled()
    gc.disable()
    try:
        records = run_convergence(hexagon, np.ones(6), family, [40], 5,
                                  NoiseModel(sigma=0.1, seed=3))
        left = [ref() is not None for ref in raised + designs]
    finally:
        if enabled:
            gc.enable()
    assert [(r.failed, r.message) for r in records] == [(True, f"{stage} failed")] * 5
    assert len(raised) == (1 if stage == "h0" else 5)
    assert alive == ([0] * 5 if stage == "reconstruct" else [])
    assert not any(left)


def test_a_fan_that_fails_validation_fails_every_record(hexagon):
    # The plans are the complete hexagon's; sampling on the hexagon less one
    # cell raises for each whole group, and the run records it.
    broken = SimplicialFan(hexagon.rays, hexagon.cells[1:])
    records = run_convergence(broken, np.ones(6),
                              lambda m: facet_direction_plan(hexagon, m, seed=2),
                              [30, 60, 120], 3, NoiseModel(sigma=0.1, seed=3))
    assert len(records) == 9
    assert all(r.failed and r.message.startswith("fan failed validation: ")
               for r in records)
    assert len({r.message for r in records}) == 1


def test_plans_with_another_fans_quotas_fail_their_sample_count(hexagon):
    octagon = catalog.regular_polygon_fan(8)
    noise = NoiseModel(sigma=0.1, seed=3)
    clean = run_convergence(hexagon, np.ones(6),
                            lambda m: facet_direction_plan(hexagon, m, seed=2),
                            [30, 60, 120], 3, noise)
    records = run_convergence(
        hexagon, np.ones(6),
        lambda m: facet_direction_plan(octagon if m == 60 else hexagon, m, seed=2),
        [30, 60, 120], 3, noise)
    assert [(r.failed, r.message) for r in records if r.m == 60] == \
        [(True, "plan quotas do not match the fan's ray count")] * 3
    assert record_bits([r for r in records if r.m != 60]) == \
        record_bits([r for r in clean if r.m != 60])
