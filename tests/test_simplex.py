"""The vectorized tableau simplex behind ``qp.solve_lp``.

``oracles.loop_two_phase_simplex`` is the same two-phase Bland-rule method
with a Python loop for every row operation and no phase-1 memo.  Every LP
the library solves must come out of both engines with the same bytes, or
with the same exception and message; the memo that shares phase 1 between
LPs over one region must never be seen from outside.
"""

import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facetfit import catalog, qp
from facetfit.design import Dataset, build_design, numeric_rank
from facetfit.estimator import reconstruct
from facetfit.qp import Infeasible, Unbounded, cone_dimension, solve_lp
from perfbench import oracle as bench_oracle

from conftest import time_limit
from oracles import highs_essential_rows, loop_two_phase_simplex
from test_cone_dimension import cone_matrices, fans


def outcome(fn):
    """``fn()``'s result, or its exception as (type, message)."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def lp_trace(fn, summary):
    """Every ``solve_lp`` outcome while ``fn`` runs, as ``x`` bytes or
    (type, message), followed by ``summary(fn())`` or fn's exception."""
    seen = []
    real = qp.solve_lp

    def spy(*args, **kwargs):
        try:
            sol = real(*args, **kwargs)
        except Exception as exc:
            seen.append((type(exc), str(exc)))
            raise
        seen.append(sol.x.tobytes())
        return sol

    with mock.patch.object(qp, "solve_lp", spy):
        result = outcome(fn)
    return seen + [result if isinstance(result, tuple) else summary(result)]


def both_engines(fn, summary=lambda result: result):
    """``lp_trace`` with the vectorized engine and with the loop engine."""
    fast = lp_trace(fn, summary)
    with mock.patch.object(qp, "_two_phase_simplex", loop_two_phase_simplex):
        slow = lp_trace(fn, summary)
    return fast, slow


# ---------------------------------------------------------------------------
# Bit for bit against the loop engine
# ---------------------------------------------------------------------------

@st.composite
def lps(draw):
    """Small integer or Gaussian LPs: duplicate, negated and zero rows in
    B, free, one-sided and boxed bounds (now and then lo > hi), and
    right-hand sides that are feasible by construction or drawn at
    random.  Integer data makes ratio ties common."""
    n = draw(st.integers(1, 4))
    p = draw(st.integers(0, 5))
    q = draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        B, E = (rng.integers(-2, 3, (k, n)).astype(float) for k in (p, q))
        c = rng.integers(-2, 3, n).astype(float)
    else:
        B, E, c = rng.standard_normal((p, n)), rng.standard_normal((q, n)), rng.standard_normal(n)
    for op, j in draw(st.lists(st.tuples(st.sampled_from(["dup", "neg", "zero"]),
                                         st.integers(0, 99)), max_size=3)):
        row = np.zeros(n) if op == "zero" or not p else B[j % p] * (1.0 if op == "dup" else -1.0)
        B = np.vstack([B, row])
    bounds = []
    for kind, a, b in draw(st.lists(st.tuples(
            st.sampled_from(["free", "lower", "upper", "boxed"]),
            st.integers(-2, 2), st.integers(-2, 2)), min_size=n, max_size=n)):
        bounds.append({"free": (-np.inf, np.inf), "lower": (float(a), np.inf),
                       "upper": (-np.inf, float(a)), "boxed": (float(a), float(b))}[kind])
    if draw(st.booleans()):
        f = E @ rng.integers(-2, 3, n).astype(float)
    else:
        f = rng.integers(-2, 3, q).astype(float)
    return c, B, E, f, bounds


@settings(max_examples=300, deadline=None)
@given(lp=lps())
def test_solve_lp_equals_the_loop_engine(lp):
    fast, slow = both_engines(lambda: solve_lp(*lp), lambda sol: sol.x.tobytes())
    assert fast == slow


def test_the_lp_strategy_reaches_every_outcome():
    # Optimal, infeasible and unbounded LPs all occur among the examples.
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(lp=lps())
    def collect(lp):
        result = outcome(lambda: solve_lp(*lp))
        seen.add(result[0] if isinstance(result, tuple) else qp.LPSolution)

    collect()
    assert seen == {qp.LPSolution, Infeasible, Unbounded}


@settings(max_examples=60, deadline=None)
@given(M=cone_matrices())
def test_cone_dimension_lp_equals_the_loop_engine(M):
    fast, slow = both_engines(lambda: cone_dimension(M))
    assert fast == slow


@settings(max_examples=40, deadline=None)
@given(index=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
       fraction=st.floats(0.1, 0.95))
def test_kernel_cone_lp_equals_the_loop_engine(index, seed, fraction):
    fan = fans()[index]
    m = max(1, min(fan.n_rays - 1, int(fraction * fan.n_rays)))
    U = np.random.default_rng(seed).standard_normal((m, fan.dim))
    design = build_design(fan, U / np.linalg.norm(U, axis=1)[:, None])
    _, kernel = numeric_rank(design)
    fast, slow = both_engines(lambda: cone_dimension(fan.wall_system.matrix @ kernel.T))
    assert fast == slow


# ---------------------------------------------------------------------------
# Seeded reconstructions with fewer samples than rays
# ---------------------------------------------------------------------------

def unit_directions(rng, m, d):
    U = rng.standard_normal((m, d))
    return U / np.linalg.norm(U, axis=1)[:, None]


def p1_values(fan, U):
    """Support values of P(1) at U, computed as the benchmark computes them."""
    points = bench_oracle.vertices(fan.rays.copy(), [tuple(c) for c in fan.cells],
                                   np.ones(fan.n_rays))
    return bench_oracle.support_values(points, U)


def fourteen_ray_cases():
    """The benchmark's 14-ray design (m = 11), refit from h = 1 on three
    noise seeds whose predicted estimate lies inside the cone."""
    fan = catalog.random_polytopal_fan(3, 14, seed=13)
    rng = np.random.default_rng([4, 4, 0])
    while True:
        U = unit_directions(rng, 11, 3)
        s = np.linalg.svd(build_design(fan, U).matrix, compute_uv=False)
        if bench_oracle.positively_spanning(U) and s[-1] >= 1e-3 * s[0]:
            break
    A = build_design(fan, U).matrix
    W = fan.wall_system.matrix
    ones = np.ones(fan.n_rays)
    pinv = np.linalg.pinv(A)
    margin = 0.25 * float(np.min(W @ ones))
    cases = []
    for seed in (1, 2, 3):
        noise = np.random.default_rng([seed, 4, 4, 0])
        for _ in range(10_000):
            y = p1_values(fan, U) + 0.02 * noise.standard_normal(11)
            if float(np.min(W @ (ones + pinv @ (y - A @ ones)))) > margin:
                break
        cases.append((fan, Dataset(U, y), qp.SolverOptions(warm_start=ones)))
    return cases


def fixed_case(fan, m, seed):
    rng = np.random.default_rng(seed)
    U = unit_directions(rng, m, fan.dim)
    y = p1_values(fan, U) + 0.3 * rng.standard_normal(m)
    return fan, Dataset(U, y), None


def reconstruction_bytes(result):
    sset = result.solution_set
    ends = sset.segment_endpoints
    return (result.h_hat.tobytes(), result.y_hat.tobytes(), sset.dimension, sset.bounded,
            None if ends is None else tuple(e.tobytes() for e in ends))


@pytest.mark.parametrize("case", fourteen_ray_cases() + [
    fixed_case(catalog.random_polytopal_fan(3, 12, seed=7), 7, 1060),
    fixed_case(catalog.hexagon_fan(), 4, 11),
], ids=["14-ray seed 1", "14-ray seed 2", "14-ray seed 3", "F1", "F2"])
def test_underdetermined_reconstruct_equals_the_loop_engine(case):
    # Sameness only: the two engines agree, also where both are wrong.  The
    # fan's validation LPs run once, before either trace.
    fan, dataset, opts = case
    fan.require_valid()
    fast, slow = both_engines(lambda: reconstruct(fan, dataset, opts), reconstruction_bytes)
    assert len(fast) > 1
    assert fast == slow


# ---------------------------------------------------------------------------
# The phase-1 memo
# ---------------------------------------------------------------------------

# The lower corner sums to exactly 0 and each side's ends lie within a
# factor 2 of each other, so the standard form's right-hand sides
# ``f - E lo`` and ``hi - lo`` carry a one-ulp change of f or of a bound
# without rounding it away.
BOX = [(-1.0, -0.5), (0.25, 0.5), (0.75, 1.5)]


def region(seed, box=BOX):
    """A feasible bounded region: walls that hold at (-0.6, 0.4, 1.2), the
    plane x1 + x2 + x3 = 1 and a box around that point."""
    B = np.random.default_rng(seed).standard_normal((5, 3))
    B[B @ [-0.6, 0.4, 1.2] < 0] *= -1.0
    return B, np.ones((1, 3)), np.ones(1), box


COSTS = (np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]), np.array([0.5, 0.5, -1.0]))


@pytest.fixture
def phase_one_calls(monkeypatch):
    """The number of phase-1 runs, counted from an empty memo."""
    calls = []
    real = qp._phase_one

    def counted(T, rhs):
        calls.append(T.shape)
        return real(T, rhs)

    monkeypatch.setattr(qp, "_phase_one", counted)
    monkeypatch.setattr(qp, "_phase_one_memo", None)
    return calls


def cold_solve(c, B, E, f, bounds):
    qp._phase_one_memo = None
    return solve_lp(c, B, E, f, bounds)


def test_a_cost_change_reuses_phase_one(phase_one_calls):
    B, E, f, bounds = region(1)
    first = solve_lp(COSTS[0], B, E, f, bounds)
    warm = solve_lp(COSTS[1], B, E, f, bounds)
    assert len(phase_one_calls) == 1
    assert warm.x.tobytes() != first.x.tobytes()
    cold = cold_solve(COSTS[1], B, E, f, bounds)
    assert len(phase_one_calls) == 2
    assert warm.x.tobytes() == cold.x.tobytes()


@pytest.mark.parametrize("entry", ["B", "E", "f", "lo", "hi"])
def test_a_one_ulp_change_recomputes_phase_one(phase_one_calls, entry):
    B, E, f, bounds = region(1)
    solve_lp(COSTS[0], B, E, f, bounds)
    B, E, f = B.copy(), E.copy(), f.copy()
    if entry in ("lo", "hi"):
        lo, hi = bounds[1]
        bounds = list(bounds)
        bounds[1] = ((np.nextafter(lo, np.inf), hi) if entry == "lo"
                     else (lo, np.nextafter(hi, np.inf)))
    else:
        target = {"B": B, "E": E, "f": f}[entry]
        target.flat[-1] = np.nextafter(target.flat[-1], np.inf)
    warm = solve_lp(COSTS[0], B, E, f, bounds)
    assert len(phase_one_calls) == 2
    assert warm.x.tobytes() == cold_solve(COSTS[0], B, E, f, bounds).x.tobytes()


def two_regions():
    """Two regions whose optima differ for every cost, and the cold answers."""
    regions = [region(1), region(2, box=[(-1.5, -0.5), (0.25, 1.0), (0.5, 2.0)])]
    cold = {(r, k): cold_solve(c, *regions[r]).x.tobytes()
            for r in range(2) for k, c in enumerate(COSTS)}
    assert all(cold[0, k] != cold[1, k] for k in range(len(COSTS)))
    return regions, cold


def test_threads_alternating_regions_get_their_cold_answers(monkeypatch):
    # The first thread stops inside its first phase 1 until the second has
    # run all its LPs, each of which reads or replaces the memo; then the
    # first stores its result over theirs and goes on.
    regions, cold = two_regions()
    first_paused, second_done = threading.Event(), threading.Event()
    real = qp._phase_one

    def paused(T, rhs):
        if threading.current_thread() is first and not second_done.is_set():
            first_paused.set()
            second_done.wait(timeout=60)
        return real(T, rhs)

    answers = {}

    def work():
        mine = answers.setdefault(threading.current_thread(), [])
        for i in range(12):
            r, k = i % 2, i % len(COSTS)
            mine.append(solve_lp(COSTS[k], *regions[r]).x.tobytes() == cold[r, k])

    monkeypatch.setattr(qp, "_phase_one", paused)
    monkeypatch.setattr(qp, "_phase_one_memo", None)
    first, second = threading.Thread(target=work), threading.Thread(target=work)
    first.start()
    assert first_paused.wait(timeout=60)
    second.start()
    second.join(timeout=60)
    second_done.set()
    first.join(timeout=60)
    assert not first.is_alive() and not second.is_alive()
    assert answers == {first: [True] * 12, second: [True] * 12}


def test_four_threads_under_a_short_switch_interval_get_their_cold_answers(monkeypatch):
    regions, cold = two_regions()
    monkeypatch.setattr(qp, "_phase_one_memo", None)
    answers = {}

    def work(offset):
        mine = answers[offset] = []
        for i in range(60):
            r, k = (i + offset) % 2, i % len(COSTS)
            mine.append(solve_lp(COSTS[k], *regions[r]).x.tobytes() == cold[r, k])

    threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert answers == {offset: [True] * 60 for offset in range(4)}


# ---------------------------------------------------------------------------
# Refused input
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field, value", [
    ("c", np.nan), ("c", np.inf), ("B", np.nan), ("B", -np.inf),
    ("E", np.nan), ("E", np.inf), ("f", np.nan), ("f", -np.inf),
])
def test_non_finite_lp_data_is_refused(field, value):
    data = {"c": np.array([1.0, 1.0]), "B": np.eye(2), "E": np.ones((1, 2)),
            "f": np.ones(1)}
    data[field][0] = value
    with pytest.raises(ValueError, match="non-finite"):
        solve_lp(data["c"], data["B"], data["E"], data["f"])


@pytest.mark.parametrize("bound", [(np.nan, 1.0), (0.0, np.nan), (np.inf, np.inf),
                                   (-np.inf, -np.inf), (np.inf, 1.0)])
def test_bounds_that_admit_no_number_are_refused(bound):
    with pytest.raises(ValueError, match="bound"):
        solve_lp(np.array([1.0, 0.0]), bounds=[bound, (0.0, 1.0)])


def test_bounds_of_the_wrong_length_are_refused():
    with pytest.raises(ValueError, match="inconsistent"):
        solve_lp(np.array([1.0, 0.0]), bounds=[(0.0, 1.0)])


def test_an_empty_box_stays_infeasible():
    with pytest.raises(Infeasible):
        solve_lp(np.array([1.0]), bounds=[(1.0, 0.0)])


def test_a_cycling_simplex_stops_at_its_pivot_cap():
    # The implication LP of wall 19 of random_polytopal_fan(3, 30, seed=7),
    # as `fan-info` poses it after dropping the implied walls before it:
    # Bland's rule cycles on its 30 x 108 phase-1 tableau, where HiGHS
    # finds the wall implied.  Without the cap of 50 (30 + 108) pivots the
    # loop never ends.
    B = catalog.random_polytopal_fan(3, 30, seed=7).wall_system.matrix
    essential = highs_essential_rows(B)
    assert not essential[19]
    others = [j for j in range(len(B)) if j != 19 and (j > 19 or essential[j])]
    with time_limit(60), pytest.raises(qp.Inaccurate, match="after 6900 pivots"):
        solve_lp(np.zeros(len(others)), E=B[others].T, f=B[19],
                 bounds=[(0.0, np.inf)] * len(others))
