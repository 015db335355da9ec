import dataclasses
import math
import re

import numpy as np
import pytest

import facetfit.catalog
import facetfit.design
import facetfit.fan
import facetfit.sim
from facetfit.design import Dataset, build_design
from facetfit.estimator import reconstruct
from facetfit.fan import NoCarrier
from facetfit.geometry import hausdorff
from facetfit.sim import (
    ConvergenceRecord,
    HypothesisUnmet,
    NoiseModel,
    NonpositiveLambda,
    QuotaInfeasible,
    SamplingPlan,
    audit_concentration,
    bound_parameters,
    derive_seed,
    eigen_checks,
    facet_direction_plan,
    fit_loglog_slope,
    in_ct,
    make_plan,
    run_convergence,
    sample_concentrated,
    sample_uniform_sphere,
)


# ---------------------------------------------------------------------------
# Concentration neighborhoods
# ---------------------------------------------------------------------------

def test_in_ct_at_rays(hexagon, roof_y):
    for fan in (hexagon, roof_y):
        norms = np.linalg.norm(fan.rays, axis=1)
        for j in range(fan.n_rays):
            unit = fan.rays[j] / norms[j]
            assert in_ct(fan, unit, j, 0.0)
            for i in range(fan.n_rays):
                if i != j:
                    assert not in_ct(fan, fan.rays[i] / norms[i], j, 0.99)


@pytest.mark.parametrize("j", [6, -6, -1, 2.5, 2.0, True, "1"])
def test_in_ct_refuses_a_bad_ray_index(hexagon, j):
    with pytest.raises(ValueError):
        in_ct(hexagon, hexagon.rays[0], j, 0.2)


def test_in_ct_of_the_zero_vector_has_no_carrier(hexagon):
    with pytest.raises(NoCarrier, match="^zero vector has no carrier$"):
        in_ct(hexagon, [0.0, 0.0], 0, 0.2)


def test_in_ct_takes_numpy_integers(hexagon):
    assert in_ct(hexagon, hexagon.rays[5], np.int64(5), 0.0)


def test_in_ct_ten_degrees(hexagon):
    # At 10 degrees from the first ray the scaled coefficients are
    # (sin 50 / sin 60, sin 10 / sin 60); the sup distance to e_1 is the
    # second coordinate, about 0.2005.
    u = np.array([np.cos(np.radians(10.0)), np.sin(np.radians(10.0))])
    expected = np.sin(np.radians(10.0)) / np.sin(np.radians(60.0))
    assert expected == pytest.approx(0.200512, abs=1e-5)
    assert in_ct(hexagon, u, 0, 0.25)
    assert not in_ct(hexagon, u, 0, 0.15)


def test_membership_rule_on_blocks_equals_dense_rows(roof_y):
    # Coefficients up to 0.35 / ||v|| at t = 0.3: many rows have every
    # entry within t, so a target ray outside the cell must still fail.
    rng = np.random.default_rng(4)
    norms = roof_y.constants.ray_norms
    for cell in roof_y.cells:
        lam = rng.random((400, 3)) * 0.35 / norms[list(cell)]
        lam[::3, 0] = rng.random(134) * 0.2 / norms[cell[0]] + 1.0 / norms[cell[0]]
        J = rng.integers(roof_y.n_rays, size=400)
        dense = np.zeros((400, roof_y.n_rays))
        dense[:, list(cell)] = lam
        # The rule on dense rows: the sup distance to the unit vector of J.
        expected = np.abs(dense * norms - np.eye(roof_y.n_rays)[J]).max(axis=1) <= 0.3 + 1e-9
        # The cell's generators given once for all rows, and once per row.
        for gens in (np.array(cell), np.tile(cell, (400, 1))):
            got = facetfit.sim._in_neighborhoods(lam, gens, J, norms, 0.3)
            assert np.array_equal(got, expected) and 0 < expected.sum() < 400


# ---------------------------------------------------------------------------
# Uniform sphere sampling
# ---------------------------------------------------------------------------

def test_uniform_sphere_norms_and_determinism():
    a = sample_uniform_sphere(3, 500, seed=5)
    b = sample_uniform_sphere(3, 500, seed=5)
    c = sample_uniform_sphere(3, 500, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("d, m, message", [
    (0, 3, "d must be positive"), (-1, 3, "d must be positive"),
    (2, 0, "m must be positive"), (2.0, 3, "d must be an integer"),
    (True, 3, "d must be an integer"), (2, np.float64(3), "m must be an integer"),
    (2, True, "m must be an integer")])
def test_uniform_sphere_refuses_a_size_that_is_not_a_positive_integer(d, m, message):
    # d = 0 reached fan.row_norms and failed in a reduction over no entries.
    with pytest.raises(ValueError, match=message):
        sample_uniform_sphere(d, m, 0)


def test_uniform_sphere_takes_numpy_integers():
    a = sample_uniform_sphere(np.int64(3), np.int32(20), seed=5)
    assert a.tobytes() == sample_uniform_sphere(3, 20, seed=5).tobytes()


def test_uniform_sphere_mean_is_small():
    u = sample_uniform_sphere(2, 100_000, seed=8)
    assert np.linalg.norm(u.mean(axis=0)) < 0.02


# ---------------------------------------------------------------------------
# Plans and concentrated sampling
# ---------------------------------------------------------------------------

def test_plan_quota_arithmetic(hexagon):
    plan = facet_direction_plan(hexagon, 100, delta=1.0 / 6.0, seed=0)
    assert sorted(plan.quotas, reverse=True) == [17, 17, 17, 17, 16, 16]
    assert sum(plan.quotas) == 100
    plan6 = facet_direction_plan(hexagon, 120, delta=1.0 / 6.0, seed=0)
    assert plan6.quotas == (20,) * 6


def test_plan_infeasible_arithmetic(hexagon):
    # 600 * (2.5 * 6 * 0.1 + 0.05) = 930 samples per ray out of 600.
    with pytest.raises(QuotaInfeasible):
        make_plan(hexagon, 0.1, 0.05, 600, 0)


def test_small_t_plan_is_feasible(hexagon):
    plan = make_plan(hexagon, 0.01, 0.01, 600, 1)
    assert all(q >= 600 * (2.5 * 6 * 0.01 + 0.01) for q in plan.quotas)


@pytest.mark.parametrize("delta", [math.inf, math.nan, 0.0, -0.1])
def test_plans_refuse_a_delta_that_is_not_positive_and_finite(hexagon, delta):
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        make_plan(hexagon, 0.0, delta, 100, 0)
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        SamplingPlan(t=0.0, delta=delta, m=100, seed=0, quotas=(1,) * 6)


@pytest.mark.parametrize("sigma", [math.inf, math.nan, -1.0, 1e200])
def test_noise_model_refuses_a_sigma_that_is_not_nonnegative_and_finite(sigma):
    # 1e200 was accepted, and its gamma raised OverflowError.
    with pytest.raises(ValueError, match="sigma must be nonnegative and finite"):
        NoiseModel(sigma=sigma, seed=0)


@pytest.mark.parametrize("sigma", [0.0, 0.1, 0.3, 2.5])
def test_noise_variance_bound_is_sigma_squared(sigma):
    noise = NoiseModel(sigma=sigma, seed=0)
    assert noise.gamma == sigma ** 2
    assert [f.name for f in dataclasses.fields(noise)] == ["sigma", "seed"]


@pytest.mark.parametrize("m", [60.5, np.float64(60), True])
def test_plans_refuse_a_sample_size_that_is_not_an_integer(hexagon, m):
    # 60.5 built a plan that sample_concentrated then failed on with
    # numpy's TypeError; True was taken as 1.
    with pytest.raises(ValueError, match="m must be an integer"):
        make_plan(hexagon, 0.0, 0.1, m, 0)
    with pytest.raises(ValueError, match="m must be an integer"):
        SamplingPlan(t=0.0, delta=0.1, m=m, seed=0, quotas=(1,) * 6)


@pytest.mark.parametrize("quota", [1.5, np.float64(1), True])
def test_plans_refuse_a_quota_that_is_not_an_integer(quota):
    with pytest.raises(ValueError, match="quota must be an integer"):
        SamplingPlan(t=0.0, delta=0.1, m=60, seed=0, quotas=(quota,) + (1,) * 5)


BAD_SEEDS = [
    (1.5, "seed must be an integer, not 1.5"),
    (True, "seed must be an integer, not True"),
    (-1, "seed must be non-negative, not -1"),
]


@pytest.mark.parametrize("seed, message", BAD_SEEDS)
def test_plans_refuse_a_seed_that_is_not_a_nonnegative_integer(hexagon, seed, message):
    # Accepted, 1.5 and -1 failed later inside numpy's SeedSequence.
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_plan(hexagon, 0.0, 0.1, 60, seed)
    with pytest.raises(ValueError, match=f"^{message}$"):
        SamplingPlan(t=0.0, delta=0.1, m=60, seed=seed, quotas=(1,) * 6)


@pytest.mark.parametrize("seed, message", BAD_SEEDS)
def test_noise_model_refuses_a_seed_that_is_not_a_nonnegative_integer(seed, message):
    # Accepted, 1.5 and True drew the noise of seed 1, and -1 that of 2**32 - 1.
    with pytest.raises(ValueError, match=f"^{message}$"):
        NoiseModel(sigma=0.1, seed=seed)


@pytest.mark.parametrize("seed, message", BAD_SEEDS)
def test_derive_seed_refuses_a_key_entry_that_is_not_a_nonnegative_integer(seed, message):
    # Accepted, 1.5 and True were taken as 1, and -1 as 2**32 - 1.
    with pytest.raises(ValueError, match=f"^{message}$"):
        derive_seed(5, seed)


def test_derive_seed_keeps_every_bit_of_its_key():
    # Each key entry was taken mod 2**32.
    assert derive_seed(2**32 + 30, 0) != derive_seed(30, 0)
    first = NoiseModel(sigma=0.1, seed=2**32 + 1).sample(50, key=(30, 0))
    second = NoiseModel(sigma=0.1, seed=1).sample(50, key=(30, 0))
    assert not np.array_equal(first, second)


@pytest.mark.parametrize("seed, message",
                         BAD_SEEDS + [(None, "seed must be an integer, not None")])
def test_uniform_sphere_refuses_a_seed_that_is_not_a_nonnegative_integer(seed, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        sample_uniform_sphere(3, 10, seed)


def test_plans_refuse_a_negative_quota():
    with pytest.raises(ValueError, match="^negative quota$"):
        SamplingPlan(t=0.0, delta=0.1, m=60, seed=0, quotas=(-1,) + (1,) * 5)


def test_make_plan_checks_m_before_its_quotas(hexagon):
    # The quotas of 600.5 do not fit: QuotaInfeasible named 600.5 samples.
    with pytest.raises(ValueError, match="^m must be an integer, not 600.5$"):
        make_plan(hexagon, 0.1, 0.05, 600.5, 0)


def test_plans_take_numpy_integers(hexagon):
    plan = SamplingPlan(t=0.0, delta=0.1, m=np.int64(60), seed=0,
                        quotas=tuple(np.full(6, 10)))
    fixed = SamplingPlan(t=0.0, delta=0.1, m=60, seed=0, quotas=(10,) * 6)
    assert sample_concentrated(hexagon, plan).tobytes() == \
        sample_concentrated(hexagon, fixed).tobytes()


def test_explicit_quota_overflow_rejected():
    with pytest.raises(QuotaInfeasible):
        SamplingPlan(t=0.0, delta=0.1, m=5, seed=0, quotas=(3, 3))


def test_concentrated_sampling_deterministic_and_audited(hexagon):
    plan = facet_direction_plan(hexagon, 90, delta=0.1, seed=21)
    dirs1 = sample_concentrated(hexagon, plan)
    dirs2 = sample_concentrated(hexagon, plan)
    assert np.array_equal(dirs1, dirs2)
    assert dirs1.shape == (90, 2)
    counts = audit_concentration(hexagon, dirs1, plan)
    assert np.all(counts >= np.array(plan.quotas))


def test_concentrated_sampling_with_positive_t(hexagon, roof_y):
    for fan, seed in [(hexagon, 31), (roof_y, 32)]:
        plan = make_plan(fan, 0.008, 0.01, 80, seed)
        dirs = sample_concentrated(fan, plan)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        counts = audit_concentration(fan, dirs, plan)
        assert np.all(counts >= np.array(plan.quotas))


def test_rejection_sampling_starves_without_members(hexagon, monkeypatch):
    monkeypatch.setattr(facetfit.sim, "_in_neighborhoods",
                        lambda coeffs, gens, target, ray_norms, t: np.zeros(len(coeffs), bool))
    with pytest.raises(RuntimeError,
                       match=r"^rejection sampling starved for ray 0 at t=0\.008$"):
        sample_concentrated(hexagon, make_plan(hexagon, 0.008, 0.01, 80, 31))


@pytest.mark.parametrize("trial, starved", [(9999, 1), (10000, 0)])
def test_rejection_sampling_starves_after_10000_trials(hexagon, monkeypatch, trial,
                                                       starved):
    # Only one trial of ray 0's stream is a member: as the 10000th trial of
    # slot 0 it fills the slot, and the next slot in round-robin order
    # (ray 1's first) starves; one trial later, slot 0 starves first.
    plan = make_plan(hexagon, 0.008, 0.01, 80, 31)
    rng = facetfit.sim._rng(np.random.SeedSequence(plan.seed).spawn(1)[0])
    g = [rng.standard_normal(2) for _ in range(trial + 1)][-1]
    norms = hexagon.constants.ray_norms
    x = hexagon.rays[0] / norms[0] + 0.5 * plan.t * float(np.min(norms)) * g
    member = facetfit.fan.carriers(hexagon, [x / np.linalg.norm(x)])[1]
    monkeypatch.setattr(facetfit.sim, "_in_neighborhoods",
                        lambda coeffs, gens, target, ray_norms, t:
                        np.all(coeffs == member, axis=1))
    with pytest.raises(RuntimeError, match=f"starved for ray {starved} at"):
        sample_concentrated(hexagon, plan)


def test_rejection_sampling_raises_for_a_candidate_without_carrier(hexagon,
                                                                   monkeypatch):
    # Candidate 0 of the first pass is the first trial of ray 0's first slot.
    lookup = facetfit.sim.carriers

    def dropped(fan, X):
        cells, lam, guessed = lookup(fan, X)
        cells[0], guessed[0] = -1, False
        return cells, lam, guessed

    monkeypatch.setattr(facetfit.sim, "carriers", dropped)
    with pytest.raises(NoCarrier, match="^no cell of .* admits nonnegative coefficients$"):
        sample_concentrated(hexagon, make_plan(hexagon, 0.008, 0.01, 80, 31))


def test_zero_t_emits_exact_rays(roof_y):
    plan = facet_direction_plan(roof_y, 10, delta=0.1, seed=3)
    dirs = sample_concentrated(roof_y, plan)
    norms = np.linalg.norm(roof_y.rays, axis=1)
    units = roof_y.rays / norms[:, None]
    quota_part = dirs[:sum(plan.quotas)]
    for row in quota_part:
        assert any(np.array_equal(row, u) for u in units)


def test_concentrated_designs_have_full_rank(hexagon, roof_y):
    for fan in (hexagon, roof_y):
        for seed in range(8):
            plan = facet_direction_plan(fan, 6 * fan.n_rays, seed=seed)
            design = build_design(fan, sample_concentrated(fan, plan))
            assert design.rank_kernel[0] == fan.n_rays


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------

def test_noise_determinism_and_scale():
    noise = NoiseModel(sigma=0.5, seed=13)
    a = noise.sample(1000, key=(10, 2))
    b = noise.sample(1000, key=(10, 2))
    c = noise.sample(1000, key=(10, 3))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert abs(float(np.std(a)) - 0.5) < 0.05
    assert noise.gamma == pytest.approx(0.25)


def test_noise_stream_is_the_one_generator_id_names():
    # Records written under GENERATOR_ID reproduce only while these bits hold
    # on every supported numpy.
    assert facetfit.sim.GENERATOR_ID == "pcg64/numpy-standard-normal/4"
    eps = NoiseModel(sigma=1.0, seed=5).sample(4, key=(30, 0))
    assert [float(x).hex() for x in eps] == [
        "-0x1.46c84f559caadp-2", "-0x1.14a7d85b16b6ap-4",
        "-0x1.a9b0c8fe1231bp-2", "0x1.f1ab5b4a13b17p-2"]


def test_the_cli_noise_stream_keeps_every_bit_of_its_seed():
    # simulate's noise seed is the 64-bit derive_seed(--seed, 1); under /3
    # only its low 32 bits reached the stream.
    eps = NoiseModel(sigma=1.0, seed=derive_seed(5, 1)).sample(4, key=(30, 0))
    assert [float(x).hex() for x in eps] == [
        "0x1.6435a49f85f42p-4", "-0x1.6dc0eea38425bp-2",
        "-0x1.04669dcfaed85p+0", "0x1.39f24f87fe8fap-1"]


def test_concentrated_stream_is_the_one_generator_id_names():
    # The first round of quota rows, one from each ray's own stream, of the
    # t > 0 plan that CI simulates; records reproduce only while these bits
    # hold.
    fan = facetfit.catalog.random_polytopal_fan(3, 6, seed=203)
    plan = make_plan(fan, 0.004, 0.08, 200, seed=5)
    dirs = sample_concentrated(fan, plan)
    assert [[float(x).hex() for x in row] for row in dirs[:6]] == [
        ["-0x1.dc63a8a6ec7a2p-2", "-0x1.3b1b66ae7f830p-2", "0x1.a8f3b6107e98ep-1"],
        ["0x1.1d4a16e50e0fep-1", "-0x1.4610cf65f7613p-2", "0x1.88a67924325dfp-1"],
        ["0x1.3689bb13def21p-1", "-0x1.1b86f936ae1e4p-1", "-0x1.24199dd9ef101p-1"],
        ["-0x1.0086729f5a196p-4", "-0x1.5d1e46f24373ap-2", "-0x1.e0414a3dfebf2p-1"],
        ["-0x1.b4e5db4405df7p-1", "0x1.30715f2e54cffp-2", "-0x1.b69a0e9cbd9e8p-2"],
        ["0x1.299dabd5198c1p-1", "0x1.962e79f56e0b9p-1", "-0x1.72a0ca9251646p-3"]]


# ---------------------------------------------------------------------------
# Theoretical bound
# ---------------------------------------------------------------------------

def test_bound_scales_as_inverse_sqrt_m(hexagon):
    plan = facet_direction_plan(hexagon, 120, delta=1.0 / 6.0, seed=0)
    params = bound_parameters(hexagon, plan, gamma=0.01, eta=0.05)
    assert params.value(100) / params.value(200) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_bound_formula_direct_evaluation(hexagon):
    # Independent arithmetic: n=6, d=2, c=1, t=0, delta=1/6.
    delta, gamma, eta = 1.0 / 6.0, 0.01, 0.05
    kappa = delta ** 1.5
    lam = 1.0 - 5.0 * delta
    expected = (6.0 / kappa) * math.sqrt(2 * 2 * gamma * lam * math.log(12 / eta))
    plan = facet_direction_plan(hexagon, 120, delta=delta, seed=0)
    params = bound_parameters(hexagon, plan, gamma, eta)
    assert params.kappa == pytest.approx(kappa, rel=1e-9)
    assert params.lam == pytest.approx(lam, rel=1e-9)
    assert params.value(10_000) == pytest.approx(expected / 100.0, rel=1e-9)


@pytest.mark.parametrize("eta", [0.0, 1.0])
def test_bound_refuses_an_eta_outside_the_open_unit_interval(hexagon, eta):
    plan = facet_direction_plan(hexagon, 120, seed=0)
    with pytest.raises(ValueError, match=r"^eta must lie in \(0, 1\)$"):
        bound_parameters(hexagon, plan, 0.01, eta)


def test_bound_refuses_a_sample_count_below_one(hexagon):
    plan = facet_direction_plan(hexagon, 120, seed=0)
    params = bound_parameters(hexagon, plan, gamma=0.01, eta=0.05)
    with pytest.raises(ValueError, match="^m must be positive$"):
        params.value(0)


@pytest.mark.parametrize("m", [2.5, True])
def test_bound_refuses_a_sample_count_that_is_not_an_integer(hexagon, m):
    plan = facet_direction_plan(hexagon, 120, seed=0)
    params = bound_parameters(hexagon, plan, gamma=0.01, eta=0.05)
    with pytest.raises(ValueError, match=r"^m must be an integer, not (2\.5|True)$"):
        params.value(m)


def test_bound_is_unavailable_where_kappa_underflows(hexagon):
    # kappa = delta ** 1.5 is 0 here, and the prefactor divided by it.
    plan = facet_direction_plan(hexagon, 120, delta=1e-300, seed=0)
    with pytest.raises(NonpositiveLambda, match="^kappa underflows to 0 at delta 1e-300$"):
        bound_parameters(hexagon, plan, gamma=0.01, eta=0.05)


@pytest.mark.parametrize("delta, gamma", [(1e-210, 0.01), (1e-210, 0.0), (0.1, 1.7e308)])
def test_bound_is_unavailable_where_the_prefactor_overflows(hexagon, delta, gamma):
    # At delta 1e-210 kappa is subnormal, not 0, and n c^2 / kappa is inf
    # (times a zero noise term, nan); at gamma 1.7e308 the noise term is.
    plan = facet_direction_plan(hexagon, 120, delta=delta, seed=0)
    with pytest.raises(NonpositiveLambda,
                       match="^" + re.escape(f"the prefactor overflows at delta "
                                             f"{delta:.3g} and gamma {gamma:.3g}") + "$"):
        bound_parameters(hexagon, plan, gamma=gamma, eta=0.05)


def test_bound_nonpositive_lambda():
    from facetfit import catalog
    hexa = catalog.hexagon_fan()
    plan = SamplingPlan(t=0.4, delta=0.5, m=10, seed=0, quotas=(0,) * 6)
    with pytest.raises(NonpositiveLambda):
        bound_parameters(hexa, plan, gamma=0.01, eta=0.05)


# ---------------------------------------------------------------------------
# Eigenvalue checks
# ---------------------------------------------------------------------------

def test_eigen_identity_case(hexagon):
    plan = facet_direction_plan(hexagon, 6, delta=1.0 / 6.0, seed=0)
    design = build_design(hexagon, hexagon.rays)
    report = eigen_checks(design, hexagon, plan)
    assert report.lambda_min == pytest.approx(1.0, abs=1e-9)
    assert report.lambda_max == pytest.approx(1.0, abs=1e-9)
    assert report.upper_ok and report.lower_ok


def test_eigen_bounds_over_seeded_trials(hexagon, roof_y):
    for fan in (hexagon, roof_y):
        m = 24 * fan.n_rays
        for seed in range(50):
            plan = facet_direction_plan(fan, m, seed=seed)
            design = build_design(fan, sample_concentrated(fan, plan))
            report = eigen_checks(design, fan, plan)
            assert report.upper_ok
            assert report.lower_ok


def test_eigen_hypothesis_unmet(hexagon):
    design = build_design(hexagon, np.array([[1.0, 0.2], [1.0, 0.3], [0.9, 0.5]]))
    plan = SamplingPlan(t=0.0, delta=1.0 / 6.0, m=3, seed=0, quotas=(0,) * 6)
    with pytest.raises(HypothesisUnmet) as info:
        eigen_checks(design, hexagon, plan)
    report = info.value.report
    assert report.upper_ok
    assert report.lambda_min == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("fan_key", ["hexagon", "roof_y", "cube3", "fan3d"])
def test_counts_and_normal_matrix_of_the_cell_form_equal_the_dense_rows(request, fan_key):
    # The counts come from the blocks' d columns and the normal matrix from
    # the factor R; the dense rows are their reference.
    fan = {"cube3": facetfit.catalog.cube_fan(3),
           "fan3d": facetfit.catalog.random_polytopal_fan(3, 6, seed=203)}.get(fan_key)
    fan = fan or request.getfixturevalue(fan_key)
    plan = make_plan(fan, 0.004, 0.01, 40 * fan.n_rays, seed=3)
    dirs = sample_concentrated(fan, plan)
    design = build_design(fan, dirs)
    A, norms = design.matrix, fan.constants.ray_norms
    dense = [facetfit.sim._in_neighborhoods(A, np.arange(fan.n_rays), j, norms, plan.t).sum()
             for j in range(fan.n_rays)]
    assert audit_concentration(fan, dirs, plan).tolist() == dense
    report = eigen_checks(design, fan, plan)
    assert report.counts.tolist() == dense
    eigvals = np.linalg.eigvalsh(A.T @ A)
    assert report.lambda_min == pytest.approx(eigvals[0], rel=1e-12, abs=1e-12)
    assert report.lambda_max == pytest.approx(eigvals[-1], rel=1e-12)


# ---------------------------------------------------------------------------
# Convergence runs
# ---------------------------------------------------------------------------

def test_zero_noise_identity_directions_recover_exactly(hexagon):
    noise = NoiseModel(sigma=0.0, seed=1)
    records = run_convergence(
        hexagon, np.ones(6),
        lambda m: facet_direction_plan(hexagon, m, seed=2),
        [12, 24], 3, noise)
    assert len(records) == 6
    for rec in records:
        assert not rec.failed
        assert rec.hausdorff_error <= 1e-9


def test_run_convergence_is_deterministic(hexagon):
    noise = NoiseModel(sigma=0.2, seed=5)
    fam = lambda m: facet_direction_plan(hexagon, m, seed=9)
    r1 = run_convergence(hexagon, np.ones(6), fam, [30, 60], 2, noise)
    r2 = run_convergence(hexagon, np.ones(6), fam, [30, 60], 2, noise)
    assert [(a.m, a.replicate, a.hausdorff_error, a.objective) for a in r1] == \
           [(b.m, b.replicate, b.hausdorff_error, b.objective) for b in r2]


def test_a_sample_count_makes_one_carrier_lookup(hexagon, monkeypatch):
    # The data come from the vertices of P(h0), so the design that
    # ``reconstruct`` builds is the only carrier lookup, and at t = 0 every
    # replicate of one m fits on the first replicate's design.
    calls = []
    inner = facetfit.fan.carriers

    def counted(fan, U):
        calls.append(len(U))
        return inner(fan, U)

    for module in (facetfit.fan, facetfit.design, facetfit.sim):
        monkeypatch.setattr(module, "carriers", counted)
    replicates = 4
    records = run_convergence(hexagon, np.ones(6),
                              lambda m: facet_direction_plan(hexagon, m, seed=6),
                              [40, 80], replicates, NoiseModel(sigma=0.1, seed=8))
    assert not any(r.failed for r in records)
    assert calls == [40, 80]


@pytest.mark.parametrize("fan_key, h0, message", [
    ("roof_y", [2.0, 2, 4, 4, 0],
     "support vector violates the wall inequalities by 4.000e+00"),
    ("hexagon", [3.0, 1, 1, 1, 1, 1],
     "support vector violates the wall inequalities by 1.000e+00"),
])
def test_h0_outside_the_cone_fails_every_replicate(request, fan_key, h0, message):
    # The messages are those the records carried when the values came from
    # the design rows and ``hausdorff`` refused h0.
    fan = request.getfixturevalue(fan_key)
    records = run_convergence(fan, np.array(h0),
                              lambda m: facet_direction_plan(fan, m, seed=3),
                              [20, 40], 2, NoiseModel(sigma=0.1, seed=5))
    assert [(r.m, r.replicate, r.failed, r.message) for r in records] == \
        [(m, rep, True, message) for m in (20, 40) for rep in range(2)]
    assert all(math.isnan(r.hausdorff_error) and math.isnan(r.objective)
               for r in records)


def test_schedule_must_increase(hexagon):
    noise = NoiseModel(sigma=0.1, seed=5)
    with pytest.raises(ValueError):
        run_convergence(hexagon, np.ones(6),
                        lambda m: facet_direction_plan(hexagon, m, seed=1),
                        [100, 100], 1, noise)


def test_error_decreases_with_m(hexagon):
    noise = NoiseModel(sigma=0.1, seed=7)
    records = run_convergence(
        hexagon, np.ones(6),
        lambda m: facet_direction_plan(hexagon, m, seed=4),
        [60, 600], 8, noise)
    med = {m: float(np.median([r.hausdorff_error for r in records if r.m == m]))
           for m in (60, 600)}
    assert med[600] < med[60]
    slope = fit_loglog_slope(records)
    assert -0.8 < slope < -0.2


def test_slope_needs_two_sample_counts():
    records = [ConvergenceRecord(m=100, replicate=r, hausdorff_error=0.1,
                                 objective=0.0, elapsed=0.0) for r in range(3)]
    with pytest.raises(ValueError, match="^need at least two sample counts to fit a slope$"):
        fit_loglog_slope(records)


def test_rate_slope_on_three_dimensional_fan(roof_y):
    noise = NoiseModel(sigma=0.1, seed=19)
    records = run_convergence(
        roof_y, np.array([4.0, 4, 2, 2, 0]),
        lambda m: facet_direction_plan(roof_y, m, seed=23),
        [100, 1000, 10000], 20, noise)
    assert not any(r.failed for r in records)
    slope = fit_loglog_slope(records)
    assert -0.65 <= slope <= -0.35


# ---------------------------------------------------------------------------
# Non-convergence outside the assumed cone (fixed regression)
# ---------------------------------------------------------------------------

SEQ1_PATTERN = [0, 0, 0, 1, 1, 1, 2, 3, 4, 4]
SEQ2_PATTERN = [0, 1, 1, 1, 1, 1, 1, 2, 3, 4]
SEQ1_TARGET = np.array([2.5, 2.5, 2.5, 2.5, 0.0])
SEQ2_TARGET = np.array([62.0, 42.0, 52.0, 52.0, 0.0]) / 19.0


@pytest.mark.parametrize("pattern, target", [
    (SEQ1_PATTERN, SEQ1_TARGET),
    (SEQ2_PATTERN, SEQ2_TARGET),
])
@pytest.mark.parametrize("k", [1, 3])
def test_nonconvergence_fixed_points(roof_y, roof_x, pattern, target, k):
    h_true = np.array([2.0, 2.0, 4.0, 4.0, 0.0])  # lies outside roof_y's cone
    dirs = np.array([roof_y.rays[j] for j in pattern] * k)
    values = np.array([h_true[j] for j in pattern] * k)
    res = reconstruct(roof_y, Dataset(dirs, values))
    assert np.allclose(res.h_hat, target, atol=1e-6)
    # The estimate sits on the shared cone boundary, so the distance to the
    # true body is computable exactly inside the other fan's cone.
    distance = hausdorff(roof_x, res.h_hat, h_true)
    assert distance > 0.5
