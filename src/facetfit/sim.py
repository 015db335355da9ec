"""Synthetic data generation and convergence experiments.

Directions are drawn either uniformly on the sphere or concentrated in
prescribed neighborhoods of the normalized rays, support values get
independent Gaussian noise, and repeated reconstructions measure how the
exact Hausdorff error decays with the sample count.  The theoretical
error bound and the eigenvalue inequalities behind it are evaluated from
the same plan parameters.

All randomness flows through seeded 64-bit PCG64 generators and numpy's
``Generator.standard_normal`` (a ziggurat method), so every experiment is
reproducible bit for bit from its seeds; ``GENERATOR_ID`` names the
scheme in output metadata.  A (k, d) batch of ``standard_normal`` equals,
row for row, k calls of ``standard_normal(d)``, so directions drawn in
batches are those of one call per direction.  The uniform directions of
a plan come from the plan's seed.  Each ray's rejection trials come from
its own stream, numpy's independent child ``SeedSequence(seed,
spawn_key=(j,))`` of the plan's seed, one ``standard_normal(d)`` call
per trial, so a ray's samples depend on its stream alone: every trial
makes one candidate, and trials drawn beyond the last one used are
dropped.  The sampler works in passes of one ``fan.carrier_blocks`` call
on the trials of every ray that still needs samples, reading each
block's d coefficient columns.  The first pass draws one trial per
pending sample, a later one enough for each ray's pending samples at its
acceptance rate so far, plus a quarter, so most plans take two passes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .design import Dataset, DesignMatrix, build_design
from .estimator import reconstruct
from .fan import (NoCarrier, SimplicialFan, _index, c_delta, carrier_blocks,
                  row_norms)
from .fan import carrier  # noqa: F401 - perfbench's tracer wraps sim.carrier
from .geometry import hausdorff, support_values

GENERATOR_ID = "pcg64/numpy-standard-normal/3"

# Trials that a later rejection pass may draw for one ray beyond one per
# pending slot, times the number of rays.
_PASS_ROWS = 1 << 16


class QuotaInfeasible(Exception):
    """The per-ray sample quotas cannot fit into the sample budget."""


class NonpositiveLambda(Exception):
    """The variance-proxy factor of the error bound is not positive.

    Signals plan parameters outside the regime where the high-probability
    error bound applies; no bound value is available there.
    """


class HypothesisUnmet(Exception):
    """A dataset misses the per-ray concentration counts.

    The eigenvalue report built so far is attached as ``.report``; the
    upper bound has still been checked, the lower bound does not apply.
    """

    def __init__(self, message: str, report: "EigenReport"):
        super().__init__(message)
        self.report = report


# ---------------------------------------------------------------------------
# Seeded Gaussian sampling
# ---------------------------------------------------------------------------

def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def derive_seed(*key) -> int:
    """Stable 64-bit stream seed from a tuple of integers, each taken mod
    2**32 (so keys that differ by a multiple of 2**32 give one seed)."""
    ss = np.random.SeedSequence([int(k) & 0xFFFFFFFF for k in key])
    return int(ss.generate_state(1, np.uint64)[0])


def _unit_rows(rng: np.random.Generator, k: int, d: int) -> np.ndarray:
    """k unit vectors: normalized ``standard_normal`` rows, skipping any of
    norm at most 1e-12, the rows of one ``standard_normal(d)`` call per
    vector."""
    parts = [np.empty((0, d))]
    while k > 0:
        g = rng.standard_normal((k, d))
        norms = row_norms(g)
        keep = norms > 1e-12
        parts.append(g[keep] / norms[keep, None])
        k -= int(np.count_nonzero(keep))
    return np.concatenate(parts)


def sample_uniform_sphere(d: int, m: int, seed) -> np.ndarray:
    """m unit vectors, rotation invariant, deterministic per seed;
    ``ValueError`` unless d and m are integers (not bools) of at least 1."""
    if _index(d, "d") < 1:
        raise ValueError("d must be positive")
    if _index(m, "m") < 1:
        raise ValueError("m must be positive")
    return _unit_rows(_rng(seed), m, d)


# ---------------------------------------------------------------------------
# Plans and noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplingPlan:
    """Concentration plan: per-ray quotas of directions near each ray.

    ``quotas[j]`` directions are drawn from the neighborhood of ray j with
    concentration width ``t`` (``t = 0`` means the exact normalized ray);
    the remaining ``m - sum(quotas)`` directions are uniform on the sphere.
    ``ValueError`` unless m and the quotas are integers (not bools), m >= 1
    and every quota >= 0.
    """

    t: float
    delta: float
    m: int
    seed: int
    quotas: tuple[int, ...]

    def __post_init__(self):
        _check_rates(self.t, self.delta)
        if _index(self.m, "m") < 1:
            raise ValueError("m must be positive")
        if any(_index(q, "quota") < 0 for q in self.quotas):
            raise ValueError("negative quota")
        if sum(self.quotas) > self.m:
            raise QuotaInfeasible(
                f"quotas sum to {sum(self.quotas)} > m = {self.m}")


def _check_rates(t: float, delta: float) -> None:
    """Refuse ``t`` outside [0, 1/2) and ``delta`` not positive and finite."""
    if not 0.0 <= t < 0.5:
        raise ValueError("t must lie in [0, 1/2)")
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, not {delta!r}")


def make_plan(fan: SimplicialFan, t: float, delta: float, m: int, seed: int) -> SamplingPlan:
    """Plan with default quotas for the concentration hypothesis.

    Each ray needs ``m * (2.5 n t + delta)`` samples in its neighborhood.
    When the rounded-up quota fits n times into m it is used directly;
    when only the fractional requirement fits, the leftover is spread one
    sample at a time over the leading rays (the requirement is then met up
    to the integer rounding, which is the best any dataset of size m can
    do).  Raises ``QuotaInfeasible`` when even that fails.
    """
    n = fan.n_rays
    _check_rates(t, delta)
    required = m * (2.5 * n * t + delta)
    hi = math.ceil(required - 1e-9)
    if n * hi <= m:
        quotas = (hi,) * n
    else:
        lo = math.floor(required + 1e-9)
        if n * lo > m:
            raise QuotaInfeasible(
                f"each ray needs {required:.2f} of {m} samples; "
                f"{n} rays cannot be served")
        extra = m - n * lo
        quotas = tuple(lo + 1 if j < extra else lo for j in range(n))
    return SamplingPlan(t=t, delta=delta, m=m, seed=seed, quotas=quotas)


def facet_direction_plan(fan: SimplicialFan, m: int, delta: float | None = None,
                         seed: int = 0) -> SamplingPlan:
    """Plan that samples the exact normalized rays (t = 0) round robin."""
    if delta is None:
        delta = 1.0 / fan.n_rays
    return make_plan(fan, 0.0, delta, m, seed)


@dataclass(frozen=True)
class NoiseModel:
    """Independent centered Gaussian noise with uniformly bounded variance."""

    sigma: float
    seed: int
    gamma: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be nonnegative and finite, not {self.sigma!r}")
        gamma = self.gamma if self.gamma is not None else self.sigma ** 2
        if not math.isfinite(gamma):
            raise ValueError(f"gamma must be finite, not {gamma!r}")
        if self.sigma ** 2 > gamma * (1 + 1e-12):
            raise ValueError("sigma exceeds the variance bound")
        object.__setattr__(self, "gamma", gamma)

    def sample(self, m: int, key: tuple[int, ...] = ()) -> np.ndarray:
        rng = _rng(derive_seed(self.seed, *key))
        return self.sigma * rng.standard_normal(m)


# ---------------------------------------------------------------------------
# Concentration neighborhoods
# ---------------------------------------------------------------------------

def in_ct(fan: SimplicialFan, x, j: int, t: float) -> bool:
    """Membership of ``x`` in the concentration neighborhood of ray j.

    The barycentric coefficients of ``x``, scaled by the ray norms, must be
    within ``t`` of the j-th unit vector in the sup norm.  A relative slack
    of 1e-9 absorbs round-off so the exact normalized ray passes at t = 0.
    The rule is ``_in_neighborhoods`` on the d columns of the one
    ``carrier_blocks`` block of ``x``, with ray j's position among the
    cell's generators, or -1 (outside) when ray j is not one of them.
    ``ValueError`` for a j that is not an integer (a bool or a float is
    not) or is outside 0..n-1.
    """
    j = _index(j, "ray index")
    if not 0 <= j < fan.n_rays:
        raise ValueError(f"ray index {j} is outside 0..{fan.n_rays - 1}")
    x = np.asarray(x, float)
    blocks = carrier_blocks(fan, x[None])
    if not blocks:
        raise NoCarrier.for_vector(fan, x)
    c, _, lam = blocks[0]
    cell = list(fan.cells[c])
    k = cell.index(j) if j in cell else -1
    return bool(_in_neighborhoods(lam, fan.constants.ray_norms[cell], np.array([k]), t)[0])


def _in_neighborhoods(lam: np.ndarray, ray_norms: np.ndarray, J: np.ndarray,
                      t: float) -> np.ndarray:
    """The one membership rule of the neighborhoods, on a block of
    ``carrier_blocks``: row i of the coefficients ``lam`` on one cell's d
    generators, scaled by their ``ray_norms``, lies within ``t`` (plus
    1e-9) of the unit vector of column ``J[i]`` in the sup norm.
    ``J[i]`` is the target ray's position among the generators, or -1 when
    the target ray is not one of them: the row's coefficient on that ray is
    0, 1 away from the unit vector, so the row is outside (t < 1/2).  The
    sup norm is a column-wise running maximum, exact like ``fan.row_min``
    and much faster than a reduction over a short axis."""
    worst = np.abs(lam[:, 0] * ray_norms[0] - (J == 0))
    for k in range(1, lam.shape[1]):
        np.maximum(worst, np.abs(lam[:, k] * ray_norms[k] - (J == k)), out=worst)
    return (worst <= t + 1e-9) & (J >= 0)


def _concentration_counts(design: DesignMatrix, ray_norms: np.ndarray,
                          t: float) -> np.ndarray:
    """Per-ray neighborhood counts of the design's rows, from its blocks
    through ``_in_neighborhoods``: a row counts only for the generators of
    its cell."""
    counts = np.zeros(design.n, int)
    for rows, cols, lam in design.blocks.blocks:
        norms = ray_norms[cols]
        for k, j in enumerate(cols.tolist()):
            counts[j] += _in_neighborhoods(lam, norms, np.full(len(rows), k), t).sum()
    return counts


def audit_concentration(fan: SimplicialFan, directions, plan: SamplingPlan) -> np.ndarray:
    """Count how many directions fall in each ray's neighborhood."""
    design = build_design(fan, directions)
    return _concentration_counts(design, fan.constants.ray_norms, plan.t)


def sample_concentrated(fan: SimplicialFan, plan: SamplingPlan) -> np.ndarray:
    """Directions honoring the plan: quota samples first, round robin by ray.

    Quota samples for ray j are rejection-sampled perturbations of the
    normalized ray from ray j's own stream, each kept when it passes
    ``in_ct`` (``t = 0`` short-circuits to the exact ray); the remaining
    budget is uniform on the sphere, from the plan's seed.  The
    interleaving is fixed so every prefix is as balanced as the quotas
    allow.
    """
    fan.require_valid()
    n = fan.n_rays
    if len(plan.quotas) != n:
        raise ValueError("plan quotas do not match the fan's ray count")
    norms = fan.constants.ray_norms
    units = fan.rays / norms[:, None]
    radius = 0.5 * plan.t * float(np.min(norms))

    # Round r of the round robin serves every ray with more than r quota
    # samples, in ray order.
    quotas = np.array(plan.quotas)
    slots = np.nonzero(quotas[None, :] > np.arange(quotas.max())[:, None])[1]
    if plan.t == 0.0:
        quota_rows = units[slots]
    else:
        quota_rows = _rejection_rows(fan, plan.seed, units, radius, slots, plan.t)
    uniform = _unit_rows(_rng(plan.seed), plan.m - len(slots), fan.dim)
    return np.concatenate([quota_rows, uniform])


def _rejection_rows(fan: SimplicialFan, seed, units: np.ndarray, radius: float,
                    slots: np.ndarray, t: float) -> np.ndarray:
    """One accepted perturbation of ray ``slots[s]`` for every slot s.

    Ray j's trials are ``units[j] + radius * g`` for the Gaussians g of
    its stream ``SeedSequence(seed, spawn_key=(j,))``, one
    ``standard_normal(d)`` call per trial.  A trial is an event when its
    candidate is usable (norm at least 1e-12) and either in ray j's
    neighborhood or without a carrier; ray j's r-th slot takes its r-th
    event, raises ``NoCarrier`` when that candidate has no carrier, and
    starves after 10000 trials without an event.  When several slots fail,
    the first in round-robin order raises.

    The trials come in passes.  The first draws one trial per pending slot
    of each ray; a later pass draws 1.25 times a ray's pending slots over
    its acceptance rate so far, at most ``_PASS_ROWS // n`` beyond one
    per pending slot.  A pass stacks the trials ray by ray, makes one
    ``carrier_blocks`` call on them and applies the membership rule to
    each block's d columns.  Trials beyond a ray's last event used are
    dropped, so the rows do not depend on the pass sizes.
    """
    n, d = units.shape
    ray_norms = fan.constants.ray_norms
    # column[c, j]: position of ray j among cell c's generators, or -1.
    column = np.full((fan.n_cells, n), -1)
    column[np.arange(fan.n_cells)[:, None], fan._cell_array] = np.arange(d)
    need = np.bincount(slots, minlength=n).tolist()
    active = [j for j in range(n) if need[j]]
    streams = {j: _rng(np.random.SeedSequence(seed, spawn_key=(j,))) for j in active}
    taken = [[] for _ in range(n)]
    filled = [0] * n
    drawn = [0] * n
    # tries[j]: ray j's trials since its last event.  failed[r, j]: the error
    # of ray j's slot r, the first of ray j's slots that fails.
    tries = [0] * n
    failed = {}
    while active:
        ks = []
        for j in active:
            pending = need[j] - filled[j]
            ks.append(pending if not drawn[j] else min(
                math.ceil(1.25 * pending * drawn[j] / max(filled[j], 1)),
                pending + _PASS_ROWS // n))
        ray = np.repeat(active, ks)
        g = np.concatenate([streams[j].standard_normal((k, d)) for j, k in zip(active, ks)])
        X = units[ray] + radius * g
        norms = row_norms(X)
        usable = norms >= 1e-12
        X /= np.where(usable, norms, 1.0)[:, None]
        member = np.zeros(len(X), bool)
        carried = np.zeros(len(X), bool)
        for c, rows, lam in carrier_blocks(fan, X):
            carried[rows] = True
            member[rows] = _in_neighborhoods(lam, ray_norms[list(fan.cells[c])],
                                             column[c, ray[rows]], t)
        events = np.flatnonzero(usable & (member | ~carried))
        # events[cut[i]:cut[i + 1]]: the events among the i-th ray's trials.
        cut = np.searchsorted(events, np.cumsum([0] + ks)).tolist()
        lost = not carried.all()
        still = []
        start = 0
        for i, (j, k) in enumerate(zip(active, ks)):
            drawn[j] += k
            found = events[cut[i]:cut[i + 1]][:need[j] - filled[j]] - start
            bad = ()
            # Only a slot whose trials, those of earlier passes included,
            # pass 10000 can starve, and only in a pass with a candidate
            # without a carrier can a slot raise NoCarrier.
            if lost or tries[j] + k > 10000:
                gaps = np.diff(found, prepend=-1 - tries[j])
                bad = np.flatnonzero((gaps > 10000) | ~carried[start + found])
            if len(bad):
                b = int(bad[0])
                failed[filled[j] + b, j] = (
                    _starved(j, t) if gaps[b] > 10000
                    else NoCarrier.for_vector(fan, X[start + found[b]]))
            else:
                taken[j].append(X[start + found])
                filled[j] += len(found)
                tries[j] = k - 1 - int(found[-1]) if len(found) else tries[j] + k
                if filled[j] < need[j]:
                    if tries[j] >= 10000:
                        failed[filled[j], j] = _starved(j, t)
                    else:
                        still.append(j)
            start += k
        active = still
    if failed:
        raise failed[min(failed)]
    out = np.empty((len(slots), d))
    out[np.argsort(slots, kind="stable")] = np.concatenate(
        [np.empty((0, d))] + [block for blocks in taken for block in blocks])
    return out


def _starved(j: int, t: float) -> RuntimeError:
    return RuntimeError(f"rejection sampling starved for ray {j} at t={t}")


# ---------------------------------------------------------------------------
# Theoretical bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundParameters:
    """Constants of the high-probability error bound for a plan.

    ``value(m)`` evaluates the bound at sample count m; it decays like
    ``1/sqrt(m)`` by construction.
    """

    kappa: float
    lam: float
    eta: float
    gamma: float
    prefactor: float

    def value(self, m: int) -> float:
        return self.prefactor / math.sqrt(m)


def bound_parameters(fan: SimplicialFan, plan: SamplingPlan, gamma: float,
                     eta: float) -> BoundParameters:
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    norms = fan.constants.ray_norms
    c = c_delta(fan)
    n = fan.n_rays
    d = fan.dim
    kappa = (plan.delta / float(np.max(norms)) ** 2) ** 1.5
    lam = c ** 2 - (c ** 2 - plan.t ** 2 / float(np.min(norms)) ** 2) \
        * (n - 1) * (2.5 * n * plan.t + plan.delta)
    if lam <= 0.0:
        raise NonpositiveLambda(
            f"variance factor is {lam:.3e}; plan parameters are outside the "
            f"bound's regime")
    prefactor = (n * c ** 2 / kappa) * math.sqrt(
        2.0 * d * gamma * lam * math.log(2.0 * n / eta))
    return BoundParameters(kappa=kappa, lam=lam, eta=eta, gamma=gamma,
                           prefactor=prefactor)


def theoretical_bound(fan: SimplicialFan, plan: SamplingPlan, gamma: float,
                      eta: float, m: int) -> float:
    """High-probability Hausdorff error bound at sample count m."""
    if m < 1:
        raise ValueError("m must be positive")
    return bound_parameters(fan, plan, gamma, eta).value(m)


# ---------------------------------------------------------------------------
# Eigenvalue checks
# ---------------------------------------------------------------------------

@dataclass
class EigenReport:
    lambda_min: float
    lambda_max: float
    upper_bound: float
    lower_bound: float | None
    upper_ok: bool
    lower_ok: bool | None
    counts: np.ndarray
    required: float
    hypothesis_met: bool


def eigen_checks(design: DesignMatrix, fan: SimplicialFan,
                 plan: SamplingPlan) -> EigenReport:
    """Extreme eigenvalues of the normal matrix against their bounds.

    The largest eigenvalue must not exceed ``m n c^2``; under the
    concentration counts the smallest must reach ``m delta / max||v||^2``.
    Raises ``HypothesisUnmet`` (report attached) when the counts fall short
    of ``m (2.5 n t + delta)``; the upper bound is checked either way.
    The normal matrix is ``R^T R`` of the design's factor.
    """
    R = design.factor.R
    gram = R.T @ R
    eigvals = np.linalg.eigvalsh(gram)
    lam_min, lam_max = float(eigvals[0]), float(eigvals[-1])
    norms = fan.constants.ray_norms
    c = c_delta(fan)
    m, n = design.m, design.n
    upper = m * n * c ** 2
    upper_ok = lam_max <= upper * (1.0 + 1e-9)

    counts = _concentration_counts(design, norms, plan.t)
    required = m * (2.5 * n * plan.t + plan.delta)
    met = bool(np.all(counts >= required - 1e-9))
    report = EigenReport(
        lambda_min=lam_min, lambda_max=lam_max,
        upper_bound=upper, lower_bound=None,
        upper_ok=upper_ok, lower_ok=None,
        counts=counts, required=required, hypothesis_met=met)
    if not met:
        raise HypothesisUnmet(
            f"concentration counts {counts.tolist()} fall short of "
            f"{required:.2f}", report)
    lower = m * plan.delta / float(np.max(norms)) ** 2
    report.lower_bound = lower
    report.lower_ok = lam_min >= lower * (1.0 - 1e-9)
    return report


# ---------------------------------------------------------------------------
# Convergence experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRecord:
    m: int
    replicate: int
    hausdorff_error: float
    objective: float
    elapsed: float
    failed: bool = False
    message: str = ""


def run_convergence(fan: SimplicialFan, h0, plan_family, m_schedule,
                    replicates: int, noise: NoiseModel) -> list[ConvergenceRecord]:
    """Reconstruct from synthetic data over a schedule of sample counts.

    ``plan_family`` maps a sample count to a ``SamplingPlan``; each
    replicate reseeds the plan and the noise from (seed, m, replicate), so
    replicates are independent streams and the whole experiment is
    reproducible.  A replicate's data are the support values of ``P(h0)``
    at its directions (``geometry.support_values``, a maximum over the
    vertices of ``P(h0)``) plus the noise, so ``reconstruct`` makes the
    replicate's only carrier lookup; the fit is scored by the exact
    ``hausdorff`` distance to ``h0``.  Failed replicates, including every
    replicate of an ``h0`` outside the deformation cone
    (``NotInDeformationCone``), become failed records rather than aborting
    the run.
    """
    h0 = np.asarray(h0, float)
    m_schedule = list(m_schedule)
    if any(b <= a for a, b in zip(m_schedule, m_schedule[1:])):
        raise ValueError("m_schedule must be strictly increasing")
    records = []
    for m in m_schedule:
        base_plan = plan_family(m)
        for rep in range(replicates):
            plan = replace(base_plan, seed=derive_seed(base_plan.seed, m, rep))
            start = time.perf_counter()
            try:
                dirs = sample_concentrated(fan, plan)
                eps = noise.sample(m, key=(m, rep))
                y = support_values(fan, h0, dirs) + eps
                result = reconstruct(fan, Dataset(dirs, y))
                err = hausdorff(fan, result.h_hat, h0)
                records.append(ConvergenceRecord(
                    m=m, replicate=rep, hausdorff_error=float(err),
                    objective=result.objective,
                    elapsed=time.perf_counter() - start))
            except Exception as exc:  # noqa: BLE001 - recorded per replicate
                records.append(ConvergenceRecord(
                    m=m, replicate=rep, hausdorff_error=float("nan"),
                    objective=float("nan"),
                    elapsed=time.perf_counter() - start,
                    failed=True, message=str(exc)))
    return records


def fit_loglog_slope(records: list[ConvergenceRecord]) -> float:
    """Least-squares slope of log median error against log m."""
    by_m: dict[int, list[float]] = {}
    for rec in records:
        if not rec.failed:
            by_m.setdefault(rec.m, []).append(rec.hausdorff_error)
    ms = sorted(by_m)
    if len(ms) < 2:
        raise ValueError("need at least two sample counts to fit a slope")
    xs = np.log([float(m) for m in ms])
    ys = np.log([float(np.median(by_m[m])) for m in ms])
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope)
