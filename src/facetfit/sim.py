"""Synthetic data generation and convergence experiments.

Directions are drawn either uniformly on the sphere or concentrated in
prescribed neighborhoods of the normalized rays, support values get
independent Gaussian noise, and repeated reconstructions measure how the
exact Hausdorff error decays with the sample count.  The theoretical
error bound and the eigenvalue inequalities behind it are evaluated from
the same plan parameters.

All randomness flows through a seeded 64-bit PCG64 generator with
Gaussians produced by the Marsaglia polar transform, so every experiment
is reproducible bit for bit from its seeds; ``GENERATOR_ID`` names the
scheme in output metadata.  Directions are drawn in batches that
reproduce, row for row, the stream of one ``gaussian_polar`` call per
direction.  Rejection sampling works in passes: each pass draws a batch
of trials, makes every trial's candidate for every ray, and tests them all
with one ``fan.carrier_blocks`` call, reading each block's d coefficient
columns.  The slots then jump from one event (an accepted candidate, or
one without a carrier) to the next, one loop step per filled slot.  After
a pass that drew more trials than it used, the generator is rewound to
just after the last trial used, so the rows and the stream match one
``gaussian_polar`` call per trial.  The first pass draws one trial per
slot, a later one enough for the pending slots at the acceptance rate
seen so far, plus a quarter, so most plans take two passes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .design import Dataset, DesignMatrix, build_design
from .estimator import reconstruct
from .fan import (NoCarrier, SimplicialFan, c_delta, carrier_blocks, carriers,
                  row_norms)
from .fan import carrier  # noqa: F401 - perfbench's tracer wraps sim.carrier
from .geometry import hausdorff, support_values

GENERATOR_ID = "pcg64/marsaglia-polar/1"

# Candidates (trials times rays) that a later rejection pass may draw beyond
# one trial per pending slot.
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
# Seeded Gaussian sampling (Marsaglia polar)
# ---------------------------------------------------------------------------

def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def derive_seed(*key) -> int:
    """Stable 64-bit stream seed from a tuple of integers."""
    ss = np.random.SeedSequence([int(k) & 0xFFFFFFFF for k in key])
    return int(ss.generate_state(1, np.uint64)[0])


def _polar_pairs(need: int) -> int:
    """The uniform pairs ``gaussian_polar`` draws at once for ``need`` more
    normals: a call for d normals starts with ``_polar_pairs(d)``."""
    return (need + 1) // 2 + 8


def gaussian_polar(rng: np.random.Generator, size: int) -> np.ndarray:
    """Standard normals via the polar rejection transform on ``rng``."""
    out = np.empty(size)
    filled = 0
    while filled < size:
        need = size - filled
        pairs = _polar_pairs(need)
        u = 2.0 * rng.random(pairs) - 1.0
        v = 2.0 * rng.random(pairs) - 1.0
        s = u * u + v * v
        ok = (s > 0.0) & (s < 1.0)
        factor = np.sqrt(-2.0 * np.log(s[ok]) / s[ok])
        draws = np.concatenate([u[ok] * factor, v[ok] * factor])
        take = min(draws.size, need)
        out[filled:filled + take] = draws[:take]
        filled += take
    return out


def _rewind(rng: np.random.Generator, start: dict, rows: int, d: int) -> None:
    """Set ``rng`` to just after the first ``rows`` rows that ``_polar_rows``
    drew from ``start``: each row of width d takes ``2 _polar_pairs(d)``
    uniforms."""
    rng.bit_generator.state = start
    rng.bit_generator.advance(rows * 2 * _polar_pairs(d))


def _polar_rows(rng: np.random.Generator, k: int, d: int) -> np.ndarray:
    """Up to k rows, row i equal to the i-th of k ``gaussian_polar(rng, d)``
    calls in turn, leaving ``rng`` just after the last row returned.

    The uniforms of all k calls are drawn at once.  A call whose pairs
    yield fewer than d normals would draw more; the rows stop with it: the
    stream is rewound to just before it and that call is made by
    ``gaussian_polar`` itself.
    """
    pairs = _polar_pairs(d)
    start = rng.bit_generator.state
    uv = 2.0 * rng.random(2 * pairs * k).reshape(k, 2, pairs) - 1.0
    u, v = uv[:, 0], uv[:, 1]
    s = u * u + v * v
    ok = (s > 0.0) & (s < 1.0)
    count = ok.sum(axis=1)
    short = np.flatnonzero(2 * count < d)
    full = int(short[0]) if short.size else k
    # Value j of row i is u (j < c) or v (j >= c) of its accepted pair
    # q = j or j - c.  The accepted pairs of all rows, in order, are one
    # flat list; row i's start in it is the running count before row i.
    c = count[:full, None]
    j = np.arange(d)
    first = j < c
    before = np.cumsum(count[:full]) - count[:full]
    at = np.flatnonzero(ok[:full])[before[:, None] + np.where(first, j, j - c)]
    comp = np.where(first, u.ravel()[at], v.ravel()[at])
    sp = s.ravel()[at]
    rows = comp * np.sqrt(-2.0 * np.log(sp) / sp)
    if full < k:
        _rewind(rng, start, full, d)
        rows = np.vstack([rows, gaussian_polar(rng, d)])
    return rows


def _unit_rows(rng: np.random.Generator, k: int, d: int) -> np.ndarray:
    """k unit vectors: normalized ``gaussian_polar`` rows, skipping any of
    norm at most 1e-12."""
    parts = [np.empty((0, d))]
    while k > 0:
        g = _polar_rows(rng, k, d)
        norms = row_norms(g)
        keep = norms > 1e-12
        parts.append(g[keep] / norms[keep, None])
        k -= int(np.count_nonzero(keep))
    return np.concatenate(parts)


def sample_uniform_sphere(d: int, m: int, seed) -> np.ndarray:
    """m unit vectors, rotation invariant, deterministic per seed."""
    if m < 1:
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
    """

    t: float
    delta: float
    m: int
    seed: int
    quotas: tuple[int, ...]

    def __post_init__(self):
        _check_rates(self.t, self.delta)
        if self.m < 1:
            raise ValueError("m must be positive")
        if any(q < 0 for q in self.quotas):
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
        return self.sigma * gaussian_polar(rng, m)


# ---------------------------------------------------------------------------
# Concentration neighborhoods
# ---------------------------------------------------------------------------

def in_ct(fan: SimplicialFan, x, j: int, t: float) -> bool:
    """Membership of ``x`` in the concentration neighborhood of ray j.

    The barycentric coefficients of ``x``, scaled by the ray norms, must be
    within ``t`` of the j-th unit vector in the sup norm.  A relative slack
    of 1e-9 absorbs round-off so the exact normalized ray passes at t = 0.
    """
    x = np.asarray(x, float)
    cells, coeffs = carriers(fan, x[None])
    if cells[0] < 0:
        raise NoCarrier.for_vector(fan, x)
    return bool(_in_neighborhoods(coeffs, fan.constants.ray_norms, np.array([j]), t)[0])


def _in_neighborhoods(coeffs: np.ndarray, ray_norms: np.ndarray, J: np.ndarray,
                      t: float) -> np.ndarray:
    """The one membership rule of the neighborhoods: row i of the barycentric
    coefficients, scaled by the ray norms, lies within ``t`` (plus 1e-9) of
    the unit vector of column ``J[i]`` in the sup norm.

    The columns are either all n rays (dense carrier rows, with ``J[i]``
    the target ray) or the d generators of one cell (a block of
    ``carrier_blocks``, with ``ray_norms`` those of its generators and
    ``J[i]`` the target ray's position among them).  ``J[i] = -1`` says the
    target ray is not a generator of the row's cell: its dense row has 0 in
    that ray's column, 1 away from the unit vector, so the row is outside
    (t < 1/2).  Both forms give the same answer, since the dense row's
    other entries are zeros.  The sup norm is a column-wise running maximum,
    exact like ``fan.row_min`` and much faster than a reduction over a
    short axis."""
    worst = np.abs(coeffs[:, 0] * ray_norms[0] - (J == 0))
    for k in range(1, coeffs.shape[1]):
        np.maximum(worst, np.abs(coeffs[:, k] * ray_norms[k] - (J == k)), out=worst)
    return (worst <= t + 1e-9) & (J >= 0)


def _concentration_counts(design: DesignMatrix, ray_norms: np.ndarray,
                          t: float) -> np.ndarray:
    """Per-ray neighborhood counts of the design's rows, from its blocks in
    the column form of ``_in_neighborhoods``: a row counts only for the
    generators of its cell."""
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
    normalized ray, each kept when it passes ``in_ct`` (``t = 0``
    short-circuits to the exact ray); the remaining budget is uniform on
    the sphere.  The interleaving is fixed so every prefix is as balanced
    as the quotas allow.
    """
    fan.require_valid()
    n = fan.n_rays
    if len(plan.quotas) != n:
        raise ValueError("plan quotas do not match the fan's ray count")
    rng = _rng(plan.seed)
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
        quota_rows = _rejection_rows(fan, rng, units, radius, slots, plan.t)
    return np.concatenate([quota_rows, _unit_rows(rng, plan.m - len(slots), fan.dim)])


def _rejection_rows(fan: SimplicialFan, rng: np.random.Generator, units: np.ndarray,
                    radius: float, slots: np.ndarray, t: float) -> np.ndarray:
    """One accepted perturbation of ray ``slots[s]`` for every slot s.

    Trials belong to the current slot: a slot takes the first trial after
    the previous slot's that lies in its ray's neighborhood, and starves
    after 10000 trials.  Which ray a trial is for depends on how many
    earlier trials were accepted, so every trial's candidate is made and
    tested for every ray.

    The trials come in passes.  The first draws one trial per slot; a later
    pass draws 1.25 times the pending slots over the acceptance rate seen
    so far, at most ``_PASS_ROWS`` candidates beyond one trial per pending
    slot.  A pass makes one ``carrier_blocks`` call on its candidates and
    applies the membership rule to each block's d columns.  A trial is an
    event for a ray when its candidate is usable and either in the ray's
    neighborhood or without a carrier; a reverse running minimum gives, for
    each trial and ray, the next event, so the slots advance from event to
    event, one loop step per filled slot.  The generator is then rewound to
    just after the last trial used, so the rows and the state left behind
    are those of one ``gaussian_polar`` call per trial.
    """
    n, d = units.shape
    ray_norms = fan.constants.ray_norms
    # column[c, j]: position of ray j among cell c's generators, or -1.
    column = np.full((fan.n_cells, n), -1)
    for c, cell in enumerate(fan.cells):
        column[c, list(cell)] = np.arange(d)
    order = slots.tolist()
    out = np.empty((len(slots), d))
    s = tries = used = 0
    while s < len(slots):
        pending = want = len(slots) - s
        if used:
            want = min(math.ceil(1.25 * pending * used / max(s, 1)),
                       pending + _PASS_ROWS // n)
        start = rng.bit_generator.state
        g = _polar_rows(rng, want, d)
        k = len(g)
        X = (units[None, :, :] + radius * g[:, None, :]).reshape(k * n, d)
        norms = row_norms(X)
        usable = norms >= 1e-12
        X /= np.where(usable, norms, 1.0)[:, None]
        member = np.zeros(k * n, bool)
        carried = np.zeros(k * n, bool)
        for c, rows, lam in carrier_blocks(fan, X):
            carried[rows] = True
            member[rows] = _in_neighborhoods(lam, ray_norms[list(fan.cells[c])],
                                             column[c, rows % n], t)
        event = (usable & (member | ~carried)).reshape(k, n)
        # after[i, j]: the first event for ray j at trial i or later, else k
        # (row k, past the last trial, is all k).
        after = np.vstack([np.where(event, np.arange(k)[:, None], k), np.full(n, k)])
        after = np.minimum.accumulate(after[::-1], axis=0)[::-1]
        # Slot by slot from trial i: the slot's next event fills it or, for a
        # candidate without a carrier, raises.  ``tries`` counts the trials
        # the current slot used in earlier passes.
        taken = []
        i = 0
        for j in order[s:]:
            e = after.item(i, j)
            if tries + e - i >= 10000:
                raise RuntimeError(
                    f"rejection sampling starved for ray {j} at t={t}")
            if e == k:
                tries += k - i
                i = k
                break
            if not carried.item(e * n + j):
                raise NoCarrier.for_vector(fan, X[e * n + j])
            taken.append(e * n + j)
            tries = 0
            i = e + 1
        out[s:s + len(taken)] = X[taken]
        s += len(taken)
        used += i
        if i < k:
            _rewind(rng, start, i, d)
    return out


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
