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
dropped.  The sampler works in passes of one per-row ``fan.carriers``
call on the trials of every (seed, ray) pair that still needs samples
and one membership test on all the rows it carries, whatever their cells
(``_membership``).  The first pass draws one trial per pending sample,
a later one enough for each pair's pending samples at its acceptance
rate so far, plus a quarter, so most plans take two passes.

A sampling group is one plan with several seeds (``_sample_plans``).  A
convergence run samples the replicates of one sample count m, its plan
with each replicate's seed, in groups of ``max(m_schedule) // m`` seeds,
one sequence of passes per group, so a group draws about as many rows as
one replicate at the largest m; it scores the fits of each m with one
``geometry.hausdorff_rows`` call.  Noise, values and reconstruction stay
per replicate; a run keeps only each replicate's estimate and objective,
never its ``ReconstructionResult``, whose uniqueness report is then never
computed.  A replicate measured in the same directions as the previous
replicate of its m, as every replicate of a t = 0 plan without a uniform
fill is, fits on that replicate's design and its factor.  A replicate's
``elapsed`` is its own time plus equal shares of its group's sampling and
of its m's scoring.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .design import Dataset, DesignMatrix, build_design
from .estimator import reconstruct
from .fan import (NoCarrier, SimplicialFan, _index, c_delta, carriers,
                  cell_vertices, row_norms, vertex_max)
from .fan import carrier  # noqa: F401 - perfbench's tracer wraps sim.carrier
from .geometry import _require_member, hausdorff_rows
from .geometry import hausdorff  # noqa: F401 - perfbench's tracer wraps sim.hausdorff

GENERATOR_ID = "pcg64/numpy-standard-normal/4"

# Trials that a later rejection pass may draw for one ray beyond one per
# pending slot, times the number of rays.
_PASS_ROWS = 1 << 16


class QuotaInfeasible(Exception):
    """The per-ray sample quotas cannot fit into the sample budget."""


class NonpositiveLambda(Exception):
    """No value of the error bound is available for the plan.

    Raised when the variance-proxy factor is not positive, plan parameters
    outside the regime where the high-probability error bound applies,
    when kappa underflows to 0, or when the prefactor overflows; the
    message names which.
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
    """Stable 64-bit stream seed from a tuple of integers, each passed to
    ``SeedSequence`` whole; ``ValueError`` for an entry that is not an
    integer (a bool or a float is not) of at least 0."""
    ss = np.random.SeedSequence([_check_seed(k) for k in key])
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


def sample_uniform_sphere(d: int, m: int, seed: int) -> np.ndarray:
    """m unit vectors, rotation invariant, deterministic per seed;
    ``ValueError`` unless d and m are integers (not bools) of at least 1
    and the seed is an integer (not a bool) of at least 0."""
    d, m = _positive(d, "d"), _positive(m, "m")
    return _unit_rows(_rng(_check_seed(seed)), m, d)


def _positive(value, what: str) -> int:
    """``value`` as an int; ``ValueError`` unless it is an integer (not a
    bool) of at least 1."""
    value = _index(value, what)
    if value < 1:
        raise ValueError(f"{what} must be positive")
    return value


# ---------------------------------------------------------------------------
# Plans and noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplingPlan:
    """Concentration plan: per-ray quotas of directions near each ray.

    ``quotas[j]`` directions are drawn from the neighborhood of ray j with
    concentration width ``t`` (``t = 0`` means the exact normalized ray);
    the remaining ``m - sum(quotas)`` directions are uniform on the sphere.
    ``ValueError`` unless m, the seed and the quotas are integers (not
    bools), m >= 1, the seed >= 0 and every quota >= 0.
    """

    t: float
    delta: float
    m: int
    seed: int
    quotas: tuple[int, ...]

    def __post_init__(self):
        _check_rates(self.t, self.delta)
        _positive(self.m, "m")
        _check_seed(self.seed)
        if any(_index(q, "quota") < 0 for q in self.quotas):
            raise ValueError("negative quota")
        if sum(self.quotas) > self.m:
            raise QuotaInfeasible(
                f"quotas sum to {sum(self.quotas)} > m = {self.m}")


def _check_seed(seed) -> int:
    """``seed`` as an int; ``ValueError`` unless it is an integer (a bool is
    not) of at least 0."""
    seed = _index(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, not {seed}")
    return seed


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
    do).  Raises ``QuotaInfeasible`` when even that fails, and
    ``ValueError`` for an m that is not an integer of at least 1.
    """
    n = fan.n_rays
    _check_rates(t, delta)
    _positive(m, "m")
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
    """Independent centered Gaussian noise of standard deviation ``sigma``;
    its variance bound ``gamma`` is ``sigma ** 2``.  ``ValueError`` unless
    sigma is nonnegative with a finite square (so above about 1.34e154 it is
    refused) and the seed is a nonnegative integer (not a bool).  Each
    ``sample`` key draws from its own stream, ``derive_seed(seed, *key)``."""

    sigma: float
    seed: int

    def __post_init__(self):
        if not (0.0 <= self.sigma and self.sigma * self.sigma < math.inf):
            raise ValueError(f"sigma must be nonnegative and finite, not {self.sigma!r} "
                             f"(sigma ** 2 must be finite too)")
        _check_seed(self.seed)

    @property
    def gamma(self) -> float:
        return self.sigma ** 2

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
    The rule is ``_membership`` on the one row ``x``, the sampler's batch
    test; ``NoCarrier`` when ``x`` has no carrier.  ``ValueError`` for a j
    that is not an integer (a bool or a float is not) or is outside
    0..n-1.
    """
    j = _index(j, "ray index")
    if not 0 <= j < fan.n_rays:
        raise ValueError(f"ray index {j} is outside 0..{fan.n_rays - 1}")
    x = np.asarray(x, float)
    member, carried = _membership(fan, x[None], np.array([j]), t)
    if not carried[0]:
        raise NoCarrier.for_vector(fan, x)
    return bool(member[0])


def _in_neighborhoods(lam: np.ndarray, ray_norms: np.ndarray, J: np.ndarray,
                      t: float) -> np.ndarray:
    """The one membership rule of the neighborhoods, on carried rows of
    ``fan.carriers``: row i of the coefficients ``lam`` on its cell's d
    generators, scaled by their ray norms, lies within ``t`` (plus 1e-9)
    of the unit vector of column ``J[i]`` in the sup norm.  ``ray_norms``
    holds the d norms of one cell for all rows, or one row of d norms per
    row of ``lam``, so the rows of many cells take one call; either way
    each product is the same.  ``J[i]`` is the target ray's position among
    the generators, or -1 when the target ray is not one of them: the
    row's coefficient on that ray is 0, 1 away from the unit vector, so
    the row is outside (t < 1/2).  The sup norm is a column-wise running
    maximum, exact like ``fan.row_min`` and much faster than a reduction
    over a short axis."""
    worst = np.abs(lam[:, 0] * ray_norms[..., 0] - (J == 0))
    for k in range(1, lam.shape[1]):
        np.maximum(worst, np.abs(lam[:, k] * ray_norms[..., k] - (J == k)), out=worst)
    return (worst <= t + 1e-9) & (J >= 0)


def _concentration_counts(design: DesignMatrix, ray_norms: np.ndarray,
                          t: float) -> np.ndarray:
    """Per-ray neighborhood counts of the design's rows: the blocks' rows
    are stacked with the generators of their cells, and each generator
    position k takes one ``_in_neighborhoods`` call over all rows, with
    per-row norms, as the sampler's membership pass does.  A row counts
    only for the generators of its cell."""
    blocks = design.blocks
    lam = np.concatenate([lam for _, _, lam in blocks])
    cols = np.repeat(np.array([cols for _, cols, _ in blocks]),
                     [len(rows) for rows, _, _ in blocks], axis=0)
    norms = ray_norms[cols]
    counts = np.zeros(design.n, int)
    for k in range(cols.shape[1]):
        inside = _in_neighborhoods(lam, norms, np.full(len(lam), k), t)
        counts += np.bincount(cols[inside, k], minlength=design.n)
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
    allow.  ``_sample_plans`` on this one plan and its own seed.
    """
    [rows] = _sample_plans(fan, plan, [plan.seed])
    if isinstance(rows, Exception):
        raise rows
    return rows


def _sample_plans(fan: SimplicialFan, plan: SamplingPlan, seeds) -> list:
    """``sample_concentrated`` of ``plan`` with each of ``seeds`` as its
    seed, or the exception it raises for that seed, with the rejection
    trials of all seeds in one sequence of passes.  Every (seed, ray) pair
    draws from its own stream, so a seed's directions and its exception do
    not depend on the other seeds.  An invalid fan, or quotas that do not
    match its rays, raise for the whole call."""
    fan.require_valid()
    units = fan.rays / fan.constants.ray_norms[:, None]
    if len(plan.quotas) != fan.n_rays:
        raise ValueError("plan quotas do not match the fan's ray count")
    # Round r of the round robin serves every ray with more than r quota
    # samples, in ray order.
    quotas = np.array(plan.quotas)
    slots = np.nonzero(quotas[None, :] > np.arange(quotas.max())[:, None])[1]
    if plan.t == 0.0:
        out = [units[slots]] * len(seeds)
    else:
        out = _rejection_rows(fan, units, plan.t, seeds, slots)
    return [rows if isinstance(rows, Exception) else
            np.concatenate([rows, _unit_rows(_rng(seed), plan.m - len(slots), fan.dim)])
            for seed, rows in zip(seeds, out)]


def _rejection_rows(fan: SimplicialFan, units: np.ndarray, t: float, seeds,
                    slots: np.ndarray) -> list:
    """For each seed i, one accepted perturbation of ray ``slots[s]`` for
    every slot s, or the exception that ends seed i's sampling.

    The trials of pair (i, j), seed i's ray j, are ``units[j] + radius g``
    with ``radius = t min ||v|| / 2``, for the Gaussians g of its stream
    ``SeedSequence(seeds[i], spawn_key=(j,))``, one ``standard_normal(d)``
    call per trial.  A trial is an event when its candidate is usable (norm
    at least 1e-12) and either in ray j's neighborhood of width ``t`` or
    without a carrier; the pair's r-th slot takes its r-th event, fails
    with ``NoCarrier`` when that candidate has no carrier, and starves
    after 10000 trials without an event.  When several slots of a seed
    fail, the first in round-robin order is the seed's exception; the
    seed's other pairs run on.

    The trials come in passes.  The first draws one trial per pending slot
    of each pair; a later pass draws 1.25 times a pair's pending slots over
    its acceptance rate so far, at most ``_PASS_ROWS // n`` beyond one
    per pending slot.  A pass stacks the trials pair by pair and makes one
    ``_membership`` call on them: one ``carriers`` call and one
    ``_in_neighborhoods`` call on the carried rows.  Trials beyond a pair's
    last event used are dropped, so the rows depend neither on the pass
    sizes nor on the other seeds.
    """
    n, d = units.shape
    counts = np.bincount(slots, minlength=n)
    rays = np.flatnonzero(counts)
    # The pairs with quota slots, seed by seed in ray order.
    pairs = [(i, j) for i in range(len(seeds)) for j in rays.tolist()]
    ray_of = np.tile(rays, len(seeds))
    need = counts[ray_of].tolist()
    radius = 0.5 * t * float(np.min(fan.constants.ray_norms))
    streams = [_rng(np.random.SeedSequence(seeds[i], spawn_key=(j,)))
               for i, j in pairs]
    taken = [[] for _ in pairs]
    filled = [0] * len(pairs)
    drawn = [0] * len(pairs)
    # tries[p]: pair p's trials since its last event.  failed[i, r, j]: the
    # error of seed i's slot r of ray j, the first of the pair's slots that
    # fails.
    tries = [0] * len(pairs)
    failed = {}
    active = list(range(len(pairs)))
    while active:
        ks = []
        for p in active:
            pending = need[p] - filled[p]
            ks.append(pending if not drawn[p] else min(
                math.ceil(1.25 * pending * drawn[p] / max(filled[p], 1)),
                pending + _PASS_ROWS // n))
        ray = ray_of[np.repeat(active, ks)]
        g = np.concatenate([streams[p].standard_normal((k, d)) for p, k in zip(active, ks)])
        X = units[ray] + radius * g
        norms = row_norms(X)
        usable = norms >= 1e-12
        X /= np.where(usable, norms, 1.0)[:, None]
        member, carried = _membership(fan, X, ray, t)
        events = np.flatnonzero(usable & (member | ~carried))
        # events[cut[a]:cut[a + 1]]: the events among the a-th pair's trials.
        cut = np.searchsorted(events, np.cumsum([0] + ks)).tolist()
        lost = not carried.all()
        still = []
        start = 0
        for a, (p, k) in enumerate(zip(active, ks)):
            i, j = pairs[p]
            drawn[p] += k
            found = events[cut[a]:cut[a + 1]][:need[p] - filled[p]] - start
            bad = ()
            # Only a slot whose trials, those of earlier passes included,
            # pass 10000 can starve, and only in a pass with a candidate
            # without a carrier can a slot raise NoCarrier.
            if lost or tries[p] + k > 10000:
                gaps = np.diff(found, prepend=-1 - tries[p])
                bad = np.flatnonzero((gaps > 10000) | ~carried[start + found])
            if len(bad):
                b = int(bad[0])
                failed[i, filled[p] + b, j] = (
                    _starved(j, t) if gaps[b] > 10000
                    else NoCarrier.for_vector(fan, X[start + found[b]]))
            else:
                taken[p].append(X[start + found])
                filled[p] += len(found)
                tries[p] = k - 1 - int(found[-1]) if len(found) else tries[p] + k
                if filled[p] < need[p]:
                    if tries[p] >= 10000:
                        failed[i, filled[p], j] = _starved(j, t)
                    else:
                        still.append(p)
            start += k
        active = still
    order = np.argsort(slots, kind="stable")
    out = []
    for i in range(len(seeds)):
        first = min((key for key in failed if key[0] == i), default=None)
        if first is not None:
            out.append(failed[first])
            continue
        rows = np.empty((len(slots), d))
        own = taken[i * len(rays):(i + 1) * len(rays)]
        rows[order] = np.concatenate([np.empty((0, d))] + [b for blocks in own for b in blocks])
        out.append(rows)
    return out


def _membership(fan: SimplicialFan, X: np.ndarray, ray: np.ndarray,
                t: float) -> tuple[np.ndarray, np.ndarray]:
    """Whether row i of ``X`` lies in the neighborhood of width ``t`` of
    ray ``ray[i]``, and whether it has a carrier, from one ``fan.carriers``
    call and one ``_in_neighborhoods`` call on the carried rows, each with
    its own cell's ray norms."""
    # column[c, j]: position of ray j among cell c's generators, or -1.
    column = np.full((fan.n_cells, fan.n_rays), -1)
    column[np.arange(fan.n_cells)[:, None], fan._cell_array] = np.arange(fan.dim)
    cells, lam, _ = carriers(fan, X)
    carried = cells >= 0
    cells = cells[carried]
    member = np.zeros(len(X), bool)
    member[carried] = _in_neighborhoods(
        lam[carried], fan.constants.ray_norms[fan._cell_array[cells]],
        column[cells, ray[carried]], t)
    return member, carried


def _starved(j: int, t: float) -> RuntimeError:
    return RuntimeError(f"rejection sampling starved for ray {j} at t={t}")


# ---------------------------------------------------------------------------
# Theoretical bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundParameters:
    """Constants of the high-probability error bound for a plan.

    ``value(m)`` evaluates the bound at sample count m; it decays like
    ``1/sqrt(m)`` by construction, and raises ``ValueError`` unless m is
    an integer (not a bool) of at least 1.
    """

    kappa: float
    lam: float
    eta: float
    gamma: float
    prefactor: float

    def value(self, m: int) -> float:
        return self.prefactor / math.sqrt(_positive(m, "m"))


def bound_parameters(fan: SimplicialFan, plan: SamplingPlan, gamma: float,
                     eta: float) -> BoundParameters:
    """The bound's constants for ``plan`` and noise variance bound ``gamma``
    at confidence ``1 - eta``: ``kappa = (delta / max||v||^2)^(3/2)``, the
    variance factor ``lam`` and the prefactor ``n c^2 / kappa * sqrt(2 d
    gamma lam log(2n / eta))``.  ``ValueError`` unless eta lies in (0, 1);
    ``NonpositiveLambda``, whose message names the cause, when no bound
    value is available: ``lam`` is not positive, ``kappa`` underflows to 0
    (delta below about 1e-216), or the prefactor is not finite (``n c^2 /
    kappa`` overflows for delta below about 1e-205, or ``gamma`` is near
    the largest float).
    """
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
        raise NonpositiveLambda("nonpositive variance factor")
    if kappa == 0.0:
        raise NonpositiveLambda(f"kappa underflows to 0 at delta {plan.delta:.3g}")
    prefactor = (n * c ** 2 / kappa) * math.sqrt(
        2.0 * d * gamma * lam * math.log(2.0 * n / eta))
    if not math.isfinite(prefactor):
        raise NonpositiveLambda(f"the prefactor overflows at delta {plan.delta:.3g} "
                                f"and gamma {gamma:.3g}")
    return BoundParameters(kappa=kappa, lam=lam, eta=eta, gamma=gamma,
                           prefactor=prefactor)


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
    """One replicate of a convergence run.  ``elapsed`` is the replicate's
    own time (noise, values, reconstruction) plus an equal share of its
    group's sampling and of its sample count's scoring, so the elapsed
    times of a run add up to the time it spent outside ``plan_family``.
    Of replicates that share a design, the first carries its carrier
    lookup and its factor."""

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
    replicate samples that plan with its own seed, ``derive_seed(plan.seed,
    m, replicate)``, and draws its noise from the key (m, replicate), so
    replicates are independent streams and the whole experiment is
    reproducible.  At sample count m the replicates are sampled in groups
    of ``max(m_schedule) // m``, one ``_sample_plans`` call on the plan and
    the group's seeds each, so a group's sample rows are bounded by those
    of one replicate at the largest m; a replicate's directions do not
    depend on its group.  A plan whose quotas do not match the fan fails
    every replicate of its m with the same message.  Then,
    replicate by replicate, its data are the support values of ``P(h0)``
    at its directions (a maximum over the vertices of ``P(h0)``, computed
    once per run) plus its noise, and ``reconstruct`` fits it.  A
    replicate whose directions are equal (``np.array_equal``) to those of
    the previous replicate of its m, in any group, passes that replicate's
    design, with its factor and rank, in its ``Dataset``; otherwise
    ``reconstruct`` makes the replicate's only carrier lookup.  At t = 0
    without a uniform fill, then, each m builds and factors one design.
    The run keeps the estimate and objective alone, so the result is freed
    before the next replicate, and holds the shared design no longer than
    it serves: it drops it when the directions differ, when a replicate
    fails and before the next m.  The fits of each m are scored together
    by the exact distances of ``hausdorff_rows`` to ``h0``.  Failed replicates,
    including every replicate of an ``h0`` outside the deformation cone
    (``NotInDeformationCone``), become failed records rather than aborting
    the run; of a failure only its message is kept (``_replicate``).
    """
    h0 = np.asarray(h0, float)
    m_schedule = list(m_schedule)
    if any(b <= a for a, b in zip(m_schedule, m_schedule[1:])):
        raise ValueError("m_schedule must be strictly increasing")
    try:
        h0 = _require_member(fan, h0)
        vertices0 = cell_vertices(fan, h0)
    except Exception as exc:  # noqa: BLE001 - recorded per replicate
        vertices0 = str(exc)
    records = []
    for m in m_schedule:
        plan = plan_family(m)
        seeds = [derive_seed(plan.seed, m, rep) for rep in range(replicates)]
        size = max(1, m_schedule[-1] // m)
        # spent[rep]: the replicate's own time plus its share of its group's
        # sampling; outcome[rep]: its estimate and objective, or its failure's
        # message; shared: the previous replicate's design, or None.
        spent, outcome, shared = [], [], None
        clock = time.perf_counter()
        for first in range(0, replicates, size):
            group = seeds[first:first + size]
            try:
                samples = _sample_plans(fan, plan, group)
            except Exception as exc:  # noqa: BLE001 - recorded per replicate
                samples = [str(exc)] * len(group)
            now = time.perf_counter()
            share, clock = (now - clock) / len(samples), now
            for rep, dirs in enumerate(samples, first):
                # Dropped before this replicate builds its own; a failed
                # sampling's message equals no array.
                if shared is not None and not np.array_equal(shared.directions, dirs):
                    shared = None
                r, shared = _replicate(fan, vertices0, dirs, noise, m, rep, shared)
                outcome.append(r)
                now = time.perf_counter()
                spent.append(share + now - clock)
                clock = now
        fits = [r[0] for r in outcome if not isinstance(r, str)]
        errors = iter(hausdorff_rows(fan, fits, h0) if fits else ())
        share = (time.perf_counter() - clock) / max(replicates, 1)
        for rep, (r, own) in enumerate(zip(outcome, spent)):
            if isinstance(r, str):
                records.append(ConvergenceRecord(
                    m=m, replicate=rep, hausdorff_error=float("nan"),
                    objective=float("nan"), elapsed=own + share,
                    failed=True, message=r))
            else:
                records.append(ConvergenceRecord(
                    m=m, replicate=rep, hausdorff_error=float(next(errors)),
                    objective=r[1], elapsed=own + share))
    return records


def _replicate(fan: SimplicialFan, vertices0, dirs, noise: NoiseModel, m: int,
               rep: int, design: DesignMatrix | None
               ) -> tuple[tuple[np.ndarray, float] | str, DesignMatrix | None]:
    """One replicate's outcome and its design, or None for the design of a
    failed replicate.  The outcome is the estimate, checked to lie in the
    cone, and the objective, or the message of the first failure: of its
    sampling (``dirs`` an exception or a message), its noise, its ``h0``
    (``vertices0`` a message), its reconstruction, then the cone check.
    ``design``, the previous replicate's, must have been built from
    directions equal to ``dirs``; ``reconstruct`` reads it from the
    ``Dataset``, or builds the design when it is None.  Only a failure's
    message is kept: an exception's traceback holds the frames it passed
    through, and with them the failed replicate's design.  The result is
    freed when this call returns."""
    if not isinstance(dirs, np.ndarray):
        return str(dirs), None
    try:
        eps = noise.sample(m, key=(m, rep))
        if isinstance(vertices0, str):
            return vertices0, None
        result = reconstruct(fan, Dataset(dirs, vertex_max(vertices0, dirs) + eps, design))
        return (_require_member(fan, result.h_hat), result.objective), result.design
    except Exception as exc:  # noqa: BLE001 - recorded per replicate
        return str(exc), None


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
