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
on the trials of every (plan, ray) pair that still needs samples and
one membership test on all the rows it carries, whatever their cells
(``_membership``).  The first pass draws one trial per pending sample,
a later one enough for each pair's pending samples at its acceptance
rate so far, plus a quarter, so most plans take two passes.

A convergence run samples the replicates of one sample count m in
groups of ``max(m_schedule) // m`` plans, one sequence of passes per
group, so a group draws about as many rows as one replicate at the
largest m; it scores the fits of each m with one
``geometry.hausdorff_rows`` call.  Noise, values and reconstruction stay
per replicate; a run keeps only each replicate's estimate and objective,
never its ``ReconstructionResult``, whose uniqueness report is then never
computed.  A replicate's ``elapsed`` is its own time plus equal shares of
its group's sampling and of its m's scoring.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .design import Dataset, DesignMatrix, build_design
from .estimator import reconstruct
from .fan import (NoCarrier, SimplicialFan, _index, c_delta, carrier_blocks,
                  cell_vertices, row_norms, vertex_max)
from .fan import carrier  # noqa: F401 - perfbench's tracer wraps sim.carrier
from .geometry import _require_member, hausdorff_rows
from .geometry import hausdorff  # noqa: F401 - perfbench's tracer wraps sim.hausdorff

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
    d, m = _positive(d, "d"), _positive(m, "m")
    return _unit_rows(_rng(seed), m, d)


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
        if _index(self.seed, "seed") < 0:
            raise ValueError(f"seed must be non-negative, not {self.seed}")
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
    """The one membership rule of the neighborhoods, on rows of
    ``carrier_blocks``: row i of the coefficients ``lam`` on its cell's d
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
    allow.  ``_sample_plans`` on this one plan.
    """
    [rows] = _sample_plans(fan, [plan])
    if isinstance(rows, Exception):
        raise rows
    return rows


def _sample_plans(fan: SimplicialFan, plans) -> list:
    """``sample_concentrated`` of each plan, or the exception it raises for
    that plan, with the rejection trials of all plans in one sequence of
    passes.  Every (plan, ray) pair draws from its own stream, so a plan's
    directions and its exception do not depend on the other plans.  An
    invalid fan raises for all of them."""
    fan.require_valid()
    n = fan.n_rays
    units = fan.rays / fan.constants.ray_norms[:, None]
    out = [None] * len(plans)
    slots = {}
    for i, plan in enumerate(plans):
        if len(plan.quotas) != n:
            out[i] = ValueError("plan quotas do not match the fan's ray count")
            continue
        # Round r of the round robin serves every ray with more than r quota
        # samples, in ray order.
        quotas = np.array(plan.quotas)
        slots[i] = np.nonzero(quotas[None, :] > np.arange(quotas.max())[:, None])[1]
        if plan.t == 0.0:
            out[i] = units[slots[i]]
    rejected = [i for i in slots if out[i] is None]
    for i, rows in zip(rejected, _rejection_rows(
            fan, units, [plans[i] for i in rejected], [slots[i] for i in rejected])):
        out[i] = rows
    for i, q in slots.items():
        if not isinstance(out[i], Exception):
            fill = _unit_rows(_rng(plans[i].seed), plans[i].m - len(q), fan.dim)
            out[i] = np.concatenate([out[i], fill])
    return out


def _rejection_rows(fan: SimplicialFan, units: np.ndarray, plans,
                    slots) -> list:
    """For each plan i, one accepted perturbation of ray ``slots[i][s]``
    for every slot s, or the exception that ends plan i's sampling.

    The trials of pair (i, j), plan i's ray j, are ``units[j] + radius_i *
    g`` with ``radius_i = t_i min ||v|| / 2``, for the Gaussians g of its
    stream ``SeedSequence(plans[i].seed, spawn_key=(j,))``, one
    ``standard_normal(d)`` call per trial.  A trial is an event when its
    candidate is usable (norm at least 1e-12) and either in ray j's
    neighborhood of width ``t_i`` or without a carrier; the pair's r-th
    slot takes its r-th event, fails with ``NoCarrier`` when that
    candidate has no carrier, and starves after 10000 trials without an
    event.  When several slots of a plan fail, the first in round-robin
    order is the plan's exception; the plan's other pairs run on.

    The trials come in passes.  The first draws one trial per pending slot
    of each pair; a later pass draws 1.25 times a pair's pending slots over
    its acceptance rate so far, at most ``_PASS_ROWS // n`` beyond one
    per pending slot.  A pass stacks the trials pair by pair and makes one
    ``_membership`` call on them: one ``carrier_blocks`` call and one
    ``_in_neighborhoods`` call on the carried rows of all blocks.  Trials
    beyond a pair's last event used are dropped, so the rows depend
    neither on the pass sizes nor on the other plans.
    """
    n, d = units.shape
    # The pairs with quota slots, plan by plan in ray order.
    counts = [np.bincount(s, minlength=n).tolist() for s in slots]
    pairs = [(i, j) for i in range(len(plans)) for j in range(n) if counts[i][j]]
    plan_of = np.array([i for i, _ in pairs], int)
    ray_of = np.array([j for _, j in pairs], int)
    t = np.array([plan.t for plan in plans])
    radius = 0.5 * t * float(np.min(fan.constants.ray_norms))
    need = [counts[i][j] for i, j in pairs]
    streams = [_rng(np.random.SeedSequence(plans[i].seed, spawn_key=(j,)))
               for i, j in pairs]
    taken = [[] for _ in pairs]
    filled = [0] * len(pairs)
    drawn = [0] * len(pairs)
    # tries[p]: pair p's trials since its last event.  failed[i, r, j]: the
    # error of plan i's slot r of ray j, the first of the pair's slots that
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
        pair = np.repeat(active, ks)
        ray, owner = ray_of[pair], plan_of[pair]
        g = np.concatenate([streams[p].standard_normal((k, d)) for p, k in zip(active, ks)])
        X = units[ray] + radius[owner][:, None] * g
        norms = row_norms(X)
        usable = norms >= 1e-12
        X /= np.where(usable, norms, 1.0)[:, None]
        member, carried = _membership(fan, X, ray, t[owner])
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
                    _starved(j, plans[i].t) if gaps[b] > 10000
                    else NoCarrier.for_vector(fan, X[start + found[b]]))
            else:
                taken[p].append(X[start + found])
                filled[p] += len(found)
                tries[p] = k - 1 - int(found[-1]) if len(found) else tries[p] + k
                if filled[p] < need[p]:
                    if tries[p] >= 10000:
                        failed[i, filled[p], j] = _starved(j, plans[i].t)
                    else:
                        still.append(p)
            start += k
        active = still
    out = []
    for i, s in enumerate(slots):
        first = min((key for key in failed if key[0] == i), default=None)
        if first is not None:
            out.append(failed[first])
            continue
        rows = np.empty((len(s), d))
        rows[np.argsort(s, kind="stable")] = np.concatenate(
            [np.empty((0, d))] + [block for p in np.flatnonzero(plan_of == i)
                                  for block in taken[p]])
        out.append(rows)
    return out


def _membership(fan: SimplicialFan, X: np.ndarray, ray: np.ndarray,
                t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether row i of ``X`` lies in the neighborhood of width ``t[i]`` of
    ray ``ray[i]``, and whether it has a carrier, from one
    ``carrier_blocks`` call and one ``_in_neighborhoods`` call on the
    blocks' rows stacked, each with its own cell's ray norms."""
    # column[c, j]: position of ray j among cell c's generators, or -1.
    column = np.full((fan.n_cells, fan.n_rays), -1)
    column[np.arange(fan.n_cells)[:, None], fan._cell_array] = np.arange(fan.dim)
    blocks = carrier_blocks(fan, X)
    rows = np.concatenate([np.empty(0, int)] + [r for _, r, _ in blocks])
    lam = np.concatenate([np.empty((0, fan.dim))] + [lam for _, _, lam in blocks])
    cells = np.repeat(np.array([c for c, _, _ in blocks], int), [len(r) for _, r, _ in blocks])
    member = np.zeros(len(X), bool)
    carried = np.zeros(len(X), bool)
    carried[rows] = True
    member[rows] = _in_neighborhoods(
        lam, fan.constants.ray_norms[fan._cell_array[cells]],
        column[cells, ray[rows]], t[rows])
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
    """One replicate of a convergence run.  ``elapsed`` is the replicate's
    own time (noise, values, reconstruction) plus an equal share of its
    group's sampling and of its sample count's scoring, so the elapsed
    times of a run add up to the time it spent outside ``plan_family``."""

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
    reproducible.  At sample count m the replicates are sampled in groups
    of ``max(m_schedule) // m``, one ``_sample_plans`` call each, so a
    group's sample rows are bounded by those of one replicate at the
    largest m; a replicate's directions do not depend on its group.  Then,
    replicate by replicate, its data are the support values of ``P(h0)``
    at its directions (a maximum over the vertices of ``P(h0)``, computed
    once per run) plus its noise, and ``reconstruct`` makes its only
    carrier lookup; the run keeps the estimate and objective alone, so the
    result, and with it the design, is freed before the next replicate
    builds its own.  The fits of each m are scored together by the exact
    distances of ``hausdorff_rows`` to ``h0``.  Failed replicates,
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
        base_plan = plan_family(m)
        plans = [replace(base_plan, seed=derive_seed(base_plan.seed, m, rep))
                 for rep in range(replicates)]
        size = max(1, m_schedule[-1] // m)
        # spent[rep]: the replicate's own time plus its share of its group's
        # sampling; outcome[rep]: its estimate and objective, or its failure's
        # message.
        spent, outcome = [], []
        clock = time.perf_counter()
        for first in range(0, replicates, size):
            group = plans[first:first + size]
            try:
                samples = _sample_plans(fan, group)
            except Exception as exc:  # noqa: BLE001 - recorded per replicate
                samples = [str(exc)] * len(group)
            now = time.perf_counter()
            share, clock = (now - clock) / len(samples), now
            for rep, dirs in enumerate(samples, first):
                outcome.append(_replicate(fan, vertices0, dirs, noise, m, rep))
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
               rep: int) -> tuple[np.ndarray, float] | str:
    """One replicate's estimate, checked to lie in the cone, and objective,
    or the message of its first failure: of its sampling (``dirs`` an
    exception or a message), its noise, its ``h0`` (``vertices0`` a
    message), its reconstruction, then the cone check.  Only the message
    is kept: an exception's traceback holds the frames it passed through,
    and with them the failed replicate's design.  The result, and its
    design, are freed when this call returns, before the next replicate
    builds its own."""
    if not isinstance(dirs, np.ndarray):
        return str(dirs)
    try:
        eps = noise.sample(m, key=(m, rep))
        if isinstance(vertices0, str):
            return vertices0
        result = reconstruct(fan, Dataset(dirs, vertex_max(vertices0, dirs) + eps))
        return _require_member(fan, result.h_hat), result.objective
    except Exception as exc:  # noqa: BLE001 - recorded per replicate
        return str(exc)


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
