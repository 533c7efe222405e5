"""Turning success counts into error rates.

Covers the success statistic F, the exponential decay fit for the benchmark
error rate, bootstrap uncertainties, the four-parameter error-rates model
(ERM), and the bright-state depumping curve fit.

scipy is most of a cold start, so only the ERM fit imports it, in its own
body. Importing this module, and so the ``design``, ``simulate`` and
``predict`` commands and an ``analyze`` of one input, never loads it. The
two 1-D fits (decay and depumping) share one numpy search, ``_argmin``.

Declared conventions (the underlying protocol fixes none of these):

* decay fits minimize weighted least squares, weights 1/SE_d^2 when every
  depth has a positive standard error and uniform otherwise, with
  A in [1e-9, 1.05] and r in [0, 1 - 1e-9]. The fit is a variable
  projection (Golub & Pereyra 1973): for fixed r the best A has a closed
  form, so the loss profiled over A is scanned on a fixed grid (r = 0, then
  log-spaced in -log(1 - r)) and refined on nested grids between the best
  point's neighbours;
* bootstrap resamples circuits with replacement within each depth (ERM:
  within each config and depth), then redraws each chosen circuit's success
  count from a binomial at its empirical rate, and reports the sample
  standard deviation of the re-fits;
* the ERM fit minimizes the mean squared F error, every parameter in
  [0, 1], by variable projection too: the prediction is linear in eps_spam,
  so its best value is in clipped closed form, and scipy's bounded
  ``least_squares`` fits the other three rates from 8 starts;
* ERM gate counts include the dressing sublayers and the preparation and
  final rotation layers, matching the simulator's noise attachment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .builder import QirbCircuit
from .seeding import derive_np_rng

__all__ = [
    "FitDegenerateError",
    "DepthStats",
    "FitResult",
    "ErmParams",
    "ErmDatum",
    "DepumpFit",
    "DecayDataset",
    "f_from_counts",
    "fit_decay",
    "bootstrap_decay",
    "erm_predict_counts",
    "erm_counts",
    "fit_erm",
    "bootstrap_erm",
    "fit_depumping",
]


class FitDegenerateError(Exception):
    """Raised when the data cannot pin down the requested fit."""


def f_from_counts(n_success: int, n_fail: int) -> Fraction:
    """(N_success - N_fail) / N as an exact rational."""
    n = n_success + n_fail
    if n < 1:
        raise ValueError("need at least one shot")
    return Fraction(n_success - n_fail, n)


@dataclass(frozen=True)
class DepthStats:
    """Per-depth mean and standard error of the circuits' F values."""

    depth: int
    n_circuits: int
    mean: float
    stderr: float

    @classmethod
    def from_f_values(cls, depth: int, f_values) -> "DepthStats":
        fs = tuple(Fraction(f) for f in f_values)
        if not fs:
            raise ValueError("need at least one circuit per depth")
        mean = float(sum(fs) / len(fs))
        if len(fs) > 1:
            var = sum((float(f) - mean) ** 2 for f in fs) / (len(fs) - 1)
            stderr = math.sqrt(var / len(fs))
        else:
            stderr = 0.0
        return cls(depth, len(fs), mean, stderr)


@dataclass
class DecayDataset:
    """Per-circuit success counts grouped by depth (bootstrap needs counts)."""

    by_depth: dict[int, list[tuple[int, int]]] = field(default_factory=dict)

    def add(self, depth: int, n_success: int, shots: int) -> None:
        self.by_depth.setdefault(depth, []).append((n_success, shots))

    def depth_stats(self) -> list[DepthStats]:
        out = []
        for depth in sorted(self.by_depth):
            fs = [f_from_counts(ns, n - ns) for ns, n in self.by_depth[depth]]
            out.append(DepthStats.from_f_values(depth, fs))
        return out


@dataclass(frozen=True)
class FitResult:
    amplitude: float
    r_omega: float
    residual: float
    bootstrap_sigma: float | None = None
    bootstrap_samples: tuple[float, ...] = ()


# Decay exponents t = -log(1 - r) scanned first: r = 0, then log-spaced up
# to r = 1 - 1e-9.  A bounded search alone can settle on the flat r -> 1
# plateau of noisy data.
_T_GRID = np.concatenate(([0.0], np.geomspace(1e-10, -math.log(1e-9), 1000)))


def _profile(t, depths, means, weights):
    """Best amplitude A in [1e-9, 1.05] and its loss at each exponent in ``t``.

    The loss is quadratic in A, so the clipped least-squares A is the bounded
    optimum; where every (1 - r)^d underflows, the loss does not depend on A.
    """
    p = np.exp(-np.multiply.outer(t, depths))
    num = p @ (weights * means)
    den = (p * p) @ weights
    amp = np.clip(np.divide(num, den, out=np.zeros_like(num), where=den > 0.0), 1e-9, 1.05)
    return amp, ((means - amp[:, None] * p) ** 2) @ weights


def _argmin(loss, grid):
    """The point of least ``loss`` (vectorised over points) on the sorted
    ``grid``, refined on 8 nested 101-point grids: each spans the neighbours
    of the previous grid's best point, so 8 rounds narrow a bracket of a few
    percent below 1e-14 relative. The point moves only to a strictly lower
    loss, so a grid point as good as any (r = 0 exactly, say) is kept."""
    losses = loss(grid)
    i = int(np.argmin(losses))
    best, best_loss = grid[i], losses[i]
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    for _ in range(8):
        x = np.linspace(lo, hi, 101)
        losses = loss(x)
        j = int(np.argmin(losses))
        if losses[j] < best_loss:
            best, best_loss = x[j], losses[j]
        lo, hi = x[max(j - 1, 0)], x[min(j + 1, len(x) - 1)]
    return float(best)


def fit_decay(stats: list[DepthStats]) -> FitResult:
    """Weighted least-squares fit of mean-F(d) = A (1 - r)^d."""
    stats = sorted(stats, key=lambda s: s.depth)
    depths = np.array([s.depth for s in stats], dtype=float)
    means = np.array([s.mean for s in stats], dtype=float)
    if len(set(s.depth for s in stats)) < 2:
        raise FitDegenerateError("need at least two distinct depths")
    if not np.all(np.isfinite(means)) or np.all(means <= 0.0):
        raise FitDegenerateError("means do not support a decay fit")
    errs = np.array([s.stderr for s in stats], dtype=float)
    weights = 1.0 / errs**2 if np.all(errs > 0.0) else np.ones_like(means)

    best_t = _argmin(lambda t: _profile(t, depths, means, weights)[1], _T_GRID)
    (amp,), (loss,) = _profile(np.array([best_t]), depths, means, weights)
    return FitResult(amplitude=float(amp), r_omega=-math.expm1(-best_t), residual=float(loss))


def _resample(n_success, shots, groups, resamples: int, rng):
    """Bootstrap draws of circuits given by success and shot count arrays.

    Draws circuits with replacement within each group (an index array),
    then each chosen circuit's success count from a binomial at its
    empirical rate. Returns the chosen indices and their F values, each of
    shape (resamples, circuits), the groups' columns side by side in order.
    """
    idx = np.concatenate(
        [g[rng.integers(0, len(g), size=(resamples, len(g)))] for g in groups], axis=1
    )
    n = shots[idx]
    return idx, (2 * rng.binomial(n, n_success[idx] / n) - n) / n


def _depth_moments(f):
    """Per-row mean of F values and its standard error, as in ``DepthStats``."""
    k = f.shape[1]
    return f.mean(axis=1), (f.std(axis=1, ddof=1) / math.sqrt(k) if k > 1 else np.zeros(len(f)))


def bootstrap_decay(data: DecayDataset, resamples: int, seed: int) -> FitResult:
    """Fit plus bootstrap 1-sigma from circuit/shot resampling."""
    if resamples < 2:
        raise ValueError("need at least two bootstrap resamples")
    base = fit_decay(data.depth_stats())
    depths = sorted(data.by_depth)
    counts = np.array([c for d in depths for c in data.by_depth[d]], dtype=np.int64)
    sizes = [len(data.by_depth[d]) for d in depths]
    groups = np.split(np.arange(len(counts)), np.cumsum(sizes)[:-1])
    _, f = _resample(*counts.T, groups, resamples, derive_np_rng(seed, "bootstrap-decay"))
    moments = [_depth_moments(f[:, g]) for g in groups]
    samples = []
    for j in range(resamples):
        stats = [DepthStats(d, k, mean[j], se[j]) for d, k, (mean, se) in zip(depths, sizes, moments)]
        try:
            samples.append(fit_decay(stats).r_omega)
        except FitDegenerateError:
            continue
    if len(samples) < 2:
        raise FitDegenerateError("bootstrap resamples degenerate")
    arr = np.array(samples)
    sigma = float(arr.std(ddof=1))
    return FitResult(
        amplitude=base.amplitude,
        r_omega=base.r_omega,
        residual=base.residual,
        bootstrap_sigma=sigma,
        bootstrap_samples=tuple(float(v) for v in arr),
    )


# --- error rates model -------------------------------------------------------


@dataclass(frozen=True)
class ErmParams:
    """Four-parameter per-component error model.

    ``eps_spam`` is the multiplicative prefactor exactly as it appears in
    the model's prediction (a retention factor near 1), despite the name.
    """

    eps_1q: float
    eps_2q: float
    eps_mcm: float
    eps_spam: float

    def __post_init__(self) -> None:
        for v in (self.eps_1q, self.eps_2q, self.eps_mcm, self.eps_spam):
            if not 0.0 <= v <= 1.0:
                raise ValueError("ERM parameters must lie in [0, 1]")

    def __iter__(self):
        return iter((self.eps_1q, self.eps_2q, self.eps_mcm, self.eps_spam))


def erm_counts(circuit: QirbCircuit) -> tuple[int, int, int]:
    """(single-qubit gates, CNOTs, MCMs), dressing and prep/final included."""
    return circuit.oneq_gate_count(), circuit.cnot_count(), circuit.m


def erm_predict_counts(params, k1, k2, km):
    """Model prediction from operation counts, for an :class:`ErmParams` or
    the four rates in its field order; counts may be arrays.

    The per-MCM factor is the effective fidelity of a one-measurement
    subsystem at bitflip rate eps_mcm, i.e. (1 - 1.5 eps_mcm) per MCM.
    """
    e1, e2, em, spam = params
    return spam * (1.0 - e1) ** k1 * (1.0 - e2) ** k2 * (1.0 - 1.5 * em) ** km


@dataclass(frozen=True)
class ErmDatum:
    """One circuit's observation for ERM fitting."""

    k1: int
    k2: int
    km: int
    depth: int
    config_id: int
    n_success: int
    shots: int

    @property
    def f_obs(self) -> float:
        return (2 * self.n_success - self.shots) / self.shots


def _erm_loss_arrays(data: list[ErmDatum]):
    k1 = np.array([d.k1 for d in data], dtype=np.int64)
    k2 = np.array([d.k2 for d in data], dtype=np.int64)
    km = np.array([d.km for d in data], dtype=np.int64)
    f = np.array([d.f_obs for d in data], dtype=float)
    return k1, k2, km, f


# Starting (eps_1q, eps_2q, eps_mcm) of the base fit.
_ERM_STARTS = (
    (1e-3, 5e-3, 2e-2),
    (1e-4, 1e-3, 5e-3),
    (5e-3, 2e-2, 5e-2),
    (1e-2, 5e-2, 1e-1),
    (1e-3, 1e-2, 1e-2),
    (3e-4, 3e-3, 3e-2),
    (2e-3, 8e-3, 1e-2),
    (5e-4, 2e-3, 4e-2),
)


def _erm_profile(rates, k1, k2, km, f):
    """Best eps_spam for these three rates, and the residuals it leaves. The
    loss is quadratic in eps_spam, so its clipped least-squares value is the
    bounded optimum; where g is all zero, the loss does not depend on it."""
    g = erm_predict_counts((*rates, 1.0), k1, k2, km)
    gg = g @ g
    spam = min(max(float(g @ f / gg), 0.0), 1.0) if gg > 0.0 else 0.0
    return spam, spam * g - f


def _fit_erm_arrays(arrays, starts) -> tuple[ErmParams, float]:
    from scipy.optimize import least_squares

    # The gradient stop is an absolute 1e-8 on a sum over circuits, so on few
    # noiseless circuits it ends with rates 1e-12 off; the other stops remain.
    fits = [least_squares(lambda x: _erm_profile(x, *arrays)[1], s, bounds=(0.0, 1.0), gtol=None)
            for s in starts]
    rates = min(fits, key=lambda res: res.cost).x
    spam, residuals = _erm_profile(rates, *arrays)
    return ErmParams(*(float(v) for v in rates), spam), float(np.mean(residuals**2))


def fit_erm(data: list[ErmDatum]) -> tuple[ErmParams, float]:
    """Fit the four ERM parameters by mean-squared-error minimization.

    ``eps_spam`` is profiled out in closed form, and the three rates are
    fitted by bounded least squares from each of 8 spread-out starts (a
    single-config input is accepted but poorly conditioned), keeping the
    best residual.
    """
    if not data:
        raise FitDegenerateError("no circuits to fit")
    return _fit_erm_arrays(_erm_loss_arrays(data), _ERM_STARTS)


def bootstrap_erm(data: list[ErmDatum], resamples: int, seed: int):
    """Bootstrap sigma for each ERM parameter.

    Resamples circuits with replacement within every (config, depth) group,
    then redraws shot counts binomially, and re-fits. Resample fits start
    from the full-data fit's rates (the multi-start search already found them).
    """
    if resamples < 2:
        raise ValueError("need at least two ERM bootstrap resamples")
    params, residual = fit_erm(data)
    base_start = [(params.eps_1q, params.eps_2q, params.eps_mcm)]
    groups: dict[tuple[int, int], list[int]] = {}
    for i, d in enumerate(data):
        groups.setdefault((d.config_id, d.depth), []).append(i)
    counts = np.array([(d.n_success, d.shots) for d in data], dtype=np.int64)
    idx, f = _resample(*counts.T, [np.array(groups[key]) for key in sorted(groups)], resamples,
                       derive_np_rng(seed, "bootstrap-erm"))
    k1, k2, km, _ = _erm_loss_arrays(data)
    draws = []
    for c, f_row in zip(idx, f):
        p, _ = _fit_erm_arrays((k1[c], k2[c], km[c], f_row), base_start)
        draws.append(tuple(p))
    sigma = np.array(draws).std(axis=0, ddof=1)
    return params, residual, {
        "eps_1q": float(sigma[0]),
        "eps_2q": float(sigma[1]),
        "eps_mcm": float(sigma[2]),
        "eps_spam": float(sigma[3]),
    }


# --- bright-state depumping --------------------------------------------------


@dataclass(frozen=True)
class DepumpFit:
    gamma: float
    residual: float


def fit_depumping(samples) -> DepumpFit:
    """Least-squares rate for the depumping curve (2/3)(1 - exp(-3 gamma t)),
    searched from 0 up to where every positive-time sample sits at 2/3."""
    pts = [(float(t), float(p)) for t, p in samples]
    if len(pts) < 2:
        raise FitDegenerateError("need at least two samples")
    t, y = np.array(pts).T
    if not (np.isfinite(y).all() and np.isfinite(t).all() and (t >= 0).all()):
        raise ValueError("times must be finite and >= 0, values finite")
    if not np.any(t > 0):
        raise FitDegenerateError("need a sample at a positive time")

    def loss(gamma):
        pred = (2.0 / 3.0) * (1.0 - np.exp(-3.0 * np.multiply.outer(gamma, t)))
        return ((pred - y) ** 2).sum(axis=-1)

    grid = np.concatenate(([0.0], np.geomspace(1e-9 / t.max(), 100.0 / t[t > 0].min(), 1000)))
    gamma = _argmin(loss, grid)
    return DepumpFit(gamma, float(loss(gamma)))
