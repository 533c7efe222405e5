"""Analytic predictions for the benchmark's decay rate and its bounds.

The decay rate under the depolarizing/bitflip shorthand is a closed form
built from per-layer effective fidelities, with the average layer
infidelity giving its ``[3 eps/4, 3 eps/2]`` bracket; the exact oracle
gives one circuit's expected success value under product noise. The
per-error lambda summation that cross-checks the closed form, and the bound
suite behind the bracket, live in ``tests/test_theory.py``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .builder import QirbCircuit, tracked_walk
from .noise import NoiseModel
from .pauli import NO_GATE, Layer
from .sampler import SamplingConfig, sample_core_layer

__all__ = [
    "LayerCounts",
    "TheoryPrediction",
    "mcm_effective_fidelity",
    "layer_class_distribution",
    "predict_r_omega",
    "exact_success_expectation",
    "predict_fbar_curve",
]

# Seed and sample count of the density-mode Monte Carlo in predict_r_omega.
_MC_SEED = 0
_MC_SAMPLES = 20000


def mcm_effective_fidelity(km: int, eps: float) -> float:
    """Effective fidelity of a km-measurement subsystem with per-wire
    bitflip rate eps: 1 - 2 * sum_w C(km,w) eps^w (1-eps)^(km-w) p_anti(w),
    with p_anti(w) = (1 - (-1/2)^w) / 2, collapses to (1 - 3*eps/2)^km.
    """
    if km < 0:
        raise ValueError("measurement count must be >= 0")
    return (1.0 - 1.5 * eps) ** km


@dataclass(frozen=True)
class LayerCounts:
    """Operation counts of one dressed layer, dressing sublayers included."""

    k1: int
    k2: int
    km: int

    def __post_init__(self) -> None:
        if min(self.k1, self.k2, self.km) < 0:
            raise ValueError("counts must be >= 0")


@dataclass(frozen=True)
class TheoryPrediction:
    """Predicted decay rate with the average-infidelity bracket."""

    r_omega: float
    eps_omega: float
    bound_lower: float
    bound_upper: float
    method: str = "closed-form"
    mc_stderr: float | None = None


def layer_class_distribution(config: SamplingConfig) -> list[tuple[float, LayerCounts]]:
    """Exact distribution of dressed-layer counts under the at-most-one rule.

    Dressing contributes 2n single-qubit gates per dressed layer (one full
    l1 and l3 each); the core layer fills every unoccupied wire with a
    single-qubit Clifford. CNOT availability is conditioned on the sampled
    MCM wire, so restricted connectivity is handled exactly.
    """
    if config.mode != "at-most-one":
        raise ValueError("exact enumeration only covers at-most-one sampling")
    n = config.n
    edges = config.edges
    acc: dict[LayerCounts, float] = {}

    def add(prob: float, k1: int, k2: int, km: int) -> None:
        if prob <= 0.0:
            return
        key = LayerCounts(k1, k2, km)
        acc[key] = acc.get(key, 0.0) + prob

    # No MCM.
    p_base = 1.0 - config.p_mcm
    if edges:
        add(p_base * config.p_cnot, 2 * n + n - 2, 1, 0)
        add(p_base * (1.0 - config.p_cnot), 2 * n + n, 0, 0)
    else:
        add(p_base, 2 * n + n, 0, 0)
    # One MCM on wire w (uniform).
    if config.p_mcm > 0.0:
        for w in range(n):
            pw = config.p_mcm / n
            available = any(w not in e for e in edges)
            if available:
                add(pw * config.p_cnot, 2 * n + n - 3, 1, 1)
                add(pw * (1.0 - config.p_cnot), 2 * n + n - 1, 0, 1)
            else:
                add(pw, 2 * n + n - 1, 0, 1)
    ordered = sorted(acc.items(), key=lambda kv: (kv[0].km, kv[0].k2, kv[0].k1))
    return [(prob, counts) for counts, prob in ordered]


def _layer_factor(noise: NoiseModel, counts: LayerCounts, n: int, for_rate: bool) -> float:
    """Per-layer retained-coherence factor (for_rate) or no-error probability."""
    f1 = 1.0 - noise.oneq_total
    f2 = 1.0 - noise.twoq_total
    out = f1 ** counts.k1 * f2 ** counts.k2
    if counts.km:
        if for_rate:
            out *= (
                mcm_effective_fidelity(counts.km, noise.pre_flip)
                * mcm_effective_fidelity(counts.km, noise.post_flip)
                * (1.0 - noise.unmeasured_depol) ** (n - counts.km)
            )
        else:
            out *= (
                ((1.0 - noise.pre_flip) * (1.0 - noise.post_flip)) ** counts.km
                * (1.0 - noise.unmeasured_depol) ** (n - counts.km)
            )
    return out


def counts_from_layer(layer: Layer, n: int) -> LayerCounts:
    """Dressed-layer counts induced by one core layer (dressing included)."""
    row, cnots, mcms = layer
    return LayerCounts(k1=2 * n + len(row) - row.count(NO_GATE), k2=len(cnots), km=len(mcms))


def predict_r_omega(noise: NoiseModel, config: SamplingConfig) -> TheoryPrediction:
    """Predict the decay rate and its infidelity bracket for a noise model.

    At-most-one sampling is enumerated exactly; density mode falls back to
    Monte Carlo over sampled layers with a reported statistical error.
    """
    if config.mode == "at-most-one":
        classes = layer_class_distribution(config)
        r = 1.0 - sum(p * _layer_factor(noise, c, config.n, True) for p, c in classes)
        eps = 1.0 - sum(p * _layer_factor(noise, c, config.n, False) for p, c in classes)
        method = "closed-form"
        stderr = None
    else:
        rng = random.Random(_MC_SEED)
        rates = []
        fids = []
        for _ in range(_MC_SAMPLES):
            layer = sample_core_layer(config, rng)
            counts = counts_from_layer(layer, config.n)
            rates.append(1.0 - _layer_factor(noise, counts, config.n, True))
            fids.append(1.0 - _layer_factor(noise, counts, config.n, False))
        r = sum(rates) / len(rates)
        eps = sum(fids) / len(fids)
        var = sum((v - r) ** 2 for v in rates) / max(1, len(rates) - 1)
        stderr = math.sqrt(var / len(rates))
        method = "monte-carlo"
    return TheoryPrediction(
        r_omega=r,
        eps_omega=eps,
        bound_lower=0.75 * eps,
        bound_upper=1.5 * eps,
        method=method,
        mc_stderr=stderr,
    )


_ANTI_PROB_1Q = {
    0: lambda noise: 0.0,
    1: lambda noise: noise.py + noise.pz,  # X component: Y and Z errors anticommute
    2: lambda noise: noise.px + noise.py,  # Z component
    3: lambda noise: noise.px + noise.pz,  # Y component
}


def exact_success_expectation(circuit: QirbCircuit, noise: NoiseModel) -> float:
    """Exact expected success value of one circuit under product noise.

    Walks the tracked Paulis; each independent error location flips the
    classification with a probability q determined by whether its sampled
    errors anticommute with the tracked Pauli there, giving the product of
    (1 - 2q) over locations. A gate's error meets the tracked Pauli as it
    leaves the gate's layer.
    """
    walk = tracked_walk(circuit)
    prod = 1.0
    for i, (row, cnots, measured) in enumerate(circuit.layers):
        x, z, _ = walk.after[i]
        support = x | z
        for c, t in cnots:
            if (support >> c) & 1 or (support >> t) & 1:
                prod *= 1.0 - 2.0 * (8.0 * noise.twoq_each)
        for q, g in enumerate(row):
            if g != NO_GATE:
                prod *= 1.0 - 2.0 * _ANTI_PROB_1Q[((x >> q) & 1) | (((z >> q) & 1) << 1)](noise)
        if measured:
            for q in measured:
                # l1 left I or Z on q, the letter the MCM measures, and the
                # measurement leaves Z on q iff the tracked Pauli picks it up.
                if (walk.after[i - 1][1] >> q) & 1:
                    prod *= 1.0 - 2.0 * noise.pre_flip
                if (z >> q) & 1:
                    prod *= 1.0 - 2.0 * noise.post_flip
            if noise.unmeasured_depol > 0.0:
                mset = set(measured)
                for w in range(circuit.n):
                    if w not in mset and (support >> w) & 1:
                        prod *= 1.0 - 2.0 * (2.0 / 3.0) * noise.unmeasured_depol
    for q in range(circuit.n):
        if (walk.after[-1][1] >> q) & 1:
            prod *= 1.0 - 2.0 * noise.readout_flip
    return prod


def predict_fbar_curve(amplitude: float, p_trans: float, depths) -> list[float]:
    """Depth-averaged success curve amplitude * (1 - 2 p_trans)^d."""
    if not 0.0 <= p_trans <= 0.5 + 1e-12:
        raise ValueError("transition probability must lie in [0, 1/2]")
    return [amplitude * (1.0 - 2.0 * p_trans) ** d for d in depths]
