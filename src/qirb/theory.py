"""Analytic predictions for the benchmark's decay rate and its bounds.

Two independent computation paths are provided for the decay rate under the
depolarizing/bitflip shorthand: a closed form built from per-layer effective
fidelities, and a summation of per-error contributions (the table of
lambda terms). They agree to floating-point accuracy and are cross-checked
in the test suite. General uniform-stochastic instrument models are handled
through the lambda summation, which only needs each error's probability,
whether its unmeasured-wire Pauli is trivial, and the Hamming weights of its
pre/post bitflip masks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .builder import QirbCircuit, tracked_walk
from .pauli import SignedPauli
from .sampler import SamplingConfig, sample_core_layer
from .simulator import NoiseModel

__all__ = [
    "LayerCounts",
    "TheoryPrediction",
    "InstrumentError",
    "p_anti",
    "p_anti_literal",
    "mcm_effective_fidelity",
    "lambda_contribution",
    "transition_term",
    "bound_terms_extrema",
    "layer_class_distribution",
    "predict_r_omega",
    "r_omega_via_lambda_sum",
    "instrument_rates",
    "exact_success_expectation",
    "predict_fbar_curve",
]

# Seed and sample count of the density-mode Monte Carlo in predict_r_omega.
_MC_SEED = 0
_MC_SAMPLES = 20000
# Largest weight that bound_terms_extrema scans; the transition term is
# monotone toward 1/2 beyond small weights, so this is ample.
_WEIGHT_CAP = 32


def p_anti(w: int) -> float:
    """Probability that a weight-w X mask anticommutes with a random Z-type
    Pauli whose entries are Z with probability 3/4.

    Closed form of the odd-term binomial sum; approaches 1/2 like (1/2)^(w+1).
    """
    if w < 0:
        raise ValueError("weight must be >= 0")
    return 0.5 * (1.0 - (-0.5) ** w)


def p_anti_literal(w: int) -> float:
    """The defining sum over odd overlap counts (validation path)."""
    total = 0.0
    for i in range(1, w + 1, 2):
        total += math.comb(w, i) * (3.0 / 4.0) ** i * (1.0 / 4.0) ** (w - i)
    return total


def mcm_effective_fidelity(km: int, eps: float) -> float:
    """Effective fidelity of a km-measurement subsystem with per-wire
    bitflip rate eps: 1 - 2 * sum_w C(km,w) eps^w (1-eps)^(km-w) p_anti(w),
    which collapses to (1 - 3*eps/2)^km.
    """
    if km < 0:
        raise ValueError("measurement count must be >= 0")
    return (1.0 - 1.5 * eps) ** km


def transition_term(wa: int, wb: int) -> float:
    """p_anti(wa) + p_anti(wb) - 2 p_anti(wa) p_anti(wb)."""
    pa, pb = p_anti(wa), p_anti(wb)
    return pa + pb - 2.0 * pa * pb


@dataclass(frozen=True)
class InstrumentError:
    """One (a, P, b) error of a uniform stochastic instrument.

    ``a``/``b`` are bitflip masks over the measured wires; ``p`` is the
    Pauli on the unmeasured wires (None or an identity Pauli mean trivial).
    """

    a: int
    p: SignedPauli | None
    b: int

    @property
    def p_nontrivial(self) -> bool:
        return self.p is not None and (self.p.x | self.p.z) != 0

    @property
    def is_no_error(self) -> bool:
        return self.a == 0 and self.b == 0 and not self.p_nontrivial


def lambda_contribution(error: InstrumentError, prob: float) -> float:
    """The error's contribution to the decay rate.

    A nontrivial unmeasured-wire Pauli contributes its full probability;
    otherwise the contribution is 2 [p_anti(|a|) + p_anti(|b|)
    - 2 p_anti(|a|) p_anti(|b|)] times the probability.
    """
    if not 0.0 <= prob <= 1.0:
        raise ValueError("probability must lie in [0, 1]")
    if error.p_nontrivial:
        return prob
    return 2.0 * transition_term(error.a.bit_count(), error.b.bit_count()) * prob


def instrument_rates(terms: list[tuple[InstrumentError, float]]) -> tuple[float, float]:
    """(decay-rate, infidelity) of one layer's instrument error distribution.

    ``terms`` lists every error tuple with its probability; the no-error
    tuple may be omitted (it contributes to neither quantity).
    """
    r = 0.0
    eps = 0.0
    for err, prob in terms:
        if err.is_no_error:
            continue
        r += lambda_contribution(err, prob)
        eps += prob
    return r, eps


def bound_terms_extrema() -> tuple[float, float, tuple[int, int], tuple[int, int]]:
    """Brute-force extrema of the transition term over weight pairs.

    Scans all (|a|, |b|) up to ``_WEIGHT_CAP``, excluding (0, 0).
    Returns (minimum, maximum, argmin weights, argmax weights).
    """
    best_min = math.inf
    best_max = -math.inf
    argmin = argmax = (0, 0)
    for wa in range(_WEIGHT_CAP + 1):
        for wb in range(_WEIGHT_CAP + 1):
            if wa == 0 and wb == 0:
                continue
            val = transition_term(wa, wb)
            if val < best_min:
                best_min, argmin = val, (wa, wb)
            if val > best_max:
                best_max, argmax = val, (wa, wb)
    return best_min, best_max, argmin, argmax


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
    p_trans: float
    method: str = "closed-form"
    mc_stderr: float | None = None

    def fbar_curve(self, amplitude: float, depths) -> list[float]:
        return predict_fbar_curve(amplitude, self.p_trans, depths)


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


def counts_from_layer(layer, n: int) -> LayerCounts:
    """Dressed-layer counts induced by one core layer (dressing included)."""
    return LayerCounts(
        k1=2 * n + layer.oneq_gate_count(),
        k2=layer.cnot_count(),
        km=len(layer.mcm_wires),
    )


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
        p_trans=r / 2.0,
        method=method,
        mc_stderr=stderr,
    )


def r_omega_via_lambda_sum(noise: NoiseModel, config: SamplingConfig) -> float:
    """Decay rate by summing per-error lambda terms over the layer classes.

    The shorthand model factorizes each dressed layer into independent
    events (gate/unmeasured errors as the nontrivial-Pauli bucket, per-wire
    pre and post measurement flips); the summation runs over their joint
    tuples. Agrees with :func:`predict_r_omega` to floating-point accuracy.
    """
    classes = layer_class_distribution(config)
    f1 = 1.0 - noise.oneq_total
    f2 = 1.0 - noise.twoq_total
    total = 0.0
    dummy_p = SignedPauli(1, 1, 0, 1)
    for p_class, counts in classes:
        pg = 1.0 - f1 ** counts.k1 * f2 ** counts.k2
        if counts.km:
            pg = 1.0 - (1.0 - pg) * (1.0 - noise.unmeasured_depol) ** (config.n - counts.km)
        # Joint tuples over per-wire independent flips; at-most-one sampling
        # keeps km <= 1 so the masks are single bits.
        if counts.km > 1:
            raise RuntimeError(f"layer class measures {counts.km} wires, at most 1 expected")
        contrib = 0.0
        for a in range(counts.km + 1):
            pa = noise.pre_flip if a else 1.0 - noise.pre_flip
            if counts.km == 0:
                pa = 1.0
            for b in range(counts.km + 1):
                pb = noise.post_flip if b else 1.0 - noise.post_flip
                if counts.km == 0:
                    pb = 1.0
                for nontrivial in (False, True):
                    pp = pg if nontrivial else 1.0 - pg
                    prob = pa * pb * pp
                    err = InstrumentError(a, dummy_p if nontrivial else None, b)
                    if err.is_no_error:
                        continue
                    contrib += lambda_contribution(err, prob)
        total += p_class * contrib
    return total


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
    (1 - 2q) over locations.
    """
    walk = tracked_walk(circuit)
    prod = 1.0

    def oneq_factor(state, wire: int) -> float:
        x, z, _ = state
        return 1.0 - 2.0 * _ANTI_PROB_1Q[((x >> wire) & 1) | (((z >> wire) & 1) << 1)](noise)

    for g in circuit.prep_layer.gates:
        prod *= oneq_factor(walk.initial, g.wires[0])
    for i, d in enumerate(circuit.dressed):
        s1 = walk.after_l1[i]
        for g in d.l1.gates:
            prod *= oneq_factor(s1, g.wires[0])
        s2 = walk.after_l2[i]
        support = s2[0] | s2[1]
        for g in d.l2.gates:
            if g.is_cnot:
                c, t = g.wires
                if (support >> c) & 1 or (support >> t) & 1:
                    prod *= 1.0 - 2.0 * (8.0 * noise.twoq_each)
            else:
                prod *= oneq_factor(s2, g.wires[0])
        measured = d.l2.mcm_wires
        if measured:
            for q in measured:
                # l1 left I or Z on q, the letter the MCM measures.
                if (s1[1] >> q) & 1:
                    prod *= 1.0 - 2.0 * noise.pre_flip
                if (d.fresh >> q) & 1:
                    prod *= 1.0 - 2.0 * noise.post_flip
            if noise.unmeasured_depol > 0.0:
                mset = set(measured)
                for w in range(circuit.n):
                    if w not in mset and (support >> w) & 1:
                        prod *= 1.0 - 2.0 * (2.0 / 3.0) * noise.unmeasured_depol
        s3 = walk.after_l3[i]
        for g in d.l3.gates:
            prod *= oneq_factor(s3, g.wires[0])
    for g in circuit.final_layer.gates:
        prod *= oneq_factor(walk.final, g.wires[0])
    for q in range(circuit.n):
        if (walk.final[1] >> q) & 1:
            prod *= 1.0 - 2.0 * noise.readout_flip
    return prod


def predict_fbar_curve(amplitude: float, p_trans: float, depths) -> list[float]:
    """Depth-averaged success curve amplitude * (1 - 2 p_trans)^d."""
    if not 0.0 <= p_trans <= 0.5 + 1e-12:
        raise ValueError("transition probability must lie in [0, 1/2]")
    return [amplitude * (1.0 - 2.0 * p_trans) ** d for d in depths]
