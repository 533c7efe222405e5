import itertools
import math
import random

import pytest

from qirb import theory
from qirb.sampler import SamplingConfig
from qirb.simulator import NoiseModel
from qirb.theory import (
    LayerCounts,
    exact_success_expectation,
    layer_class_distribution,
    mcm_effective_fidelity,
    predict_fbar_curve,
    predict_r_omega,
)

from test_builder import build_random

METHODS_NOISE = NoiseModel.depolarizing(0.999, 0.995, 0.02)


# The instrument theory behind the paper's 3 eps/4 <= r <= 3 eps/2 bracket.
# An error of a uniform stochastic instrument is the tuple (pre weight, post
# weight, P nontrivial, prob): the Hamming weights of its bitflip masks on
# the measured wires, whether its Pauli on the unmeasured wires is
# nontrivial, and its probability.


def p_anti(w):
    """Probability that a weight-w X mask anticommutes with a random Z-type
    Pauli whose entries are Z with probability 3/4 (closed form)."""
    return 0.5 * (1.0 - (-0.5) ** w)


def p_anti_literal(w):
    """The defining sum over odd overlap counts."""
    return sum(math.comb(w, i) * 0.75**i * 0.25 ** (w - i) for i in range(1, w + 1, 2))


def transition_term(wa, wb):
    pa, pb = p_anti(wa), p_anti(wb)
    return pa + pb - 2.0 * pa * pb


def lambda_contribution(wa, wb, nontrivial, prob):
    """One error's contribution to the decay rate: its full probability if
    its unmeasured-wire Pauli is nontrivial, else 2 transition_term times it."""
    return prob if nontrivial else 2.0 * transition_term(wa, wb) * prob


def instrument_rates(errors):
    """(decay rate, infidelity) of one layer's error tuples, which leave out
    the no-error tuple: its probability is no infidelity."""
    return sum(lambda_contribution(*e) for e in errors), sum(e[3] for e in errors)


def bound_terms_extrema():
    """(min, max, argmin, argmax) of the transition term over the weight
    pairs up to 32, (0, 0) excluded; it nears 1/2 fast beyond small weights."""
    pairs = [w for w in itertools.product(range(33), repeat=2) if w != (0, 0)]
    lo = min(pairs, key=lambda w: transition_term(*w))
    hi = max(pairs, key=lambda w: transition_term(*w))
    return transition_term(*lo), transition_term(*hi), lo, hi


def mask_weights(km, eps):
    """(weight, probability) pairs of a flip mask over km wires that each
    flip independently with probability eps."""
    return [(w, math.comb(km, w) * eps**w * (1.0 - eps) ** (km - w)) for w in range(km + 1)]


def r_omega_via_lambda_sum(noise, config):
    """The decay rate summed from per-error lambda terms over the layer
    classes. Gate and unmeasured-wire errors form the nontrivial-Pauli
    bucket; each measured wire flips before and after independently."""
    total = 0.0
    for p_class, c in theory.layer_class_distribution(config):
        keep = (1.0 - noise.oneq_total) ** c.k1 * (1.0 - noise.twoq_total) ** c.k2
        if c.km:
            keep *= (1.0 - noise.unmeasured_depol) ** (config.n - c.km)
        pre, post = mask_weights(c.km, noise.pre_flip), mask_weights(c.km, noise.post_flip)
        for (wa, pa), (wb, pb), nontrivial in itertools.product(pre, post, (False, True)):
            prob = pa * pb * (1.0 - keep if nontrivial else keep)
            total += p_class * lambda_contribution(wa, wb, nontrivial, prob)
    return total


class TestPAnti:
    def test_empty_mask(self):
        assert p_anti(0) == 0.0

    def test_weight_one_exact(self):
        assert p_anti(1) == 0.75
        assert p_anti_literal(1) == 0.75

    def test_weight_two_exact(self):
        assert p_anti(2) == 0.375
        assert p_anti_literal(2) == 0.375

    def test_closed_form_matches_literal_sum(self):
        for w in range(21):
            assert abs(p_anti(w) - p_anti_literal(w)) <= 1e-12

    def test_envelope_approaches_half(self):
        for w in range(21):
            assert math.isclose(abs(p_anti(w) - 0.5), 0.5 ** (w + 1), rel_tol=1e-12)


class TestLambdaContribution:
    def test_nontrivial_pauli_contributes_full_probability(self):
        assert lambda_contribution(0, 0, True, 0.01) == 0.01

    def test_trivial_pauli_weight_one_mask(self):
        assert math.isclose(lambda_contribution(1, 0, False, 0.01), 0.015)

    def test_no_error_contributes_nothing(self):
        assert lambda_contribution(0, 0, False, 0.3) == 0.0


class TestBoundExtrema:
    def test_extreme_values_are_exact(self):
        lo, hi, argmin, argmax = bound_terms_extrema()
        assert lo == 0.375 and hi == 0.75
        # Witnesses from direct evaluation: the minimum needs both masks
        # active (or one of weight two), the maximum a single weight-1 mask.
        assert transition_term(*argmin) == lo
        assert transition_term(*argmax) == hi
        assert argmax in ((1, 0), (0, 1))
        assert argmin in ((1, 1), (2, 0), (0, 2))

    def test_large_weights_approach_one_half(self):
        assert abs(transition_term(20, 20) - 0.5) < 1e-5


class TestLayerClasses:
    def test_distribution_sums_to_one(self):
        for n in (1, 2, 3, 6):
            classes = layer_class_distribution(SamplingConfig(n=n, p_cnot=0.35, p_mcm=0.2))
            assert math.isclose(sum(p for p, _ in classes), 1.0)

    def test_two_wires_exclude_cnot_alongside_mcm(self):
        classes = layer_class_distribution(SamplingConfig(n=2, p_cnot=0.35, p_mcm=0.2))
        assert all(c.k2 == 0 for p, c in classes if c.km == 1)

    def test_connectivity_changes_availability(self):
        # On a path graph 0-1-2, an MCM on wire 1 blocks every edge.
        cfg = SamplingConfig(n=3, p_cnot=1.0, p_mcm=1.0, connectivity=((0, 1), (1, 2)))
        classes = dict()
        for p, c in layer_class_distribution(cfg):
            classes[(c.k2, c.km)] = classes.get((c.k2, c.km), 0.0) + p
        assert math.isclose(classes[(1, 1)], 2.0 / 3.0)
        assert math.isclose(classes[(0, 1)], 1.0 / 3.0)


class TestPredictROmega:
    def test_zero_noise(self):
        pred = predict_r_omega(NoiseModel.zero(), SamplingConfig(n=2, p_cnot=0.35, p_mcm=0.2))
        assert pred.r_omega == 0.0 and pred.eps_omega == 0.0

    def test_single_cnot_class_transition(self):
        # A pure two-qubit-gate layer class: p_trans = (1 - F2Q)/2.
        noise = NoiseModel(twoq_each=(1.0 - 0.995) / 15.0)
        pred = predict_r_omega(noise, SamplingConfig(n=2, p_cnot=1.0, p_mcm=0.0))
        assert math.isclose(pred.r_omega, 0.005)
        assert math.isclose(pred.r_omega / 2.0, 0.0025)

    def test_methods_model_closed_form_frozen_value(self):
        # Independent enumeration for n=2, p_cnot=0.35, p_mcm=0.1:
        # no MCM, no CNOT (p=0.9*0.65): 6 single-qubit gates;
        # no MCM, CNOT   (p=0.9*0.35): 4 gates + 1 CNOT;
        # MCM            (p=0.1):      5 gates + 1 MCM (no free edge).
        f1, f2, fm = 0.999, 0.995, 1.0 - 1.5 * 0.02
        expected = 1.0 - (
            0.9 * 0.65 * f1**6 + 0.9 * 0.35 * f1**4 * f2 + 0.1 * f1**5 * fm
        )
        pred = predict_r_omega(METHODS_NOISE, SamplingConfig(n=2, p_cnot=0.35, p_mcm=0.1))
        assert math.isclose(pred.r_omega, expected, rel_tol=1e-12)

    def test_mcm_effective_fidelity_matches_literal_average(self):
        for km in range(5):
            for eps in (0.0, 0.02, 0.3):
                literal = 1.0 - 2.0 * sum(
                    math.comb(km, w) * eps**w * (1 - eps) ** (km - w) * p_anti_literal(w)
                    for w in range(km + 1)
                )
                assert math.isclose(mcm_effective_fidelity(km, eps), literal, abs_tol=1e-12)

    def test_lambda_sum_agrees_with_closed_form(self):
        rng = random.Random(1)
        for _ in range(25):
            noise = NoiseModel.depolarizing(
                f1q=1 - rng.random() * 0.01,
                f2q=1 - rng.random() * 0.05,
                mcm_flip=rng.random() * 0.2,
                mcm_post_flip=rng.random() * 0.2,
                mcm_unmeasured_depol=rng.random() * 0.05,
            )
            cfg = SamplingConfig(
                n=rng.randrange(1, 7), p_cnot=rng.random(), p_mcm=rng.random()
            )
            assert abs(predict_r_omega(noise, cfg).r_omega - r_omega_via_lambda_sum(noise, cfg)) < 1e-12

    def test_density_mode_uses_monte_carlo(self):
        cfg = SamplingConfig(n=3, p_cnot=0.3, p_mcm=0.3, mode="density")
        pred = predict_r_omega(METHODS_NOISE, cfg)
        assert pred.method == "monte-carlo"
        assert pred.mc_stderr is not None
        exact_like = predict_r_omega(
            METHODS_NOISE, SamplingConfig(n=3, p_cnot=0.3, p_mcm=0.3)
        )
        # Density layers differ from at-most-one, but not wildly.
        assert abs(pred.r_omega - exact_like.r_omega) < 0.02

    def test_prediction_stays_within_its_own_bracket(self):
        rng = random.Random(2)
        for _ in range(60):
            noise = NoiseModel.depolarizing(
                f1q=1 - rng.random() * 0.005,
                f2q=1 - rng.random() * 0.02,
                mcm_flip=rng.random() * 0.3,
                mcm_post_flip=rng.random() * 0.3,
            )
            cfg = SamplingConfig(n=rng.randrange(1, 7), p_cnot=rng.random(), p_mcm=rng.random())
            pred = predict_r_omega(noise, cfg)
            assert pred.bound_lower - 1e-12 <= pred.r_omega <= pred.bound_upper + 1e-12


def random_instrument_terms(rng, max_terms=8, weight_cap=8, min_weight=0):
    terms = []
    budget = rng.random() * 0.9
    remaining = budget
    for _ in range(rng.randrange(1, max_terms)):
        prob = remaining * rng.random()
        remaining -= prob
        nontrivial = rng.random() < 0.4
        if min_weight and not nontrivial:
            wa = 0 if rng.random() < 0.3 else rng.randrange(min_weight, weight_cap)
            wb = 0 if (wa and rng.random() < 0.3) else rng.randrange(min_weight, weight_cap)
        else:
            wa = rng.randrange(0, weight_cap)
            wb = rng.randrange(0, weight_cap)
        if not nontrivial and wa == 0 and wb == 0:
            nontrivial = True
        terms.append((wa, wb, nontrivial, prob))
    return terms


class TestInstrumentBounds:
    def test_rate_bracketed_by_infidelity(self):
        rng = random.Random(7)
        for _ in range(1000):
            terms = random_instrument_terms(rng)
            r, eps = instrument_rates(terms)
            assert 0.75 * eps - 1e-12 <= r <= 1.5 * eps + 1e-12

    def test_near_equality_for_heavy_masks(self):
        rng = random.Random(8)
        for _ in range(300):
            terms = random_instrument_terms(rng, weight_cap=10, min_weight=3)
            r, eps = instrument_rates(terms)
            if eps > 1e-9:
                assert abs(r - eps) / eps < 0.15


class TestExactExpectation:
    def test_zero_noise_gives_unity(self):
        c = build_random(3, 4, seed=0)
        assert exact_success_expectation(c, NoiseModel.zero()) == 1.0

    def test_single_location_value(self):
        # Only the final readout on a one-wire depth-0 circuit can err.
        noise = NoiseModel(readout_flip=0.1)
        for seed in range(20):
            c = build_random(1, 0, seed=seed)
            expected = 0.8 if c.target.letters() == "Z" else 1.0
            assert math.isclose(exact_success_expectation(c, noise), expected)

    def test_ensemble_average_matches_markov_chain(self):
        # Averaging exact per-circuit expectations over sampled circuits
        # reproduces A (1 - 2 p_trans)^d within sampling error.
        depth = 6
        cfg_kwargs = dict(p_mcm=0.4, p_cnot=0.35)
        pred = predict_r_omega(METHODS_NOISE, SamplingConfig(n=2, **cfg_kwargs))
        values = []
        for seed in range(400):
            c = build_random(2, depth, seed=seed, **cfg_kwargs)
            values.append(exact_success_expectation(c, METHODS_NOISE))
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        sem = math.sqrt(var / len(values))
        # Amplitude: prep (2 gates) + final (2 gates) + 2 readout flips,
        # each averaged over the 3/4 chance of a non-identity component.
        amplitude = 0.999**4 * (1 - 1.5 * 0.02) ** 2
        target = amplitude * (1 - 2 * pred.r_omega / 2) ** depth
        assert abs(mean - target) < max(5 * sem, 0.01)

    def test_predict_fbar_curve_shapes(self):
        assert predict_fbar_curve(0.7, 0.0, [0, 3, 9]) == [0.7, 0.7, 0.7]
        assert predict_fbar_curve(1.0, 0.25, [1]) == [0.5]
        assert predict_fbar_curve(1.0, 0.5, [1, 5, 9]) == [0.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            predict_fbar_curve(1.0, 0.7, [1])


def test_lambda_sum_agrees_with_closed_form_on_multi_mcm_classes(monkeypatch):
    # Density-mode layers can measure several wires; the closed form's
    # (1 - 3 eps/2)^km must match the binomial sum over flip-mask weights.
    monkeypatch.setattr(theory, "layer_class_distribution",
                        lambda config: [(0.5, LayerCounts(4, 1, 2)), (0.5, LayerCounts(2, 0, 3))])
    noise = NoiseModel.depolarizing(mcm_flip=0.05, mcm_post_flip=0.08, mcm_unmeasured_depol=0.01)
    cfg = SamplingConfig(n=4, p_cnot=0.3, p_mcm=0.3)
    assert abs(predict_r_omega(noise, cfg).r_omega - r_omega_via_lambda_sum(noise, cfg)) < 1e-12
