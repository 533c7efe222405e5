import math
import random

import pytest

from qirb import theory
from qirb.sampler import SamplingConfig
from qirb.simulator import NoiseModel
from qirb.theory import (
    InstrumentError,
    LayerCounts,
    bound_terms_extrema,
    exact_success_expectation,
    instrument_rates,
    lambda_contribution,
    layer_class_distribution,
    mcm_effective_fidelity,
    p_anti,
    p_anti_literal,
    predict_fbar_curve,
    predict_r_omega,
    r_omega_via_lambda_sum,
    transition_term,
)

from test_builder import build_random
from test_pauli import sp

METHODS_NOISE = NoiseModel.depolarizing(0.999, 0.995, 0.02)


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
        err = InstrumentError(0, sp("X"), 0)
        assert lambda_contribution(err, 0.01) == 0.01

    def test_trivial_pauli_weight_one_mask(self):
        err = InstrumentError(1, None, 0)
        assert math.isclose(lambda_contribution(err, 0.01), 0.015)

    def test_no_error_contributes_nothing(self):
        assert lambda_contribution(InstrumentError(0, None, 0), 0.3) == 0.0


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
        a = (1 << wa) - 1
        b = (1 << wb) - 1
        p = sp("X") if nontrivial else None
        terms.append((InstrumentError(a, p, b), prob))
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


def test_lambda_sum_rejects_multi_mcm_classes(monkeypatch):
    monkeypatch.setattr(theory, "layer_class_distribution",
                        lambda config: [(1.0, LayerCounts(4, 0, 2))])
    cfg = SamplingConfig(n=3, p_cnot=0.3, p_mcm=0.3)
    with pytest.raises(RuntimeError, match="at most 1"):
        r_omega_via_lambda_sum(NoiseModel.depolarizing(), cfg)
