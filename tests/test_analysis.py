import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qirb.analysis import (
    DecayDataset,
    DepthStats,
    ErmDatum,
    ErmParams,
    FitDegenerateError,
    _depth_moments,
    _erm_loss_arrays,
    _fit_erm_arrays,
    _resample,
    bootstrap_decay,
    erm_counts,
    erm_predict_counts,
    f_from_counts,
    fit_decay,
    fit_depumping,
    fit_erm,
)

from test_builder import build_random


class TestFFromCounts:
    def test_all_successes(self):
        assert f_from_counts(100, 0) == 1

    def test_even_split(self):
        assert f_from_counts(50, 50) == 0

    def test_three_quarters(self):
        f = f_from_counts(75, 25)
        assert f == Fraction(1, 2) and isinstance(f, Fraction)


def synthetic_stats(a, r, depths, k=1):
    return [DepthStats.from_f_values(d, [a * (1 - r) ** d] * k) for d in depths]


class TestFitDecay:
    def test_noiseless_recovery(self):
        fit = fit_decay(synthetic_stats(0.9, 0.02, (0, 1, 4, 32, 128)))
        assert abs(fit.amplitude - 0.9) < 1e-9
        assert abs(fit.r_omega - 0.02) < 1e-9

    def test_constant_unity(self):
        fit = fit_decay(synthetic_stats(1.0, 0.0, (0, 1, 4, 32, 128), k=3))
        assert fit.amplitude == 1.0 and fit.r_omega == 0.0

    def test_scale_consistency(self):
        # A depth-independent prefactor moves A and leaves r alone.
        base = fit_decay(synthetic_stats(1.0, 0.013, (0, 1, 4, 32, 128)))
        for c in (0.9, 0.5, 0.25):
            fit = fit_decay(synthetic_stats(c, 0.013, (0, 1, 4, 32, 128)))
            assert abs(fit.amplitude - c * base.amplitude) < 1e-7
            assert abs(fit.r_omega - base.r_omega) < 1e-7

    def test_single_depth_degenerate(self):
        with pytest.raises(FitDegenerateError):
            fit_decay(synthetic_stats(0.9, 0.01, (4,)))

    def test_nonpositive_means_degenerate(self):
        stats = [DepthStats.from_f_values(d, [-0.1]) for d in (0, 1, 4)]
        with pytest.raises(FitDegenerateError):
            fit_decay(stats)

    # The parent 2-D simplex stopped above the optimum on these two
    # (losses 3.54 and 235 against 0.156 and 12.8).
    HARD = (
        {1: [95, 97], 4: [88, 84], 16: [61, 64], 32: [58, 44]},
        {1: [89, 86], 4: [50, 56], 16: [44, 59], 32: [52, 56]},
    )

    @staticmethod
    def _random_dataset(rng):
        all_depths = [0] + [2**k for k in range(10)]
        depths = rng.choice(all_depths, size=rng.integers(2, len(all_depths) + 1), replace=False)
        r = math.exp(rng.uniform(math.log(1e-4), math.log(0.5)))
        a = rng.uniform(0.5, 1.0)
        shots = int(rng.choice([10, 100, 1000]))
        data = DecayDataset()
        for d in sorted(int(d) for d in depths):
            for _ in range(rng.integers(1, 16)):
                data.add(d, int(rng.binomial(shots, (1 + a * (1 - r) ** d) / 2)), shots)
        return data

    def test_fit_is_global_over_a_dense_grid(self):
        # Profile out A in closed form at 12,000 values of r, independently
        # of the module, and require the fit to be at least as good.
        r = np.unique(np.concatenate([
            np.linspace(0.0, 1.0 - 1e-9, 6000), np.geomspace(1e-9, 1.0 - 1e-9, 6000),
        ]))

        def loss(stats, amp, rate):
            d = np.array([s.depth for s in stats], dtype=float)
            m = np.array([s.mean for s in stats])
            e = np.array([s.stderr for s in stats])
            w = 1.0 / e**2 if np.all(e > 0) else np.ones_like(m)
            b = np.power.outer(1.0 - np.atleast_1d(rate), d)
            if amp is None:
                den = (b * b) @ w
                amp = np.clip(np.divide(b @ (w * m), den, out=np.zeros_like(den),
                                        where=den > 0), 1e-9, 1.05)
            return ((m - np.atleast_1d(amp)[:, None] * b) ** 2) @ w, float(w @ m**2)

        datasets = []
        for counts in self.HARD:
            data = DecayDataset()
            for d, successes in counts.items():
                for ns in successes:
                    data.add(d, ns, 100)
            datasets.append(data)
        rng = np.random.default_rng(2024)
        datasets += [self._random_dataset(rng) for _ in range(400)]
        fitted = 0
        for data in datasets:
            stats = data.depth_stats()
            try:
                fit = fit_decay(stats)
            except FitDegenerateError:
                continue
            fitted += 1
            (got,), scale = loss(stats, fit.amplitude, fit.r_omega)
            best = loss(stats, None, r)[0].min()
            assert got <= best * (1 + 1e-9) + 1e-12 * scale, (dict(data.by_depth), fit)
        assert fitted > 350

    def test_weighted_fit_uses_stderr(self):
        # A wildly off point with a huge error bar barely moves the fit.
        good = synthetic_stats(1.0, 0.02, (0, 1, 4, 32), k=5)
        bad = DepthStats(depth=128, n_circuits=5, mean=0.5, stderr=10.0)
        tight = [
            DepthStats(s.depth, s.n_circuits, s.mean, 1e-4) for s in good
        ]
        fit = fit_decay(tight + [bad])
        assert abs(fit.r_omega - 0.02) < 1e-3


class TestBootstrap:
    def _dataset(self, rng, shots=100, r=0.02, circuits=10, depths=(0, 1, 4, 32)):
        data = DecayDataset()
        for d in depths:
            for _ in range(circuits):
                p = (1 + (1 - r) ** d) / 2
                data.add(d, rng.binomial(shots, p), shots)
        return data

    def test_zero_variance_input_gives_tiny_sigma(self):
        data = DecayDataset()
        for d in (0, 1, 4, 32):
            for _ in range(8):
                data.add(d, 10**9, 10**9)  # effectively infinite shots, F = 1
        fit = bootstrap_decay(data, 30, seed=1)
        assert fit.bootstrap_sigma < 1e-4

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        data = self._dataset(rng)
        a = bootstrap_decay(data, 25, seed=9)
        b = bootstrap_decay(data, 25, seed=9)
        assert a == b

    def test_sigma_shrinks_with_shot_count(self):
        sig = {}
        for shots in (100, 200):
            sigmas = []
            for trial in range(6):
                rng = np.random.default_rng(100 + trial)
                data = self._dataset(rng, shots=shots)
                sigmas.append(bootstrap_decay(data, 40, seed=trial).bootstrap_sigma)
            sig[shots] = np.mean(sigmas)
        ratio = sig[100] / sig[200]
        assert 1.1 < ratio < 1.8  # about sqrt(2)

    def test_resampler_moments_match_depth_stats(self):
        rng = np.random.default_rng(8)
        shots = rng.integers(1, 500, size=10)
        n_success = rng.integers(0, shots + 1)
        groups = [np.arange(0, 1), np.arange(1, 3), np.arange(3, 10)]
        idx, f = _resample(n_success, shots, groups, 20, np.random.default_rng(1))
        n = shots[idx]
        drawn = np.rint((f + 1) * n / 2).astype(np.int64)
        assert np.array_equal((2 * drawn - n) / n, f)
        for g in groups:
            assert np.isin(idx[:, g], g).all()
            means, stderrs = _depth_moments(f[:, g])
            for row in range(len(f)):
                ref = DepthStats.from_f_values(
                    0, [f_from_counts(int(s), int(t - s)) for s, t in zip(drawn[row, g], n[row, g])]
                )
                assert abs(means[row] - ref.mean) <= 1e-12
                assert abs(stderrs[row] - ref.stderr) <= 1e-12


class TestErm:
    def test_zero_error_prediction_is_unity(self):
        params = ErmParams(0.0, 0.0, 0.0, 1.0)
        c = build_random(3, 4, seed=0)
        assert erm_predict_counts(params, *erm_counts(c)) == 1.0

    def test_counts_substitution(self):
        params = ErmParams(0.001, 0.005, 0.0, 1.0)
        assert math.isclose(erm_predict_counts(params, 2, 1, 0), 0.999**2 * 0.995)
        assert math.isclose(erm_predict_counts(params, 2, 1, 0), 0.993010995)

    def test_mcm_effective_fidelity_factor(self):
        params = ErmParams(0.0, 0.0, 0.02, 1.0)
        assert math.isclose(erm_predict_counts(params, 0, 0, 1), 0.97)

    def test_monotone_in_each_parameter(self):
        c = build_random(3, 5, seed=1, p_mcm=0.8)
        base = ErmParams(0.001, 0.005, 0.02, 0.98)
        val = erm_predict_counts(base, *erm_counts(c))
        for bump in (
            ErmParams(0.002, 0.005, 0.02, 0.98),
            ErmParams(0.001, 0.01, 0.02, 0.98),
            ErmParams(0.001, 0.005, 0.04, 0.98),
        ):
            assert erm_predict_counts(bump, *erm_counts(c)) < val

    @staticmethod
    def _synthetic_data(params, rng):
        data = []
        for config_id in range(3):
            for depth in (0, 1, 4, 16):
                for _ in range(12):
                    k1 = 6 * (depth + 2) + rng.randrange(3)
                    k2 = rng.randrange(depth + 1)
                    km = rng.randrange(depth + 1)
                    f = erm_predict_counts(params, k1, k2, km)
                    shots = 10**6
                    ns = round(shots * (1 + f) / 2)
                    data.append(ErmDatum(k1, k2, km, depth, config_id, ns, shots))
        return data

    def test_self_consistency_recovery(self):
        truth = ErmParams(0.001, 0.005, 0.02, 0.98)
        data = self._synthetic_data(truth, random.Random(3))
        fitted, residual = fit_erm(data)
        assert residual < 1e-10
        assert abs(fitted.eps_1q - truth.eps_1q) < 1e-5
        assert abs(fitted.eps_2q - truth.eps_2q) < 1e-4
        assert abs(fitted.eps_mcm - truth.eps_mcm) < 1e-4
        assert abs(fitted.eps_spam - truth.eps_spam) < 1e-3

    def test_multistart_beats_a_bad_single_start(self):
        # A start pinned near zero can strand the simplex in a local
        # minimum; the multi-start fit must do at least as well.
        truth = ErmParams(0.002, 0.02, 0.05, 0.95)
        data = self._synthetic_data(truth, random.Random(4))
        _, bad_residual = _fit_erm_arrays(_erm_loss_arrays(data), [(0.0, 0.0, 0.0, 0.2)])
        _, good_residual = fit_erm(data)
        assert good_residual <= bad_residual
        assert good_residual < 1e-8

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ErmParams(-0.1, 0.0, 0.0, 1.0)


class TestDepumping:
    def test_noiseless_recovery(self):
        ts = [0.0, 1.0, 3.0, 10.0, 30.0, 100.0]
        data = [(t, (2 / 3) * (1 - math.exp(-3 * 0.01 * t))) for t in ts]
        fit = fit_depumping(data)
        assert abs(fit.gamma - 0.01) < 1e-6

    def test_plateau_value(self):
        # Saturated data pins the model's 2/3 asymptote; any sufficiently
        # large rate fits, and the residual at the plateau is tiny.
        data = [(t, 2 / 3) for t in (50.0, 100.0, 200.0)]
        fit = fit_depumping(data)
        pred = (2 / 3) * (1 - math.exp(-3 * fit.gamma * 50.0))
        assert abs(pred - 2 / 3) < 1e-6

    def test_all_zero_data(self):
        assert fit_depumping([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]).gamma == 0.0

    def test_recovery_within_parametric_bootstrap(self):
        gamma = 0.004
        ts = [0.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0]
        shots = 1000
        rng = np.random.default_rng(11)

        def sample_curve():
            return [
                (t, rng.binomial(shots, (2 / 3) * (1 - math.exp(-3 * gamma * t))) / shots)
                for t in ts
            ]

        fit = fit_depumping(sample_curve())
        boot = [fit_depumping(sample_curve()).gamma for _ in range(60)]
        sigma = np.std(boot, ddof=1)
        assert abs(fit.gamma - gamma) < 3 * sigma

    def test_input_validation(self):
        with pytest.raises(FitDegenerateError):
            fit_depumping([(1.0, 0.5)])
        with pytest.raises(ValueError):
            fit_depumping([(-1.0, 0.1), (1.0, 0.2)])


def test_f_from_counts_rejects_empty():
    with pytest.raises(ValueError):
        f_from_counts(0, 0)
