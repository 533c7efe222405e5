"""Acceptance suite: one test per criterion, each printing a PASS line.

The shared two-qubit simulation suite (18 sampling configs, 8 repeats each,
15 circuits per depth, 100 shots) backs the regression, theory-agreement
and error-rate-recovery criteria; it is generated once per session.
"""

import math
import random
import time

import numpy as np
import pytest

from qirb.analysis import (
    DecayDataset,
    _erm_loss_arrays,
    bootstrap_decay,
    bootstrap_erm,
    fit_depumping,
    fit_erm,
)
from qirb.pipeline import (
    ExperimentDesign,
    build_design_circuits,
    erm_data_from_results,
    simulate_design,
)
from qirb.sampler import SamplingConfig
from qirb.seeding import derive_seed
from qirb.simulator import NoiseModel, simulate_result
from qirb.theory import exact_success_expectation, predict_r_omega

from test_analysis import simplex_erm_loss
from test_builder import build_random
from test_simulator import f_value
from test_theory import (
    bound_terms_extrema,
    instrument_rates,
    p_anti,
    p_anti_literal,
    random_instrument_terms,
)

METHODS_NOISE = NoiseModel.depolarizing(f1q=0.999, f2q=0.995, mcm_flip=0.02)
P_CNOTS = (0.2, 0.35, 0.5)
P_MCMS = (0.01, 0.02, 0.05, 0.10, 0.25, 0.50)
REPEATS = 8

# Reference simulation table: (n, p_cnot, p_mcm) -> (r_omega %, sigma %).
REFERENCE_ROWS = {
    (2, 0.35, 0.01): (0.722, 0.030),
    (2, 0.35, 0.10): (0.979, 0.033),
    (2, 0.35, 0.50): (2.201, 0.048),
    (2, 0.2, 0.01): (0.672, 0.056),
    (4, 0.35, 0.10): (1.576, 0.060),
    (6, 0.35, 0.10): (2.183, 0.102),
}


def _passed(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def _run_experiment(n, p_cnot, p_mcm, repeat):
    design = ExperimentDesign(
        n=n,
        p_cnot=p_cnot,
        p_mcm=p_mcm,
        seed=derive_seed(20240, n, p_cnot, p_mcm, repeat),
    )
    circuits = build_design_circuits(design)
    return simulate_design(circuits, noise=METHODS_NOISE, design=design, with_counts=False)


def _pooled_dataset(repeats_results) -> DecayDataset:
    data = DecayDataset()
    for results in repeats_results:
        for r in results:
            data.add(r.depth, r.result.n_success, r.result.shots)
    return data


@pytest.fixture(scope="module")
def n2_suite():
    suite = {}
    for pc in P_CNOTS:
        for pm in P_MCMS:
            suite[(pc, pm)] = [_run_experiment(2, pc, pm, rep) for rep in range(REPEATS)]
    return suite


@pytest.fixture(scope="module")
def wide_rows():
    rows = {}
    for n in (4, 6):
        rows[n] = [_run_experiment(n, 0.35, 0.10, rep) for rep in range(REPEATS)]
    return rows


@pytest.fixture(scope="module")
def n2_fits(n2_suite):
    fits = {}
    for (pc, pm), repeats in n2_suite.items():
        fits[(pc, pm)] = bootstrap_decay(
            _pooled_dataset(repeats), 100, seed=derive_seed(7, 2, pc, pm)
        )
    return fits


def test_criterion_1_zero_noise_invariant():
    """Every shot of every random design classifies as success, quickly."""
    start = time.time()
    rng = random.Random(117)
    noise = NoiseModel.zero()
    for k in range(200):
        n = rng.randrange(1, 7)
        depths = sorted(rng.sample(range(65), 3))
        reset = bool(k % 2)
        config = SamplingConfig(
            n=n,
            p_cnot=round(rng.random(), 3),
            p_mcm=round(rng.random(), 3),
        )
        from qirb.sampler import sample_core_circuit
        from qirb.builder import build_qirb_circuit

        for depth in depths:
            core = sample_core_circuit(config, depth, rng)
            circuit = build_qirb_circuit(core, reset, rng, n=n)
            res = simulate_result(circuit, noise, 12, seed=k, with_counts=False)
            assert res.n_success == res.shots, (k, n, depth, reset)
    elapsed = time.time() - start
    assert elapsed < 60.0
    _passed(1, f"200 random designs, F = 1 exactly on every shot ({elapsed:.1f}s)")


def test_criterion_2_regression_against_reference_table(n2_fits, wide_rows):
    """Fitted decay rates reproduce the reference simulation table rows."""
    lines = []
    for (n, pc, pm), (ref, ref_sigma) in REFERENCE_ROWS.items():
        if n == 2:
            fit = n2_fits[(pc, pm)]
        else:
            fit = bootstrap_decay(
                _pooled_dataset(wide_rows[n]), 100, seed=derive_seed(7, n, pc, pm)
            )
        r_pct = 100 * fit.r_omega
        sigma_pct = 100 * fit.bootstrap_sigma
        combined = math.sqrt(ref_sigma**2 + sigma_pct**2)
        assert abs(r_pct - ref) <= 3 * combined, (
            f"n={n} p_cnot={pc} p_mcm={pm}: got {r_pct:.3f}%, "
            f"reference {ref}+/-{ref_sigma}, combined sigma {combined:.3f}"
        )
        lines.append(f"n={n},{pc},{pm}: {r_pct:.3f}% vs {ref}+/-{ref_sigma}%")
    _passed(2, "; ".join(lines))


def test_criterion_3_theory_matches_simulation(n2_fits):
    """Predicted decay rates agree with fitted ones for all 18 combos."""
    worst = 0.0
    for pc in P_CNOTS:
        for pm in P_MCMS:
            pred = predict_r_omega(METHODS_NOISE, SamplingConfig(n=2, p_cnot=pc, p_mcm=pm))
            fit = n2_fits[(pc, pm)]
            pull = abs(fit.r_omega - pred.r_omega) / fit.bootstrap_sigma
            worst = max(worst, pull)
            assert pull <= 3.0, (
                f"p_cnot={pc} p_mcm={pm}: fitted {100*fit.r_omega:.3f}%, "
                f"predicted {100*pred.r_omega:.3f}%, pull {pull:.2f} sigma"
            )
    _passed(3, f"18 configs agree; worst pull {worst:.2f} sigma")


def test_criterion_4_bound_suite():
    """Lambda-summation rates always sit inside [3 eps/4, 3 eps/2]."""
    rng = random.Random(2024)
    for _ in range(1000):
        terms = random_instrument_terms(rng)
        r, eps = instrument_rates(terms)
        assert 0.75 * eps - 1e-12 <= r <= 1.5 * eps + 1e-12
    lo, hi, _, _ = bound_terms_extrema()
    assert lo == 0.375 and hi == 0.75
    _passed(4, "1000 random instrument models bracketed; extrema exactly 3/8 and 3/4")


def test_criterion_5_oracle_equivalence():
    """Monte Carlo means match the exact expectation for 50 random circuits."""
    shots = 100_000
    worst = 0.0
    for k in range(50):
        rng = random.Random(900 + k)
        n = rng.randrange(1, 5)
        depth = rng.randrange(0, 9)
        reset = bool(k % 2)
        circuit = build_random(
            n, depth, seed=900 + k, reset=reset,
            p_cnot=round(rng.random(), 2), p_mcm=round(0.2 + 0.6 * rng.random(), 2),
        )
        exact = exact_success_expectation(circuit, METHODS_NOISE)
        mc = f_value(simulate_result(circuit, METHODS_NOISE, shots, seed=k, with_counts=False))
        se = math.sqrt(max(1e-12, 1.0 - exact**2) / shots)
        pull = abs(mc - exact) / se
        worst = max(worst, pull)
        assert pull <= 4.0, (k, n, depth, exact, mc, pull)
    _passed(5, f"50 circuits within 4 binomial SE; worst {worst:.2f}")


def test_criterion_6_erm_recovery(n2_suite):
    """The four-parameter model recovers the injected error rates."""
    results_by_config = []
    for pc in P_CNOTS:
        for pm in P_MCMS:
            results_by_config.extend(n2_suite[(pc, pm)])
    data = erm_data_from_results(results_by_config)
    params, _, sigma = bootstrap_erm(data, 30, seed=61)
    injected = {"eps_1q": 0.001, "eps_2q": 0.005, "eps_mcm": 0.02}
    fitted = {"eps_1q": params.eps_1q, "eps_2q": params.eps_2q, "eps_mcm": params.eps_mcm}
    for key, truth in injected.items():
        assert abs(fitted[key] - truth) <= 3 * sigma[key], (
            f"{key}: fitted {fitted[key]:.5f}, injected {truth}, sigma {sigma[key]:.5f}"
        )
    _passed(
        6,
        "recovered eps_1q={eps_1q:.4%}, eps_2q={eps_2q:.4%}, eps_mcm={eps_mcm:.4%}".format(**fitted),
    )


def test_erm_fit_is_never_worse_than_a_4d_simplex_on_the_suite(n2_suite):
    """Criterion 6's fit reaches the loss of an independent 4-D search."""
    data = erm_data_from_results([r for repeats in n2_suite.values() for r in repeats])
    _, loss = fit_erm(data)
    assert loss <= (1 + 1e-10) * simplex_erm_loss(_erm_loss_arrays(data))


def test_criterion_7_p_anti_values():
    """Closed form equals the literal sum; the small weights are exact."""
    for w in range(21):
        assert abs(p_anti(w) - p_anti_literal(w)) <= 1e-12
    assert p_anti(1) == 0.75
    assert p_anti(2) == 0.375
    _passed(7, "closed form == literal sum to 1e-12 for w <= 20; p_anti(1)=3/4, p_anti(2)=3/8")


def test_criterion_8_depumping_recovery():
    """The depumping fit recovers a synthetic rate within its bootstrap."""
    gamma = 0.0075
    ts = [0.0, 4.0, 10.0, 25.0, 60.0, 120.0]
    shots = 1000
    rng = np.random.default_rng(88)

    def sample_curve():
        return [
            (t, rng.binomial(shots, (2 / 3) * (1 - math.exp(-3 * gamma * t))) / shots)
            for t in ts
        ]

    fit = fit_depumping(sample_curve())
    boot = [fit_depumping(sample_curve()).gamma for _ in range(80)]
    sigma = float(np.std(boot, ddof=1))
    assert abs(fit.gamma - gamma) <= 3 * sigma
    _passed(8, f"gamma {fit.gamma:.5f} vs {gamma} within 3x bootstrap sigma {sigma:.5f}")


def test_criterion_9_pipeline_determinism(tmp_path):
    """Design, simulate, analyze and predict are byte-stable across runs
    and worker counts under a fixed master seed."""
    from qirb.cli import main

    def run_pipeline(tag, threads):
        d = tmp_path / tag
        assert main([
            "design", "--n", "2", "--p-cnot", "0.3", "--p-mcm", "0.4",
            "--depths", "0,1,4,16", "--circuits-per-depth", "4", "--shots", "50",
            "--seed", "12345", "--out", str(d),
        ]) == 0
        assert main([
            "simulate", "--circuits", str(d / "circuits.json"),
            "--threads", str(threads), "--out", str(d / "results.json"),
        ]) == 0
        assert main([
            "analyze", str(d / "results.json"), "--bootstrap", "12",
            "--out", str(d / "report"),
        ]) == 0
        assert main([
            "predict", "--n", "2", "--p-cnot", "0.3", "--p-mcm", "0.4",
            "--out", str(d / "prediction.json"),
        ]) == 0
        files = ["design.json", "circuits.json", "results.json", "prediction.json",
                 "report/report.json", "report/results.curve.csv"]
        return {f: (d / f).read_bytes() for f in files}

    first = run_pipeline("a", threads=1)
    second = run_pipeline("b", threads=1)
    third = run_pipeline("c", threads=4)
    assert first == second == third
    _passed(9, "byte-identical outputs across reruns and 1 vs 4 workers")
