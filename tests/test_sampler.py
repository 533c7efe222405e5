import random

import pytest

from qirb.pauli import NO_GATE
from qirb.sampler import (SamplingConfig, _place_cnot, complete_graph, sample_core_circuit,
                          sample_core_layer)


def test_gate_only_layer_when_rates_are_zero():
    rng = random.Random(1)
    row, cnots, mcms = sample_core_layer(SamplingConfig(n=3, p_cnot=0.0, p_mcm=0.0), rng)
    assert not mcms and not cnots
    assert len(row) == 3 and NO_GATE not in row


def test_two_wires_with_certain_mcm_never_fit_a_cnot():
    rng = random.Random(2)
    for _ in range(200):
        row, cnots, mcms = sample_core_layer(SamplingConfig(n=2, p_cnot=0.9, p_mcm=1.0), rng)
        assert len(mcms) == 1
        assert cnots == ()
        assert row.count(NO_GATE) == 1 and row[mcms[0]] == NO_GATE


def test_marginal_frequencies_match_occupancy_rule():
    rng = random.Random(3)
    config = SamplingConfig(n=2, p_cnot=0.35, p_mcm=0.5)
    draws = 100_000
    n_mcm = n_cnot = 0
    for _ in range(draws):
        _, cnots, mcms = sample_core_layer(config, rng)
        n_mcm += bool(mcms)
        n_cnot += len(cnots)
    # On two wires a CNOT only fits when no MCM was placed.
    for observed, p in ((n_mcm, 0.5), (n_cnot, 0.35 * 0.5)):
        sigma = (draws * p * (1 - p)) ** 0.5
        assert abs(observed - draws * p) < 3 * sigma


def test_depth_contract():
    rng = random.Random(4)
    config = SamplingConfig(n=3, p_cnot=0.2, p_mcm=0.3)
    assert sample_core_circuit(config, 0, rng) == []
    circuit = sample_core_circuit(config, 128, rng)
    assert len(circuit) == 128


def test_mean_mcm_count_at_depth_128():
    rng = random.Random(5)
    config = SamplingConfig(n=3, p_cnot=0.2, p_mcm=0.3)
    reps = 200
    total = sum(
        sum(len(mcms) for _, _, mcms in sample_core_circuit(config, 128, rng))
        for _ in range(reps)
    )
    mean = total / reps
    sigma = (128 * 0.3 * 0.7 / reps) ** 0.5
    assert abs(mean - 128 * 0.3) < 3 * sigma


def test_determinism_for_identical_seed():
    config = SamplingConfig(n=4, p_cnot=0.4, p_mcm=0.4)
    a = sample_core_circuit(config, 20, random.Random(99))
    b = sample_core_circuit(config, 20, random.Random(99))
    assert a == b


def test_connectivity_restriction_is_honored():
    edges = ((0, 1), (1, 2))
    config = SamplingConfig(n=4, p_cnot=1.0, p_mcm=0.0, connectivity=edges)
    rng = random.Random(6)
    for _ in range(200):
        _, cnots, _ = sample_core_layer(config, rng)
        for pair in cnots:
            assert tuple(sorted(pair)) in edges


@pytest.mark.parametrize("n, edges", [
    (2, None), (5, None), (4, ((0, 1), (1, 2))), (5, ((3, 0), (1, 3), (3, 4), (2, 1))),
])
def test_cnot_draw_is_choice_over_the_clear_edges(n, edges):
    # The edges clear of the busy wire, filtered as a list, drawn by rng.choice.
    config = SamplingConfig(n=n, p_cnot=1.0, p_mcm=0.0, connectivity=edges)
    for busy in (None, *range(n)):
        clear = [e for e in config.edges if busy not in e]
        for seed in range(40):
            rng, ref = random.Random(seed), random.Random(seed)
            want = None
            if clear:
                a, b = ref.choice(clear)
                want = (b, a) if ref.getrandbits(1) else (a, b)
            assert _place_cnot(rng, config, busy) == want
            assert rng.getstate() == ref.getstate()


def test_density_mode_layers_are_legal_and_multi_mcm():
    config = SamplingConfig(n=5, p_cnot=0.5, p_mcm=0.5, mode="density")
    rng = random.Random(7)
    saw_multi = False
    for _ in range(300):
        row, cnots, mcms = sample_core_layer(config, rng)
        busy = [*mcms, *(w for pair in cnots for w in pair)]
        assert all(row[w] == NO_GATE for w in busy)
        # Every wire is measured, in one CNOT or holds one single-qubit gate.
        assert sorted(busy + [q for q, g in enumerate(row) if g != NO_GATE]) == list(range(5))
        saw_multi |= len(mcms) > 1
    assert saw_multi


def test_config_validation():
    with pytest.raises(ValueError):
        SamplingConfig(n=0, p_cnot=0.1, p_mcm=0.1)
    with pytest.raises(ValueError):
        SamplingConfig(n=2, p_cnot=1.5, p_mcm=0.1)
    with pytest.raises(ValueError):
        SamplingConfig(n=2, p_cnot=0.1, p_mcm=0.1, connectivity=((0, 0),))
    with pytest.raises(ValueError):
        SamplingConfig(n=2, p_cnot=0.1, p_mcm=0.1, mode="bogus")
    assert len(complete_graph(4)) == 6
