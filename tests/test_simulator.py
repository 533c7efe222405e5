import copy
import dataclasses
import itertools
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qirb import simulator
from qirb.builder import QirbCircuit, classify_outcome, resolve_reset_free
from qirb.pauli import (NUM_ONEQ_CLIFFORDS, SignedPauli, clifford_action, clifford_product,
                        pauli_gate_indices)
from qirb.seeding import derive_np_rng
from qirb.simulator import (_BATCH, _CNOT, _CODE, _GATE, _GATE_SPLIT, _MASKS, _MCM, _READ, _STEP,
                            NoiseModel, _add_faults, _compile, _propagate, simulate_result)
from qirb.tableau import StabilizerTableau
from qirb.theory import exact_success_expectation

from test_builder import build_random, circuit_ops, noise_rows, simulate_outcomes
from test_pauli import commutes, layer as make_layer


def f_value(res):
    """The success statistic F = (N_success - N_fail) / N of one result."""
    return (res.n_success - res.n_fail) / res.shots


_RATES = ("px", "py", "pz", "twoq_each", "pre_flip", "post_flip", "unmeasured_depol",
          "readout_flip")


class TestNoiseModelTypes:
    def test_fidelity_shorthand(self):
        noise = NoiseModel.depolarizing(0.999, 0.995, 0.02)
        assert math.isclose(1.0 - noise.oneq_total, 0.999)
        assert math.isclose(noise.px, 0.001 / 3)
        assert math.isclose(1.0 - noise.twoq_total, 0.995)
        assert math.isclose(noise.twoq_each, 0.005 / 15)
        assert noise.readout_flip == 0.02

    def test_the_rates_are_the_only_fields(self):
        assert tuple(f.name for f in dataclasses.fields(NoiseModel)) == _RATES

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
    @pytest.mark.parametrize("field", _RATES)
    def test_each_rate_is_validated(self, field, bad):
        with pytest.raises(ValueError, match=field):
            NoiseModel(**{field: bad})

    def test_validation(self):
        # Each rate lies in [0, 1], but the per-gate totals can still exceed 1.
        with pytest.raises(ValueError, match="px"):
            NoiseModel(px=0.5, py=0.4, pz=0.3)
        with pytest.raises(ValueError, match="twoq_each"):
            NoiseModel(twoq_each=0.1)
        with pytest.raises(ValueError):
            NoiseModel.depolarizing(f1q=float("nan"))


class TestDeterminism:
    def test_same_seed_reproduces_records(self):
        c = build_random(3, 5, seed=0)
        noise = NoiseModel.depolarizing()
        a = simulate_outcomes(c, noise, 50, seed=4)
        b = simulate_outcomes(c, noise, 50, seed=4)
        assert a == b

    def test_shot_records_classify_consistently(self):
        c = build_random(2, 4, seed=1)
        for outcome, success in simulate_outcomes(c, NoiseModel.depolarizing(), 60, seed=5):
            assert classify_outcome(c, outcome) == success


class TestMcmStatistics:
    def test_certain_preflip_halves_of_circuits_fail(self):
        # A guaranteed pre-measurement flip on a one-wire, depth-1,
        # single-MCM circuit flips classification exactly when the tracked
        # component on the measured wire is Z, which happens for 3/4 of the
        # sampled circuits: the circuit-averaged mean success is -1/2.
        noise = NoiseModel(pre_flip=1.0)
        total = 0.0
        reps = 600
        for seed in range(reps):
            c = build_random(1, 1, seed=seed, p_mcm=1.0, p_cnot=0.0)
            total += f_value(simulate_result(c, noise, 8, seed=seed, with_counts=False))
        mean = total / reps
        sigma = math.sqrt(0.75 / reps)  # per-circuit F is +/-1 here
        assert abs(mean - (-0.5)) < 3 * sigma

    def test_single_location_linearity(self):
        # One error location with flip probability q gives mean 1 - 2q.
        q = 0.17
        noise = NoiseModel(pre_flip=q)
        for seed in range(40):
            c = build_random(1, 1, seed=seed, p_mcm=1.0, p_cnot=0.0)
            if not c.target.z & 1:  # the MCM measured I
                continue
            shots = 20000
            mean = f_value(simulate_result(c, noise, shots, seed=seed, with_counts=False))
            expect = 1 - 2 * q
            sigma = math.sqrt((1 - expect**2) / shots)
            assert abs(mean - expect) < 4 * sigma
            break
        else:
            pytest.fail("no circuit with a Z component found")

    def test_off_support_mcm_bits_are_uniform(self):
        # Discarded MCM bits carry no parity constraint; their marginals
        # stay near 1/2 under zero noise.
        rng = random.Random(0)
        ones = total = 0
        for seed in range(60):
            c = build_random(2, 2, seed=seed, p_mcm=1.0)
            res = simulate_outcomes(c, NoiseModel.zero(), 30, seed=rng.randrange(1 << 30))
            for k in range(c.m):
                if not (c.target.support() >> k) & 1:
                    for outcome, _ in res:
                        ones += int(outcome[k])
                        total += 1
        assert total > 300
        assert abs(ones / total - 0.5) < 3 * math.sqrt(0.25 / total)


_ORACLE_NOISE = NoiseModel.depolarizing(0.99, 0.98, 0.05, mcm_post_flip=0.03,
                                       mcm_unmeasured_depol=0.02)


def oracle_pulls(noise, shots=40000):
    """(Monte Carlo F - exact F) / SE for five small circuits, the odd seeds reset."""
    pulls = []
    for seed in range(5):
        c = build_random(3, 5, seed=seed, reset=bool(seed % 2))
        exact = exact_success_expectation(c, noise)
        mc = f_value(simulate_result(c, noise, shots, seed=seed + 100, with_counts=False))
        pulls.append((mc - exact) / math.sqrt(max(1e-12, 1 - exact**2) / shots))
    return pulls


class TestOracleAgreement:
    def test_exact_expectation_matches_monte_carlo(self):
        assert max(map(abs, oracle_pulls(_ORACLE_NOISE))) < 4

    # Unequal px, py and pz, so a wrong X/Y/Z letter code in the fault
    # sampler or the oracle shows; every other channel stays on.
    @pytest.mark.parametrize("px, py, pz", [(0.01, 0.0, 0.0), (0.0, 0.0, 0.01),
                                            (2e-3, 5e-3, 9e-3)],
                             ids=["x-only", "z-only", "mixed"])
    def test_asymmetric_oneq_noise_matches_monte_carlo(self, px, py, pz):
        noise = dataclasses.replace(_ORACLE_NOISE, px=px, py=py, pz=pz)
        assert max(map(abs, oracle_pulls(noise))) < 4


class TestResetFreeModes:
    def test_modes_agree_shot_by_shot(self):
        noise = NoiseModel.depolarizing(0.995, 0.99, 0.04)
        for seed in range(4):
            c = build_random(3, 6, seed=seed, reset=False, p_mcm=0.7)
            a = simulate_outcomes(c, noise, 120, seed=seed, reset_free_mode="frame-correction")
            b = simulate_outcomes(c, noise, 120, seed=seed, reset_free_mode="feedforward-x")
            assert [s for _, s in a] == [s for _, s in b]

    def test_counts_histogram_sums_to_shots(self):
        c = build_random(2, 3, seed=3, reset=False)
        res = simulate_result(c, NoiseModel.depolarizing(), 97, seed=8)
        assert sum(res.counts.values()) == 97
        assert res.n_success + res.n_fail == 97


def test_simulator_rejects_bad_arguments():
    c = build_random(2, 2, seed=0)
    with pytest.raises(ValueError):
        simulate_result(c, NoiseModel.zero(), 0, seed=1)
    c_free = build_random(2, 2, seed=0, reset=False)
    with pytest.raises(ValueError):
        simulate_result(c_free, NoiseModel.zero(), 5, seed=1, reset_free_mode="bogus")


@pytest.mark.parametrize("n, seed, p_mcm, shots", [(2, 4, 0.4, 5000), (70, 5, 0.9, 300)],
                         ids=["n2", "n70"])
def test_counts_equal_a_counter_of_the_outcome_strings(n, seed, p_mcm, shots):
    # At n = 2, 5,000 shots span two shot batches; two MCMs and two readouts
    # leave few distinct strings, so most keys repeat. At n = 70 every
    # outcome string is wider than 64 bits.
    c = build_random(n, 3, seed=seed, reset=False, p_mcm=p_mcm)
    noise = NoiseModel.depolarizing(0.99, 0.98, 0.05)
    res = simulate_result(c, noise, shots, seed=2)
    records = simulate_outcomes(c, noise, shots, seed=2)
    assert res.counts == Counter(outcome for outcome, _ in records)
    assert res.n_success == sum(success > 0 for _, success in records)


def test_memory_does_not_grow_with_shot_batches():
    # Each batch is counted before the next is drawn: four times the
    # batches must not come near four times the peak. The first call pays
    # one-time allocations, so it is not measured.
    c = build_random(2, 8, seed=3, reset=False, p_mcm=0.6)
    noise = NoiseModel.depolarizing(0.99, 0.98, 0.05)
    simulate_result(c, noise, _BATCH, seed=1, with_counts=True)

    def peak(batches):
        tracemalloc.start()
        try:
            simulate_result(c, noise, batches * _BATCH, seed=1, with_counts=True)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(16) < 2 * peak(4)


def test_seventy_wires_zero_noise_succeeds_on_every_shot():
    c = build_random(70, 4, seed=5, p_mcm=0.9)
    assert c.m >= 1
    res = simulate_result(c, NoiseModel.zero(), 50, seed=1)
    assert res.n_success == 50


def test_gate_split_is_the_representative_then_a_pauli():
    # Every gate, checked on X, Y and Z: the representative's action (none
    # for a Pauli gate) followed by the split's Pauli is the gate's own, and
    # the split's letter images are the gate's unsigned ones.
    paulis = pauli_gate_indices()
    for idx in range(NUM_ONEQ_CLIFFORDS):
        rep, images, code = _GATE_SPLIT[idx]
        assert (rep is None) == (idx in paulis)
        pauli = SignedPauli(1, code & 1, code >> 1)
        for letter in (1, 3, 2):  # X, Y, Z
            image, sign = (letter, 1) if rep is None else clifford_action(rep)[letter]
            if not commutes(pauli, SignedPauli(1, image & 1, image >> 1)):
                sign = -sign
            assert (image, sign) == clifford_action(idx)[letter], (idx, letter)
            assert images[letter] == image


def _frame_step(masks, x, z, full):
    """One frame op of ``_propagate`` on the X and Z bits of every shot."""
    return ((x & masks[0]) ^ (z & masks[1]) ^ (full & masks[4]),
            (x & masks[2]) ^ (z & masks[3]) ^ (full & masks[5]))


def test_fused_runs_match_their_gates(monkeypatch):
    # Every ordered pair and triple of gates, compiled as one run, on random
    # frames. A block of shots takes one fault, of each letter after each
    # gate; the other shots take none. The fused op, with the faults placed
    # as the fault sampler places them, gives the same frame as the gates
    # one at a time with each fault in place; the reference tableau before
    # the readout is the one the representatives give one at a time.
    before_readout = []

    class Recording(StabilizerTableau):
        def measure_z(self, q, forced=0):
            before_readout.append((self.x[:], self.z[:], self.r))
            return super().measure_z(q, forced)

    monkeypatch.setattr(simulator, "StabilizerTableau", Recording)
    rng = random.Random(3)
    shots, block = 256, 4
    full = (1 << shots) - 1
    x0, z0 = rng.getrandbits(shots), rng.getrandbits(shots)
    unfused = [tuple(-(v & 1) for v in (images[1], images[2], images[1] >> 1, images[2] >> 1,
                                        code, code >> 1))
               for _, images, code in _GATE_SPLIT]
    layer = [make_layer(1, [(i, 0)]) for i in range(NUM_ONEQ_CLIFFORDS)]
    empty = make_layer(1)
    for length in (2, 3):
        faults = [(i, letter) for i in range(length) for letter in (1, 2, 3)]
        shot_idx = np.arange(len(faults) * block)
        gate_at = np.repeat([i for i, _ in faults], block)
        letters = np.repeat([letter for _, letter in faults], block)
        for indices in itertools.product(range(NUM_ONEQ_CLIFFORDS), repeat=length):
            # The first gate goes in prep, a middle one in an l1, the last in final.
            layers = (layer[indices[0]], *(s for i in indices[1:-1] for s in (layer[i], empty, empty)),
                      layer[indices[-1]])
            prog = _compile(QirbCircuit(1, layers, (0,) * len(layers), 0, reset=True))
            assert [op[0] for op in prog.ops] == [_GATE, _READ]
            placed = {}
            _add_faults(placed, "oneq", prog.locations["oneq"][gate_at], shot_idx, letters)
            (xm, zm), = placed[0].values()
            fused = _frame_step(prog.ops[0][2], x0 ^ xm, z0 ^ zm, full)
            x, z = x0, z0
            for i, idx in enumerate(indices):
                x, z = _frame_step(unfused[idx], x, z, full)
                for j, (at, letter) in enumerate(faults):
                    if at == i:
                        bits = ((1 << block) - 1) << (j * block)
                        x ^= bits if letter & 1 else 0
                        z ^= bits if letter & 2 else 0
            assert fused == (x, z), indices
            t = StabilizerTableau(1)
            for idx in indices:
                if _GATE_SPLIT[idx][0] is not None:
                    t.apply_clifford(_GATE_SPLIT[idx][0], 0)
            assert before_readout.pop() == (t.x, t.z, t.r), indices


def _compose(run, idx):
    """A run ``(product, lx, lz, pauli)`` followed by gate ``idx``, one gate at
    a time: the representative multiplies the product, the letter images
    send X's and Z's images and the Pauli on, and the gate's Pauli adds."""
    product, lx, lz, pauli = run
    rep, image, code = _GATE_SPLIT[idx]
    return (product if rep is None else clifford_product(rep, product),
            image[lx], image[lz], image[pauli] ^ code)


def _run_masks(lx, lz, pauli):
    return tuple(-(v & 1) for v in (lx, lz, lx >> 1, lz >> 1, pauli, pauli >> 1))


def test_run_table_steps_as_the_gates_compose():
    # From the empty run, every state and gate: the table's next state is
    # the composed run, and each state's code, masks and product (the
    # state's high bits) are those of its run. The table is closed.
    runs = {0: (0, 1, 2, 0)}
    todo = [0]
    while todo:
        state = todo.pop()
        for idx in range(NUM_ONEQ_CLIFFORDS):
            nxt, run = _STEP[state][idx], _compose(runs[state], idx)
            if nxt not in runs:
                runs[nxt] = run
                todo.append(nxt)
            assert runs[nxt] == run, (state, idx)
    assert sorted(runs) == list(range(len(_STEP))) and len(runs) == 96
    for state, (product, lx, lz, pauli) in runs.items():
        assert state >> 2 == product
        assert _CODE[state] == lx | lz << 2
        assert _MASKS[state] == _run_masks(lx, lz, pauli)


def test_long_runs_compile_as_the_gates_compose(monkeypatch):
    # Random one-wire runs of 1 to 64 gates: the compiled op's masks, each
    # gate's noise row and the one reference call match the gates composed
    # one at a time.
    applied = []

    class Recording(StabilizerTableau):
        def apply_clifford(self, index, q):
            applied.append(index)
            super().apply_clifford(index, q)

    monkeypatch.setattr(simulator, "StabilizerTableau", Recording)
    rng = random.Random(11)
    layer = [make_layer(1, [(i, 0)]) for i in range(NUM_ONEQ_CLIFFORDS)]
    empty = make_layer(1)
    for _ in range(200):
        indices = [rng.randrange(NUM_ONEQ_CLIFFORDS) for _ in range(rng.randint(1, 64))]
        run, codes = (0, 1, 2, 0), []
        for idx in indices:
            run = _compose(run, idx)
            codes.append(run[1] | run[2] << 2)
        # The first gate goes in prep, the others in l1 layers.
        layers = (layer[indices[0]], *(s for i in indices[1:] for s in (layer[i], empty, empty)),
                  empty)
        applied.clear()
        prog = _compile(QirbCircuit(1, layers, (0,) * len(layers), 0, reset=True))
        assert prog.ops[0] == (_GATE, 0, _run_masks(*run[1:]))
        assert prog.locations["oneq"].tolist() == [[0, 0, c] for c in codes]
        assert applied == ([run[0]] if run[0] else [])


def _replay_shot(circuit, ops, faults, shot, bits, reset):
    """Run one shot on the per-shot tableau with that shot's share of the
    faults, forcing every random measurement to ``bits``; returns the
    indices of the deterministic outcomes that disagree with ``bits``."""
    t = StabilizerTableau(circuit.n)
    wrong = []
    for pos, op in enumerate(ops):
        for w, (xm, zm) in faults.get(pos, {}).items():
            t.apply_pauli(((xm >> shot) & 1) << w, ((zm >> shot) & 1) << w)
        if op[0] == "cnot":
            t.apply_cnot(op[1], op[2])
            continue
        if op[0] == "gate":
            t.apply_clifford(op[1], op[2])
            continue
        _, q, k = op
        deterministic = t.is_deterministic(q)
        bit = t.measure_z(q, forced=bits[k])
        if deterministic and bit != bits[k]:
            wrong.append(k)
        if reset and k < circuit.m and bit:
            t.apply_pauli(1 << q, 0)
    return wrong


@given(n=st.integers(1, 4), depth=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
       reset=st.booleans(), feedforward=st.booleans(), n_faults=st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_frames_match_per_shot_tableau(n, depth, seed, reset, feedforward, n_faults):
    # Explicit faults at the compiled circuit's noise locations, in every
    # channel: the frame kernel takes them through the fault sampler's own
    # placement, and one per-shot tableau per shot takes them at the
    # locations' positions among the unfused gates. Every deterministic
    # outcome must agree, and so must each shot's classification.
    rng = random.Random(seed)
    c = build_random(n, depth, seed, reset=reset, p_mcm=0.5)
    ops, _, rows = noise_rows(c)
    prog = _compile(c)
    # The CNOTs and measurements keep the hand-written order; a wire's run of
    # single-qubit gates between them is one op.
    expected = [(_CNOT, op[1], op[2]) if op[0] == "cnot" else
                (_MCM if op[2] < c.m else _READ, op[1], op[2])
                for op in ops if op[0] != "gate"]
    assert [op for op in prog.ops if op[0] != _GATE] == expected
    for name, walked in rows.items():
        wires = prog.locations[name][:, 1:3 if name == "twoq" else 2]
        assert wires.tolist() == [list(w) for _, *w in walked], name
    shots = 12
    frame_faults, replay_faults = {}, {}
    for _ in range(n_faults):
        name = rng.choice([k for k, walked in rows.items() if walked])
        i = rng.randrange(len(rows[name]))
        hit = rng.sample(range(shots), rng.randint(1, shots))
        if name == "twoq":
            letters = [divmod(rng.randrange(1, 16), 4) for _ in hit]
        else:
            letters = [(rng.randrange(1, 4),) for _ in hit]
        _add_faults(frame_faults, name, prog.locations[name][[i] * len(hit)], np.array(hit),
                    np.array(letters) if name == "twoq" else np.array(letters)[:, 0])
        pos, *wires = rows[name][i]
        for shot, ls in zip(hit, letters):
            for w, code in zip(wires, ls):
                masks = replay_faults.setdefault(pos, {}).setdefault(w, [0, 0])
                masks[0] ^= (code & 1) << shot
                masks[1] ^= (code >> 1) << shot
    correct = not reset and not feedforward
    failed, outcomes = _propagate(prog, shots, frame_faults, derive_np_rng(seed), correct)
    for shot in range(shots):
        bits = [(o >> shot) & 1 for o in outcomes]
        assert _replay_shot(c, ops, replay_faults, shot, bits, reset=not correct) == []
        sign = resolve_reset_free(c, bits[: c.m]) if correct else 1
        expected = classify_outcome(c, "".join(map(str, bits)), sign)
        assert (-1 if (failed >> shot) & 1 else 1) == expected


def _exact_distribution(circuit, reset):
    """Outcome-string probabilities of the noiseless circuit, found by
    branching the per-shot tableau at every random measurement."""
    ops, _ = circuit_ops(circuit)
    dist = Counter()

    def walk(t, start, bits, prob):
        for pos in range(start, len(ops)):
            op = ops[pos]
            if op[0] == "cnot":
                t.apply_cnot(op[1], op[2])
                continue
            if op[0] == "gate":
                t.apply_clifford(op[1], op[2])
                continue
            _, q, k = op
            branches = (0,) if t.is_deterministic(q) else (0, 1)
            for forced in branches:
                branch = copy.deepcopy(t)
                bit = branch.measure_z(q, forced=forced)
                if reset and k < circuit.m and bit:
                    branch.apply_pauli(1 << q, 0)
                walk(branch, pos + 1, bits + str(bit), prob / len(branches))
            return
        dist[bits] += prob

    walk(StabilizerTableau(circuit.n), 0, "", 1.0)
    return dist


@pytest.mark.parametrize("reset", [True, False])
def test_noiseless_outcome_distribution_matches_branching(reset):
    # Every outcome string, random MCM bits included, appears at its exact
    # rate; a frame whose Z components were never randomized would repeat
    # one string per circuit.
    shots = 4000
    for seed in range(8):
        c = build_random(2, 4, seed=seed, reset=reset, p_mcm=0.8)
        exact = _exact_distribution(c, reset)
        counts = simulate_result(c, NoiseModel.zero(), shots, seed=seed).counts
        assert set(counts) <= set(exact)
        for key, p in exact.items():
            sigma = math.sqrt(shots * p * (1 - p))
            assert abs(counts.get(key, 0) - shots * p) <= 5 * sigma + 1, (seed, key)
