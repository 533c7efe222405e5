import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qirb import builder
from qirb.builder import (
    QirbCircuit,
    build_qirb_circuit,
    classify_outcome,
    resolve_reset_free,
    tracked_walk,
)
from qirb.pauli import (
    CircuitLayer,
    CliffordGate,
    SignedPauli,
    commutes,
    pauli_gate_indices,
)
from qirb.sampler import SamplingConfig, sample_core_circuit
from qirb.simulator import NoiseModel, _batches, _bit_rows, simulate_result

from test_pauli import sp


def build_random(n, depth, seed, reset=True, p_cnot=0.35, p_mcm=0.5):
    rng = random.Random(seed)
    config = SamplingConfig(n=n, p_cnot=p_cnot, p_mcm=p_mcm)
    core = sample_core_circuit(config, depth, rng)
    return build_qirb_circuit(core, reset, rng, n=n)


def simulate_outcomes(circuit, noise, shots, seed, reset_free_mode="frame-correction"):
    """``(outcome string, +/-1 success)`` of every shot, in shot order, from
    the same batches that ``simulate_result`` aggregates."""
    records = []
    for size, fail, outcomes in _batches(circuit, noise, shots, seed, reset_free_mode):
        failed = _bit_rows([fail], size)[:, 0].tolist()
        for bits, f in zip(_bit_rows(outcomes, size).tolist(), failed):
            records.append(("".join(map(str, bits)), -1 if f else 1))
    return records


def synthetic_circuit(target_string, sign=1):
    """Bare circuit shell for classification-rule tests (m = 0): the target
    is tracked from |0>, and a prep X gate on the first wire (which the
    target must cover) gives it a negative sign."""
    n = len(target_string)
    tracked = sp(target_string).z
    prep = CircuitLayer(n)
    if sign < 0:
        assert tracked & 1
        prep = CircuitLayer(n, (CliffordGate(pauli_gate_indices()[1], (0,)),))
    c = QirbCircuit(n, prep, (), CircuitLayer(n), tracked, reset=True)
    assert c.target == sp(target_string, sign)
    return c


class TestClassifyOutcome:
    def test_even_parity_on_support(self):
        c = synthetic_circuit("ZIZ")
        assert classify_outcome(c, "101") == 1

    def test_odd_parity_on_support(self):
        c = synthetic_circuit("ZIZ")
        assert classify_outcome(c, "100") == -1

    def test_negative_target_sign(self):
        c = synthetic_circuit("Z", sign=-1)
        assert classify_outcome(c, "1") == 1

    def test_discarded_bits_never_matter(self):
        c = synthetic_circuit("ZIZ")
        assert classify_outcome(c, "111") == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            classify_outcome(synthetic_circuit("ZZ"), "101")

    @pytest.mark.parametrize("outcome", ["1 1", "12", "1a", "-1", "+1", "1_0"])
    def test_rejects_characters_other_than_0_and_1(self, outcome):
        with pytest.raises(ValueError, match="other than 0 and 1"):
            classify_outcome(synthetic_circuit("Z" * len(outcome)), outcome)


class TestConstruction:
    def test_depth_zero_is_prep_plus_final(self):
        c = build_random(3, 0, seed=1)
        assert c.m == 0 and c.depth == 0
        assert c.target.x == 0 and c.target.n == 3

    def test_single_mcm_discard_rule(self):
        # The MCM's virtual wire is discarded exactly when the tracked
        # component was identity at measurement time.
        hits = {True: 0, False: 0}
        for seed in range(120):
            c = build_random(2, 1, seed=seed, p_mcm=1.0)
            assert c.m == 1 and c.target.n == 3
            q = c.dressed[0].l2.mcm_wires[0]
            was_identity = not (tracked_walk(c).after_l1[0][1] >> q) & 1
            discarded = not c.target.support() & 1
            assert discarded == was_identity
            hits[was_identity] += 1
        assert hits[True] > 0 and hits[False] > 0

    def test_builder_determinism(self):
        assert build_random(4, 9, seed=5) == build_random(4, 9, seed=5)

    def test_targets_are_z_type_and_signed(self):
        for seed in range(20):
            c = build_random(3, 6, seed=seed, reset=bool(seed % 2))
            assert c.target.x == 0
            assert c.target.sign in (1, -1)
            assert sum(len(d.l2.mcm_wires) for d in c.dressed) == c.m

    def test_empty_core_needs_wire_count(self):
        with pytest.raises(ValueError):
            build_qirb_circuit([], True, random.Random(0))


class TestZeroNoise:
    @given(n=st.integers(1, 6), depth=st.integers(0, 8), reset=st.booleans(),
           mode=st.sampled_from(["at-most-one", "density"]),
           p_cnot=st.floats(0, 1), p_mcm=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_every_shot_succeeds(self, n, depth, reset, mode, p_cnot, p_mcm, seed):
        # The reference tableau in simulate_result shares no code with the
        # tracked-Pauli walk that derives the target, so this checks the
        # builder and the walk independently.
        rng = random.Random(seed)
        config = SamplingConfig(n=n, p_cnot=p_cnot, p_mcm=p_mcm, mode=mode)
        c = build_qirb_circuit(sample_core_circuit(config, depth, rng), reset, rng, n=n)
        res = simulate_result(c, NoiseModel.zero(), 64, seed=seed, with_counts=False)
        assert res.n_success == res.shots

    def test_binary_rb_degenerate_case(self):
        # p_mcm = 0 gives measurement-free circuits; still exact successes.
        noise = NoiseModel.zero()
        for seed in range(6):
            c = build_random(3, 6, seed=seed, p_mcm=0.0)
            assert c.m == 0
            res = simulate_result(c, noise, 32, seed=seed, with_counts=False)
            assert res.n_success == res.shots


class TestResetFree:
    def test_requires_reset_free_circuit(self):
        c = build_random(2, 3, seed=0, reset=True)
        with pytest.raises(ValueError):
            resolve_reset_free(c, [0] * c.m)

    def test_all_zero_bits_mean_no_correction(self):
        c = build_random(3, 5, seed=1, reset=False)
        assert resolve_reset_free(c, [0] * c.m) == 1

    def test_resolver_matches_simulator_frames(self):
        # The standalone post-processor must reproduce the simulator's
        # per-shot frame sign: classify(outcome, sign) == recorded success.
        noise = NoiseModel.depolarizing(0.995, 0.99, 0.05)
        for seed in range(6):
            c = build_random(3, 6, seed=seed, reset=False)
            for outcome, success in simulate_outcomes(c, noise, 40, seed=seed):
                sign = resolve_reset_free(c, [int(b) for b in outcome[: c.m]])
                assert classify_outcome(c, outcome, sign) == success


class TestDressingDistributions:
    def test_unmeasured_dressing_gates_are_uniform_paulis(self):
        pauli_set = set(pauli_gate_indices())
        counter = Counter()
        for seed in range(300):
            c = build_random(2, 1, seed=seed, p_mcm=1.0)
            q_meas = c.dressed[0].l2.mcm_wires[0]
            for g in c.dressed[0].l1.gates:
                if g.wires[0] != q_meas:
                    assert g.index in pauli_set
                    counter[g.index] += 1
        total = sum(counter.values())
        for idx in pauli_set:
            p = 0.25
            sigma = (total * p * (1 - p)) ** 0.5
            assert abs(counter[idx] - total * p) < 4 * sigma

    def test_measured_wire_rotations_balance_signs(self):
        # Pre-measurement alignment picks uniformly among all achieving
        # Cliffords, so the +/-Z image signs come out balanced.
        from qirb.pauli import conjugate

        signs = Counter()
        for seed in range(400):
            c = build_random(2, 1, seed=seed, p_mcm=1.0)
            d = c.dressed[0]
            q = d.l2.mcm_wires[0]
            x, z, _ = tracked_walk(c).initial
            if not ((x | z) >> q) & 1:
                continue
            gate = next(g for g in d.l1.gates if g.wires[0] == q)
            component = SignedPauli(c.n, x & (1 << q), z & (1 << q), 1)
            image = conjugate((gate,), component)
            assert image.letters()[q] == "Z"
            signs[image.sign] += 1
        total = signs[1] + signs[-1]
        assert abs(signs[1] - total / 2) < 4 * (total * 0.25) ** 0.5


def _injection_points(circuit):
    """(injection point, unsigned tracked Pauli there) along the walk. Just
    before a layer's measurements the measured wires carry the letters that
    l1 left (I or Z), just after them Z on the ``fresh`` wires."""
    n = circuit.n
    walk = tracked_walk(circuit)
    yield ("prep",), SignedPauli(n, *walk.initial[:2])
    for i, d in enumerate(circuit.dressed):
        x1, z1, _ = walk.after_l1[i]
        x2, z2, _ = walk.after_l2[i]
        measured = sum(1 << q for q in d.l2.mcm_wires)
        yield ("l1", i), SignedPauli(n, x1, z1)
        yield ("l2", i), SignedPauli(n, x2, z2 | (z1 & measured))
        yield ("postmeas", i), SignedPauli(n, x2, z2 | d.fresh)
        yield ("l3", i), SignedPauli(n, *walk.after_l3[i][:2])
    yield ("final",), SignedPauli(n, *walk.final[:2])


def circuit_ops(circuit):
    """The circuit in the frame simulator's op order, and the op position of
    each injection point.

    Gates run layer by layer, each measuring layer's MCMs after its gates,
    the final readouts last; a fault at position p acts just before op p.
    """
    ops, at = [], {}

    def gates(layer, tag):
        ops.extend(("gate", g) for g in layer.gates)
        at[tag] = len(ops)

    gates(circuit.prep_layer, ("prep",))
    k = 0
    for i, d in enumerate(circuit.dressed):
        gates(d.l1, ("l1", i))
        gates(d.l2, ("l2", i))
        for q in d.l2.mcm_wires:
            ops.append(("measure", q, k))
            k += 1
        at[("postmeas", i)] = len(ops)
        gates(d.l3, ("l3", i))
    gates(circuit.final_layer, ("final",))
    ops += [("measure", q, circuit.m + q) for q in range(circuit.n)]
    return ops, at


@pytest.mark.parametrize("reset", [True, False])
def test_single_error_injection_flips_iff_anticommuting(reset):
    """Exhaustive single-fault check on a small circuit.

    Injecting one Pauli at one location flips every shot's classification
    exactly when the Pauli anticommutes with the tracked Pauli there.
    """
    from qirb.seeding import derive_np_rng
    from qirb.simulator import _compile, _propagate

    c = build_random(2, 3, seed=13, reset=reset, p_mcm=0.8)
    assert c.m >= 1
    prog = _compile(c)
    _, positions = circuit_ops(c)
    shots = 24
    every = (1 << shots) - 1
    for tag, tracked in _injection_points(c):
        for wire in range(c.n):
            for letter in ("X", "Z", "Y"):
                inject = sp(
                    "".join(letter if w == wire else "I" for w in range(c.n))
                )
                expected_flip = not commutes(inject, tracked)
                fault = {positions[tag]: {wire: [every if letter in "XY" else 0,
                                                 every if letter in "ZY" else 0]}}
                failed, _ = _propagate(prog, shots, fault, derive_np_rng(7), correct=not reset)
                assert failed == (every if expected_flip else 0), (tag, wire, letter)


@pytest.mark.parametrize("depth, message", [(0, "final layer"), (6, "l1 failed")])
def test_failed_z_alignment_raises(monkeypatch, depth, message):
    # A rotation pool holding only the identity cannot Z-align X or Y letters;
    # the check is an explicit error, so ``python -O`` keeps it.
    monkeypatch.setattr(builder, "cliffords_mapping_letter", lambda src, dst: (0,))
    with pytest.raises(RuntimeError, match=message):
        build_random(6, depth, seed=1, p_mcm=1.0)
