import dataclasses
import random
from collections import Counter

import pytest

from qirb.builder import (
    OutcomeString,
    QirbCircuit,
    build_qirb_circuit,
    classify_outcome,
    resolve_reset_free,
    tracked_walk,
)
from qirb.pauli import CircuitLayer, SignedPauli, commutes, is_z_type, pauli_gate_indices
from qirb.sampler import SamplingConfig, sample_core_circuit
from qirb.simulator import NoiseModel, simulate_result, simulate_shots


def build_random(n, depth, seed, reset=True, p_cnot=0.35, p_mcm=0.5):
    rng = random.Random(seed)
    config = SamplingConfig(n=n, p_cnot=p_cnot, p_mcm=p_mcm, reset=reset)
    core = sample_core_circuit(config, depth, rng)
    return build_qirb_circuit(core, reset, rng, n=n)


def synthetic_circuit(target_string, sign=1):
    """Bare circuit shell for classification-rule tests (m = 0)."""
    n = len(target_string)
    target = SignedPauli.from_string(target_string, sign)
    return QirbCircuit(
        n=n,
        m=0,
        prep_layer=CircuitLayer(n),
        dressed=(),
        final_layer=CircuitLayer(n),
        target=target,
        initial_pauli=SignedPauli.identity(n),
        mcm_bit_order=(),
        discard_mask=((1 << n) - 1) & ~target.support(),
        reset=True,
    )


class TestClassifyOutcome:
    def test_even_parity_on_support(self):
        c = synthetic_circuit("ZIZ")
        assert classify_outcome(c, OutcomeString.from_string("101")) == 1

    def test_odd_parity_on_support(self):
        c = synthetic_circuit("ZIZ")
        assert classify_outcome(c, OutcomeString.from_string("100")) == -1

    def test_negative_target_sign(self):
        c = synthetic_circuit("Z", sign=-1)
        assert classify_outcome(c, OutcomeString.from_string("1")) == 1

    def test_discarded_bits_never_matter(self):
        c = synthetic_circuit("ZIZ")
        assert classify_outcome(c, OutcomeString.from_string("111")) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            classify_outcome(synthetic_circuit("ZZ"), OutcomeString.from_string("101"))


class TestConstruction:
    def test_depth_zero_is_prep_plus_final(self):
        c = build_random(3, 0, seed=1)
        assert c.m == 0 and c.depth == 0
        assert is_z_type(c.target) and c.target.n == 3

    def test_single_mcm_discard_rule(self):
        # The MCM's virtual wire is discarded exactly when the tracked
        # component was identity at measurement time.
        hits = {True: 0, False: 0}
        for seed in range(120):
            c = build_random(2, 1, seed=seed, p_mcm=1.0)
            assert c.m == 1 and c.target.n == 3
            was_identity = c.dressed[0].pre_meas_component.letter_code(0) == 0
            discarded = bool(c.discard_mask & 1)
            assert discarded == was_identity
            hits[was_identity] += 1
        assert hits[True] > 0 and hits[False] > 0

    def test_builder_determinism(self):
        assert build_random(4, 9, seed=5) == build_random(4, 9, seed=5)

    def test_targets_are_z_type_and_signed(self):
        for seed in range(20):
            c = build_random(3, 6, seed=seed, reset=bool(seed % 2))
            assert is_z_type(c.target)
            assert c.target.sign in (1, -1)
            assert len(c.mcm_bit_order) == c.m

    def test_tracked_walk_replays_and_validates(self):
        # tracked_walk internally re-derives the target and checks that it
        # matches the stored one; spot-check the final component too.
        for seed in range(20):
            c = build_random(4, 8, seed=seed, reset=bool(seed % 2))
            walk = tracked_walk(c)
            assert walk.final.z == c.target.z >> c.m
            assert walk.final.sign == c.target.sign
            tampered = dataclasses.replace(c, target=c.target.with_sign(-c.target.sign))
            with pytest.raises(ValueError):
                tracked_walk(tampered)

    def test_empty_core_needs_wire_count(self):
        with pytest.raises(ValueError):
            build_qirb_circuit([], True, random.Random(0))


class TestZeroNoise:
    def test_every_shot_succeeds(self):
        noise = NoiseModel.zero()
        for seed in range(12):
            for reset in (True, False):
                c = build_random(1 + seed % 4, 2 + seed, seed=seed, reset=reset)
                res = simulate_result(c, noise, 64, seed=seed, with_counts=False)
                assert res.f_value == 1.0

    def test_binary_rb_degenerate_case(self):
        # p_mcm = 0 gives measurement-free circuits; still exact successes.
        noise = NoiseModel.zero()
        for seed in range(6):
            c = build_random(3, 6, seed=seed, p_mcm=0.0)
            assert c.m == 0
            res = simulate_result(c, noise, 32, seed=seed, with_counts=False)
            assert res.f_value == 1.0


class TestResetFree:
    def test_requires_reset_free_circuit(self):
        c = build_random(2, 3, seed=0, reset=True)
        with pytest.raises(ValueError):
            resolve_reset_free(c, [0] * c.m)

    def test_all_zero_bits_mean_no_correction(self):
        c = build_random(3, 5, seed=1, reset=False)
        assert resolve_reset_free(c, [0] * c.m) == 1

    def test_feedforward_emission(self):
        c = build_random(3, 5, seed=2, reset=False, p_mcm=1.0)
        bits = [1] + [0] * (c.m - 1)
        gates = resolve_reset_free(c, bits, mode="feedforward-x")
        assert gates == [(0, c.mcm_bit_order[0][1])]

    def test_resolver_matches_simulator_frames(self):
        # The standalone post-processor must reproduce the simulator's
        # per-shot frame sign: classify(outcome, sign) == recorded success.
        noise = NoiseModel.depolarizing(0.995, 0.99, 0.05)
        for seed in range(6):
            c = build_random(3, 6, seed=seed, reset=False)
            shots = simulate_shots(c, noise, 40, seed=seed)
            for rec in shots:
                mcm_bits = rec.outcome.bits[: c.m]
                sign = resolve_reset_free(c, mcm_bits)
                assert classify_outcome(c, rec.outcome, sign) == rec.success


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
            if d.pre_meas_component.letter_code(0) == 0:
                continue
            q = d.l2.mcm_wires[0]
            gate = next(g for g in d.l1.gates if g.wires[0] == q)
            code = c.initial_pauli.letter_code(q)
            component = SignedPauli(c.n, (code & 1) << q, ((code >> 1) & 1) << q, 1)
            image = conjugate((gate,), component)
            assert image.letters()[q] == "Z"
            signs[image.sign] += 1
        total = signs[1] + signs[-1]
        assert abs(signs[1] - total / 2) < 4 * (total * 0.25) ** 0.5


def _premeas_full(circuit, walk, i):
    d = circuit.dressed[i]
    s = walk.after_l2[i]
    z = s.z
    for j, q in enumerate(d.l2.mcm_wires):
        if d.pre_meas_component.letter_code(j):
            z |= 1 << q
    return SignedPauli(circuit.n, s.x, z, 1)


def _injection_points(circuit):
    walk = tracked_walk(circuit)
    yield ("prep",), walk.initial
    for i in range(circuit.depth):
        yield ("l1", i), walk.after_l1[i]
        yield ("l2", i), _premeas_full(circuit, walk, i)
        yield ("postmeas", i), walk.post_meas[i]
        yield ("l3", i), walk.after_l3[i]
    yield ("final",), walk.final


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
                inject = SignedPauli.from_string(
                    "".join(letter if w == wire else "I" for w in range(c.n))
                )
                expected_flip = not commutes(inject, tracked.with_sign(1))
                fault = (positions[tag], wire, every if letter in "XY" else 0,
                         every if letter in "ZY" else 0)
                failed, _ = _propagate(prog, shots, [fault], derive_np_rng(7), correct=not reset)
                assert failed == (every if expected_flip else 0), (tag, wire, letter)
