import random
from collections import Counter

import numpy as np
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
from qirb.pauli import NO_GATE, SignedPauli, pauli_gate_indices
from qirb.sampler import SamplingConfig, sample_core_circuit
from qirb.simulator import NoiseModel, _batches, _bit_rows, simulate_result

from test_pauli import commutes, conjugate, layer, sp


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
    prep = layer(n)
    if sign < 0:
        assert tracked & 1
        prep = layer(n, [(pauli_gate_indices()[1], 0)])
    c = QirbCircuit(n, (prep, layer(n)), (0, 0), tracked, reset=True)
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
            q = c.layers[2][2][0]
            was_identity = not (tracked_walk(c).after[1][1] >> q) & 1  # after l1
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
            assert sum(len(mcms) for _, _, mcms in c.layers[2::3]) == c.m

    def test_layers_are_in_op_order(self):
        rng = random.Random(2)
        core = sample_core_circuit(SamplingConfig(n=3, p_cnot=0.35, p_mcm=0.5), 5, rng)
        c = build_qirb_circuit(core, True, rng, n=3)
        assert len(c.layers) == len(c.fresh) == 3 * 5 + 2
        assert c.layers[2::3] == tuple(core)

    def test_fresh_z_letters_follow_each_measurement(self):
        # The walk leaves Z on an l2's measured wires exactly where it
        # picks the tracked Pauli up again, and nowhere else.
        for seed in range(20):
            c = build_random(3, 4, seed=seed, p_mcm=0.8)
            after = tracked_walk(c).after
            for i in range(2, len(c.layers), 3):
                measured = sum(1 << q for q in c.layers[i][2])
                assert after[i][0] & measured == 0
                assert after[i][1] & measured == c.fresh[i]

    @pytest.mark.parametrize("where", ["prep", "l1", "l3", "final"])
    @pytest.mark.parametrize("op", ["measure", "cnot"])
    def test_only_core_layers_measure_or_hold_a_cnot(self, where, op):
        c = build_random(3, 2, seed=4, p_mcm=0.0)
        bad = layer(3, [(0, 0)], mcms=[2]) if op == "measure" else layer(3, cnots=[(2, 0)])
        layers = list(c.layers)
        layers[{"prep": 0, "l1": 1, "l3": 3, "final": -1}[where]] = bad
        with pytest.raises(ValueError, match="only core layers"):
            QirbCircuit(3, tuple(layers), c.fresh, c.tracked, c.reset)

    @pytest.mark.parametrize("count", [1, 7])
    def test_a_circuit_holds_3d_plus_2_layers(self, count):
        c = build_random(3, 2, seed=4)
        with pytest.raises(ValueError, match="3d \\+ 2 layers"):
            QirbCircuit(3, c.layers[:count], c.fresh[:count], c.tracked, c.reset)

    @pytest.mark.parametrize("fresh", [lambda f: f[:-1], lambda f: (*f, 0)])
    def test_one_fresh_mask_per_layer(self, fresh):
        c = build_random(3, 2, seed=4)
        with pytest.raises(ValueError, match="one fresh mask per layer"):
            QirbCircuit(3, c.layers, fresh(c.fresh), c.tracked, c.reset)

    @pytest.mark.parametrize("where", ["prep", "l1", "l2", "l3", "final"])
    @pytest.mark.parametrize("mask", [2, True])
    def test_fresh_sits_on_measured_wires(self, where, mask):
        # Only core layer 0 measures, on wire 0 alone: no layer may take Z
        # on wire 1 (mask 2), and a bool is no mask.
        c = build_random(3, 2, seed=4, p_mcm=0.0)
        layers = list(c.layers)
        layers[2] = layer(3, mcms=[0])
        fresh = [0] * len(layers)
        fresh[{"prep": 0, "l1": 1, "l2": 2, "l3": 3, "final": -1}[where]] = mask
        with pytest.raises(ValueError, match="fresh letters must sit"):
            QirbCircuit(3, tuple(layers), tuple(fresh), c.tracked, c.reset)

    def test_core_layers_must_span_n_wires(self):
        # A core layer never sets the wire count: every layer must span n wires.
        for core in ([layer(2)], [layer(3), layer(2)]):
            with pytest.raises(ValueError, match="3 wires"):
                build_qirb_circuit(core, True, random.Random(0), n=3)


@given(n=st.integers(1, 6), depth=st.integers(0, 10), mode=st.sampled_from(["at-most-one", "density"]),
       p_cnot=st.floats(0, 1), p_mcm=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_gate_counts_match_a_per_gate_count(n, depth, mode, p_cnot, p_mcm, seed):
    rng = random.Random(seed)
    config = SamplingConfig(n=n, p_cnot=p_cnot, p_mcm=p_mcm, mode=mode)
    c = build_qirb_circuit(sample_core_circuit(config, depth, rng), True, rng, n=n)
    ops, _ = circuit_ops(c)
    assert c.oneq_gate_count() == sum(1 for op in ops if op[0] == "gate")
    assert c.cnot_count() == sum(1 for op in ops if op[0] == "cnot")
    assert c.m == sum(1 for op in ops if op[0] == "measure") - n


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

    @pytest.mark.parametrize("bad", ["0", "1", 2, -1])
    def test_rejects_bits_other_than_zero_and_one(self, bad):
        # Counts keys are strings; their characters are not bits here.
        c = build_random(2, 4, seed=7, reset=False, p_mcm=0.6)
        assert c.m >= 1
        with pytest.raises(ValueError, match="other than 0 and 1"):
            resolve_reset_free(c, [0] * (c.m - 1) + [bad])

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
            q_meas = c.layers[2][2][0]
            for q, g in enumerate(c.layers[1][0]):
                if q != q_meas:
                    assert g in pauli_set
                    counter[g] += 1
        total = sum(counter.values())
        for idx in pauli_set:
            p = 0.25
            sigma = (total * p * (1 - p)) ** 0.5
            assert abs(counter[idx] - total * p) < 4 * sigma

    def test_measured_wire_rotations_balance_signs(self):
        # Pre-measurement alignment picks uniformly among all achieving
        # Cliffords, so the +/-Z image signs come out balanced.
        signs = Counter()
        for seed in range(400):
            c = build_random(2, 1, seed=seed, p_mcm=1.0)
            q = c.layers[2][2][0]
            x, z, _ = tracked_walk(c).after[0]  # after prep
            if not ((x | z) >> q) & 1:
                continue
            component = SignedPauli(c.n, x & (1 << q), z & (1 << q), 1)
            image = conjugate(layer(c.n, [(c.layers[1][0][q], q)]), component)
            assert image.letters()[q] == "Z"
            signs[image.sign] += 1
        total = signs[1] + signs[-1]
        assert abs(signs[1] - total / 2) < 4 * (total * 0.25) ** 0.5


def _injection_points(circuit):
    """(injection point, unsigned tracked Pauli there) along the walk. Just
    before a layer's measurements the measured wires carry the letters that
    l1 left (I or Z), just after them Z on the ``fresh`` wires, as the walk
    leaves the layer."""
    n = circuit.n
    after = tracked_walk(circuit).after
    yield ("prep",), SignedPauli(n, *after[0][:2])
    for i in range(circuit.depth):
        x1, z1, _ = after[3 * i + 1]
        x2, z2, _ = after[3 * i + 2]
        measured = sum(1 << q for q in circuit.layers[3 * i + 2][2])
        yield ("l1", i), SignedPauli(n, x1, z1)
        yield ("l2", i), SignedPauli(n, x2, (z2 & ~measured) | (z1 & measured))
        yield ("postmeas", i), SignedPauli(n, x2, z2)
        yield ("l3", i), SignedPauli(n, *after[3 * i + 3][:2])
    yield ("final",), SignedPauli(n, *after[-1][:2])


def circuit_ops(circuit):
    """The circuit in the frame simulator's op order, and the op position of
    each injection point.

    Gates run layer by layer, each layer's CNOTs first, then its
    single-qubit gates by wire and its MCMs, the final readouts last; a
    fault at position p acts just before op p. An op is ``("cnot", control,
    target)``, ``("gate", index, wire)`` or ``("measure", wire, outcome
    index)``.
    """
    ops, at = [], {}

    def gates(layer, tag):
        row, cnots, _ = layer
        ops.extend(("cnot", c, t) for c, t in cnots)
        ops.extend(("gate", g, q) for q, g in enumerate(row) if g != NO_GATE)
        at[tag] = len(ops)

    gates(circuit.layers[0], ("prep",))
    k = 0
    for i in range(circuit.depth):
        l1, l2, l3 = circuit.layers[3 * i + 1:3 * i + 4]
        gates(l1, ("l1", i))
        gates(l2, ("l2", i))
        for q in l2[2]:
            ops.append(("measure", q, k))
            k += 1
        at[("postmeas", i)] = len(ops)
        gates(l3, ("l3", i))
    gates(circuit.layers[-1], ("final",))
    ops += [("measure", q, circuit.m + q) for q in range(circuit.n)]
    return ops, at


def noise_rows(circuit):
    """``circuit_ops``'s ops and injection points, and every noise location
    of the frame simulator, by channel and in its order, as ``(position,
    wire[, target])`` on those ops: a fault at a location acts just before
    ``ops[position]``, one op per gate."""
    ops, at = circuit_ops(circuit)
    rows = {k: [] for k in ("oneq", "twoq", "pre", "post", "depol", "readout")}
    for pos, op in enumerate(ops):
        if op[0] == "cnot":
            rows["twoq"].append((pos + 1, op[1], op[2]))
        elif op[0] == "gate":
            rows["oneq"].append((pos + 1, op[2]))
        elif op[2] < circuit.m:
            rows["pre"].append((pos, op[1]))
            rows["post"].append((pos + 1, op[1]))
        else:
            rows["readout"].append((pos, op[1]))
    for i, (_, _, measured) in enumerate(circuit.layers[2::3]):
        if measured:
            rows["depol"] += [(at[("postmeas", i)], w) for w in range(circuit.n)
                              if w not in measured]
    return ops, at, rows


@pytest.mark.parametrize("reset", [True, False])
def test_single_error_injection_flips_iff_anticommuting(reset):
    """Exhaustive single-fault check on a small circuit.

    Injecting one Pauli at one location flips every shot's classification
    exactly when the Pauli anticommutes with the tracked Pauli there. The
    fault goes in at the wire's last noise location at or before the point,
    as the fault sampler places a drawn one; no op on the wire lies between.
    """
    from qirb.seeding import derive_np_rng
    from qirb.simulator import _add_faults, _compile, _propagate

    c = build_random(2, 3, seed=13, reset=reset, p_mcm=0.8)
    assert c.m >= 1
    prog = _compile(c)
    _, at, rows = noise_rows(c)
    shots = 24
    every = (1 << shots) - 1
    for tag, tracked in _injection_points(c):
        for wire in range(c.n):
            _, name, i, column = max(
                (pos, name, i, column) for name, walked in rows.items()
                for i, (pos, *wires) in enumerate(walked)
                for column, w in enumerate(wires, 1) if w == wire and pos <= at[tag])
            for letter in ("X", "Z", "Y"):
                inject = sp(
                    "".join(letter if w == wire else "I" for w in range(c.n))
                )
                expected_flip = not commutes(inject, tracked)
                letters = np.zeros((shots, 2), dtype=np.int64)
                letters[:, column - 1] = "IXZY".index(letter)
                fault = {}
                _add_faults(fault, name, prog.locations[name][[i] * shots], np.arange(shots),
                            letters if name == "twoq" else letters[:, 0])
                failed, _ = _propagate(prog, shots, fault, derive_np_rng(7), correct=not reset)
                assert failed == (every if expected_flip else 0), (tag, wire, letter, name)


@pytest.mark.parametrize("depth, message", [(0, "final layer"), (6, "l1 failed")])
def test_failed_z_alignment_raises(monkeypatch, depth, message):
    # A rotation pool holding only the identity cannot Z-align X or Y letters;
    # the check is an explicit error, so ``python -O`` keeps it.
    monkeypatch.setattr(builder, "cliffords_mapping_letter", lambda src, dst: (0,))
    with pytest.raises(RuntimeError, match=message):
        build_random(6, depth, seed=1, p_mcm=1.0)
