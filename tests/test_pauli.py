import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qirb.pauli import (
    CNOT_INDEX,
    NUM_ONEQ_CLIFFORDS,
    CircuitLayer,
    CliffordGate,
    SignedPauli,
    _X,
    _action_from_images,
    _compose_actions,
    clifford_action,
    cliffords_mapping_letter,
    cliffords_preparing,
    commutes,
    conjugate,
    pauli_gate_indices,
    random_pauli,
)


def sp(letters, sign=1):
    """The signed Pauli whose letter on wire q is ``letters[q]``."""
    x = sum(1 << q for q, ch in enumerate(letters) if ch in "XY")
    z = sum(1 << q for q, ch in enumerate(letters) if ch in "ZY")
    return SignedPauli(len(letters), x, z, sign)


def oneq_layer(index, wire, n):
    return CircuitLayer(n, (CliffordGate(index, (wire,)),))


def compose(outer, inner):
    """Index of the Clifford acting as ``inner`` first, then ``outer``."""
    actions = [clifford_action(i) for i in range(NUM_ONEQ_CLIFFORDS)]
    return actions.index(_compose_actions(actions[outer], actions[inner]))


def signed_image(index, letter):
    """('X', +1)-style signed image of a letter under Clifford ``index``."""
    code, sign = clifford_action(index)["IXZY".index(letter)]
    return "IXZY"[code], sign


def find_clifford(x_img, z_img):
    """Index of the Clifford with the given signed ('X', +1)-style images."""
    for i in range(NUM_ONEQ_CLIFFORDS):
        if signed_image(i, "X") == x_img and signed_image(i, "Z") == z_img:
            return i
    raise AssertionError("no such Clifford")


H = find_clifford(("Z", 1), ("X", 1))
S = find_clifford(("Y", 1), ("Z", 1))


class TestCommutes:
    def test_defining_anticommutation(self):
        assert commutes(sp("X"), sp("Z")) is False

    def test_self_commutation(self):
        assert commutes(sp("X"), sp("X")) is True

    def test_even_parity_of_anticommuting_sites(self):
        assert commutes(sp("XX"), sp("ZZ")) is True

    def test_wire_count_mismatch(self):
        with pytest.raises(ValueError):
            commutes(sp("X"), sp("XX"))


class TestConjugate:
    def test_hadamard_exchanges_z_and_x(self):
        assert conjugate(oneq_layer(H, 0, 1), sp("Z")) == sp("X")

    def test_cnot_propagates_control_x(self):
        layer = CircuitLayer(2, (CliffordGate(CNOT_INDEX, (0, 1)),))
        assert conjugate(layer, sp("XI")) == sp("XX")

    def test_phase_gate_squared_negates_x(self):
        # S X S^-1 = Y and S Y S^-1 = -X, composed by hand.
        once = conjugate(oneq_layer(S, 0, 1), sp("X"))
        assert once == sp("Y")
        twice = conjugate(oneq_layer(S, 0, 1), once)
        assert twice == sp("X", -1)

    def test_rejects_support_on_measured_wire(self):
        layer = CircuitLayer(2, (), mcm_wires=(0,))
        with pytest.raises(ValueError):
            conjugate(layer, sp("XI"))
        assert conjugate(layer, sp("IZ")) == sp("IZ")


class TestRandomPauli:
    def test_single_wire_frequencies(self):
        rng = random.Random(7)
        draws = 100_000
        counts = {"I": 0, "X": 0, "Y": 0, "Z": 0}
        for _ in range(draws):
            counts[random_pauli(1, rng).letters()] += 1
        sigma = (draws * 0.25 * 0.75) ** 0.5
        for letter in counts:
            assert abs(counts[letter] - draws / 4) < 3 * sigma

    def test_seeded_determinism(self):
        a = [random_pauli(5, random.Random(3)) for _ in range(10)]
        b = [random_pauli(5, random.Random(3)) for _ in range(10)]
        assert a == b

    def test_weight_distribution_binomial(self):
        rng = random.Random(11)
        draws = 100_000
        weights = [0] * 4
        for _ in range(draws):
            weights[random_pauli(3, rng).support().bit_count()] += 1
        # Binomial(3, 3/4) per weight class.
        from math import comb

        for w in range(4):
            p = comb(3, w) * 0.75**w * 0.25 ** (3 - w)
            sigma = (draws * p * (1 - p)) ** 0.5
            assert abs(weights[w] - draws * p) < 3 * sigma

    def test_sign_always_plus(self):
        rng = random.Random(0)
        assert all(random_pauli(4, rng).sign == 1 for _ in range(100))


class TestIsZType:
    # A Pauli is Z-type, every component I or Z, exactly when it has no X bits.
    def test_z_and_identity_entries(self):
        assert sp("ZIZ").x == 0

    def test_y_component_is_not(self):
        assert sp("Y").x != 0

    def test_identity_is_vacuously_z_type(self):
        assert sp("III") == SignedPauli(3, 0, 0, 1)


class TestCliffordTable:
    def test_group_size_and_inverses(self):
        seen = set()
        for i in range(NUM_ONEQ_CLIFFORDS):
            seen.add(clifford_action(i))
            inverses = [j for j in range(NUM_ONEQ_CLIFFORDS) if compose(j, i) == 0]
            assert len(inverses) == 1 and compose(i, inverses[0]) == 0
        assert len(seen) == 24

    def test_orders_divide_24_and_stay_at_most_4(self):
        for g in range(NUM_ONEQ_CLIFFORDS):
            power, k = g, 1
            while power != 0:
                power = compose(g, power)
                k += 1
            assert k <= 4

    def test_mapping_pools_have_eight_elements_with_balanced_signs(self):
        for src in "XZY":
            for dst in "XZY":
                pool = cliffords_mapping_letter(src, dst)
                assert len(pool) == 8
                signs = [clifford_action(i)[{"X": 1, "Z": 2, "Y": 3}[src]][1] for i in pool]
                assert signs.count(1) == 4 and signs.count(-1) == 4

    def test_preparation_pools(self):
        for letter in "XZY":
            assert len(cliffords_preparing(letter)) == 8

    def test_stored_images_anticommute(self):
        # Valid tableau: the images of X and Z stay anticommuting Paulis.
        for i in range(NUM_ONEQ_CLIFFORDS):
            img_x = sp(*signed_image(i, "X"))
            img_z = sp(*signed_image(i, "Z"))
            assert not commutes(img_x, img_z)
            assert img_x.sign in (1, -1) and img_z.sign in (1, -1)

    def test_pauli_gate_actions(self):
        idx_i, idx_x, idx_y, idx_z = pauli_gate_indices()
        assert conjugate(oneq_layer(idx_x, 0, 1), sp("Z")) == sp("Z", -1)
        assert conjugate(oneq_layer(idx_z, 0, 1), sp("X")) == sp("X", -1)
        assert conjugate(oneq_layer(idx_y, 0, 1), sp("X")) == sp("X", -1)
        assert conjugate(oneq_layer(idx_i, 0, 1), sp("Y")) == sp("Y")


@st.composite
def paulis(draw, n):
    x = draw(st.integers(0, 2**n - 1))
    z = draw(st.integers(0, 2**n - 1))
    sign = draw(st.sampled_from((1, -1)))
    return SignedPauli(n, x, z, sign)


@given(paulis(3), st.integers(0, 23), st.integers(0, 23), st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_conjugation_is_a_group_action(p, i, j, wire):
    via_two = conjugate(
        oneq_layer(i, wire, 3), conjugate(oneq_layer(j, wire, 3), p)
    )
    via_composite = conjugate(oneq_layer(compose(i, j), wire, 3), p)
    assert via_two == via_composite


@given(paulis(3), paulis(3), st.integers(0, 23), st.integers(0, 2), st.booleans())
@settings(max_examples=200, deadline=None)
def test_conjugation_preserves_commutation(p, q, idx, wire, use_cnot):
    if use_cnot:
        layer = CircuitLayer(3, (CliffordGate(CNOT_INDEX, (wire, (wire + 1) % 3)),))
    else:
        layer = oneq_layer(idx, wire, 3)
    assert commutes(p, q) == commutes(conjugate(layer, p), conjugate(layer, q))


@given(paulis(4), st.integers(0, 23), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_conjugation_keeps_paulis_hermitian(p, idx, wire):
    out = conjugate(oneq_layer(idx, wire, 4), p)
    assert out.sign in (1, -1)
    assert out.support().bit_count() == p.support().bit_count() or (p.x | p.z) != (out.x | out.z)


class TestCircuitLayer:
    def test_rejects_overlapping_support(self):
        with pytest.raises(ValueError):
            CircuitLayer(2, (CliffordGate(0, (0,)), CliffordGate(1, (0,))))
        with pytest.raises(ValueError):
            CircuitLayer(2, (CliffordGate(0, (1,)),), mcm_wires=(1,))

    def test_rejects_out_of_range_wires(self):
        with pytest.raises(ValueError):
            CircuitLayer(2, (CliffordGate(0, (2,)),))

    def test_pure_gate_layer_allowed(self):
        layer = CircuitLayer(3, (CliffordGate(0, (0,)),))
        assert layer.mcm_wires == ()


def test_non_hermitian_images_are_rejected():
    # Images X -> X and Z -> X would make Y map to an anti-Hermitian operator.
    with pytest.raises(ValueError, match="non-Hermitian"):
        _action_from_images((_X, 1), (_X, 1))
