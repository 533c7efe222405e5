import ast
import glob
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import qirb
from qirb.pauli import NUM_ONEQ_CLIFFORDS, SignedPauli, clifford_action
from qirb.tableau import StabilizerTableau, TableauError

from test_pauli import H, S, conjugate, layer, sp  # canonical indices resolved from the table


def test_zero_state_measures_zero_deterministically():
    t = StabilizerTableau(1)
    assert t.is_deterministic(0)
    assert t.measure_z(0) == 0


def test_plus_state_measures_uniformly_and_collapses():
    rng = random.Random(5)
    counts = [0, 0]
    for _ in range(400):
        t = StabilizerTableau(1)
        t.apply_clifford(H, 0)
        bit = t.measure_z(0, forced=rng.getrandbits(1))
        counts[bit] += 1
        # Post-measurement state is the observed basis state.
        assert t.measure_z(0, forced=rng.getrandbits(1)) == bit
    assert abs(counts[0] - 200) < 3 * (400 * 0.25) ** 0.5


def test_bell_pair_correlations():
    rng = random.Random(9)
    patterns = {0: 0, 3: 0}
    for _ in range(400):
        t = StabilizerTableau(2)
        t.apply_clifford(H, 0)
        t.apply_cnot(0, 1)
        b0 = t.measure_z(0, forced=rng.getrandbits(1))
        b1 = t.measure_z(1, forced=rng.getrandbits(1))
        assert b0 == b1
        patterns[b0 * 3] += 1
    assert abs(patterns[0] - 200) < 3 * (400 * 0.25) ** 0.5


def test_expectation_tracks_conjugated_stabilizers():
    # Starting from |0..0>, the state after a gate sequence is stabilized by
    # the conjugated Z operators with their exact signs.
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randrange(1, 5)
        t = StabilizerTableau(n)
        gates = []  # one layer per gate
        for _ in range(rng.randrange(1, 12)):
            if n > 1 and rng.random() < 0.3:
                a = rng.randrange(n)
                b = (a + 1 + rng.randrange(n - 1)) % n
                gates.append(layer(n, cnots=[(a, b)]))
                t.apply_cnot(a, b)
            else:
                index, q = rng.randrange(24), rng.randrange(n)
                gates.append(layer(n, [(index, q)]))
                t.apply_clifford(index, q)
        for q in range(n):
            image = SignedPauli(n, 0, 1 << q, 1)
            for g in gates:
                image = conjugate(g, image)
            assert t.expectation(image) == 1
            assert t.expectation(SignedPauli(n, image.x, image.z, -image.sign)) == -1


def test_apply_pauli_flips_anticommuting_stabilizers():
    t = StabilizerTableau(1)
    t.apply_pauli(1, 0)  # X on |0> gives |1>
    assert t.measure_z(0) == 1
    t2 = StabilizerTableau(1)
    t2.apply_pauli(0, 1)  # Z on |0> does nothing observable
    assert t2.measure_z(0) == 0


def test_phase_gate_sign_via_tableau():
    # S|+> has stabilizer Y: measuring X basis statistics via conjugation.
    t = StabilizerTableau(1)
    t.apply_clifford(H, 0)
    t.apply_clifford(S, 0)
    assert t.expectation(sp("Y")) == 1

    image = conjugate(layer(1, [(S, 0)]), conjugate(layer(1, [(H, 0)]), sp("Z")))
    assert image == sp("Y")


def _erased_stabilizer():
    # The stabilizer row of |0> on wire 0 (row 2, Z0) becomes the identity.
    t = StabilizerTableau(2)
    t.z[0] = 0
    return t


def _anticommuting_stabilizers():
    # Stabilizer rows X0 (row 2) and Y0 (row 3): no state has both. Column
    # bit i is row i; rows 0 and 1 keep their destabilizers X0 and X1.
    t = StabilizerTableau(2)
    t.x[0], t.z[0] = 0b1101, 0b1000
    t.x[1], t.z[1] = 0b0010, 0
    return t


@pytest.mark.parametrize("corrupt", [_erased_stabilizer, _anticommuting_stabilizers])
def test_corrupted_tableau_raises(corrupt):
    # A caller that catches the error must not hold a half-updated tableau.
    t = corrupt()
    before = (list(t.x), list(t.z), t.r)
    with pytest.raises(TableauError):
        t.measure_z(0)
    assert (list(t.x), list(t.z), t.r) == before


def test_corrupted_tableau_raises_under_optimize():
    # ``python -O`` strips assert statements; the invariant checks must stay.
    code = (
        "import sys\n"
        "from qirb.tableau import StabilizerTableau, TableauError\n"
        "assert False, 'asserts are live'\n"
        "t = StabilizerTableau(2)\n"
        "t.z[0] = 0\n"
        "try:\n"
        "    t.measure_z(0)\n"
        "except TableauError:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(qirb.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda t: t.measure_z(0, forced=2), "forced", id="forced-2"),
    pytest.param(lambda t: t.measure_z(0, forced=-1), "forced", id="forced-minus-1"),
    pytest.param(lambda t: t.apply_cnot(0, 0), "CNOT", id="cnot-same-wire"),
    pytest.param(lambda t: t.apply_cnot(0, 2), "wire 2", id="cnot-wire-n"),
    pytest.param(lambda t: t.measure_z(2), "wire 2", id="measure-wire-n"),
    pytest.param(lambda t: t.measure_z(-1), "wire -1", id="measure-wire-minus-1"),
    pytest.param(lambda t: t.is_deterministic(2), "wire 2", id="deterministic-wire-n"),
    pytest.param(lambda t: t.apply_clifford(H, 2), "wire 2", id="clifford-wire-n"),
    pytest.param(lambda t: t.apply_clifford(H, -1), "wire -1", id="clifford-wire-minus-1"),
    pytest.param(lambda t: t.apply_clifford(-1, 0), "index -1", id="clifford-index-minus-1"),
    pytest.param(lambda t: t.apply_clifford(24, 0), "index 24", id="clifford-index-24"),
    pytest.param(lambda t: t.apply_clifford(-1, 1), "index -1", id="gate-index-minus-1"),
    pytest.param(lambda t: t.apply_clifford(25, 1), "index 25", id="gate-index-25"),
    pytest.param(lambda t: t.apply_pauli(0b100, 0), "outside", id="pauli-wire-n"),
    pytest.param(lambda t: t.apply_pauli(0, -1), "outside", id="pauli-negative-mask"),
    pytest.param(lambda t: t.expectation(SignedPauli(3, 0, 0b100)), "outside",
                 id="expectation-wire-n"),
])
def test_bad_arguments_raise_value_error_and_change_nothing(call, match):
    # A column is a list entry, so an unchecked x[-1] would act on the last
    # wire, and an unchecked gate index -1 would apply the last gate; a
    # forced 2 would be stored as a phase.
    t = StabilizerTableau(2)
    t.apply_clifford(H, 0)  # |+>|0>: wire 0 measures at random
    before = (list(t.x), list(t.z), t.r)
    with pytest.raises(ValueError, match=match):
        call(t)
    assert (list(t.x), list(t.z), t.r) == before


# --- an independent oracle: a dense state vector ---------------------------

_PAULI_MATRICES = {
    0: np.eye(2, dtype=complex),
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[1, 0], [0, -1]], dtype=complex),
    3: np.array([[0, -1j], [1j, 0]], dtype=complex),
}


def _unitary_action(u):
    """(code, sign) images of X, Z and Y under P -> U P U^dagger."""
    images = []
    for code in (1, 2, 3):
        image = u @ _PAULI_MATRICES[code] @ u.conj().T
        (match,) = [(c, s) for c in (1, 2, 3) for s in (1, -1)
                    if np.allclose(image, s * _PAULI_MATRICES[c])]
        images.append(match)
    return tuple(images)


def _clifford_unitaries():
    """A 2x2 unitary for each gate index, found by a breadth-first search over
    words in H and S matched on their numerically conjugated Paulis."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    s = np.array([[1, 0], [0, 1j]], dtype=complex)
    found, frontier = {}, [np.eye(2, dtype=complex)]
    while frontier:
        nxt = []
        for u in frontier:
            action = _unitary_action(u)
            if action not in found:
                found[action] = u
                nxt += [h @ u, s @ u]
        frontier = nxt
    assert len(found) == NUM_ONEQ_CLIFFORDS
    return [found[tuple(clifford_action(i)[c] for c in (1, 2, 3))]
            for i in range(NUM_ONEQ_CLIFFORDS)]


_UNITARIES = _clifford_unitaries()


class _StateVector:
    """|psi> over n wires; wire q is bit q of the basis index."""

    def __init__(self, n):
        self.n = n
        self.psi = np.zeros(2 ** n, dtype=complex)
        self.psi[0] = 1.0
        self.index = np.arange(2 ** n)

    def _bit(self, q):
        return (self.index >> q) & 1

    def apply_oneq(self, u, q):
        psi = self.psi.reshape(2 ** (self.n - 1 - q), 2, 2 ** q)
        self.psi = np.einsum("ab,ibj->iaj", u, psi).reshape(-1)

    def apply_cnot(self, c, t):
        self.psi = self.psi[self.index ^ (self._bit(c) << t)]

    def pauli_matrix(self, p):
        m = np.eye(1, dtype=complex)
        for q in reversed(range(self.n)):
            m = np.kron(m, _PAULI_MATRICES[p.letter_code(q)])
        return p.sign * m

    def prob_one(self, q):
        return float(np.sum(np.abs(self.psi[self._bit(q) == 1]) ** 2))

    def project(self, q, bit):
        self.psi = np.where(self._bit(q) == bit, self.psi, 0)
        self.psi /= np.linalg.norm(self.psi)


def test_tableau_matches_a_dense_state_vector():
    # Random Clifford+CNOT+Pauli+measure circuits on n <= 4: every outcome,
    # every is_deterministic against an outcome probability of 0 or 1 (or
    # 1/2), and the expectation of random signed Paulis.
    rng = random.Random(2024)
    measured = random_outcomes = 0
    for _ in range(250):
        n = rng.randrange(1, 5)
        t, sv = StabilizerTableau(n), _StateVector(n)
        for _ in range(rng.randrange(1, 30)):
            u = rng.random()
            if u < 0.45:
                index, q = rng.randrange(NUM_ONEQ_CLIFFORDS), rng.randrange(n)
                t.apply_clifford(index, q)
                sv.apply_oneq(_UNITARIES[index], q)
            elif u < 0.65 and n > 1:
                c, tw = rng.sample(range(n), 2)
                t.apply_cnot(c, tw)
                sv.apply_cnot(c, tw)
            elif u < 0.72:
                p = SignedPauli(n, rng.getrandbits(n), rng.getrandbits(n))
                t.apply_pauli(p.x, p.z)
                sv.psi = sv.pauli_matrix(p) @ sv.psi
            else:
                q, forced = rng.randrange(n), rng.getrandbits(1)
                p1 = sv.prob_one(q)
                if np.isclose(p1, 0.5):
                    assert not t.is_deterministic(q)
                    random_outcomes += 1
                    expected = forced
                else:
                    assert np.isclose(p1, 0.0) or np.isclose(p1, 1.0), p1
                    assert t.is_deterministic(q)
                    expected = round(p1)
                assert t.measure_z(q, forced=forced) == expected
                sv.project(q, expected)
                measured += 1
            for _ in range(3):
                p = SignedPauli(n, rng.getrandbits(n), rng.getrandbits(n), rng.choice((1, -1)))
                value = np.vdot(sv.psi, sv.pauli_matrix(p) @ sv.psi)
                assert np.isclose(value.imag, 0.0) and np.isclose(value.real, round(value.real))
                assert t.expectation(p) == {1: 1, -1: -1, 0: None}[round(value.real)]
    assert measured > 500 and random_outcomes > 100


def test_no_assert_statements_in_src():
    # Every invariant of the package must survive ``python -O``.
    pkg = os.path.dirname(os.path.abspath(qirb.__file__))
    paths = sorted(glob.glob(os.path.join(pkg, "*.py")))
    assert paths
    found = []
    for path in paths:
        with open(path) as f:
            tree = ast.parse(f.read(), filename=path)
        found += [f"{os.path.basename(path)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
