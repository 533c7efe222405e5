import ast
import glob
import os
import random
import subprocess
import sys

import pytest

import qirb
from qirb.pauli import CNOT_INDEX, CliffordGate, SignedPauli, conjugate
from qirb.tableau import StabilizerTableau, TableauError

from test_pauli import H, S, sp  # canonical indices resolved from the table


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
        gates = []
        for _ in range(rng.randrange(1, 12)):
            if n > 1 and rng.random() < 0.3:
                a = rng.randrange(n)
                b = (a + 1 + rng.randrange(n - 1)) % n
                g = CliffordGate(CNOT_INDEX, (a, b))
            else:
                g = CliffordGate(rng.randrange(24), (rng.randrange(n),))
            gates.append(g)
            t.apply_gate(g.index, g.wires)
        layer_gates = tuple(gates)
        for q in range(n):
            z_q = SignedPauli(n, 0, 1 << q, 1)
            image = conjugate(layer_gates, z_q)
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

    image = conjugate(
        (CliffordGate(H, (0,)), CliffordGate(S, (0,))), sp("Z")
    )
    assert image == sp("Y")


def _erased_stabilizer():
    # The stabilizer row of |0> on wire 0 becomes the identity.
    t = StabilizerTableau(2)
    t.z[2] = 0
    return t


def _anticommuting_stabilizers():
    # Stabilizer rows X0 and Y0: no state has both.
    t = StabilizerTableau(2)
    t.x[2], t.z[2] = 1, 0
    t.x[3], t.z[3] = 1, 1
    return t


@pytest.mark.parametrize("corrupt", [_erased_stabilizer, _anticommuting_stabilizers])
def test_corrupted_tableau_raises(corrupt):
    with pytest.raises(TableauError):
        corrupt().measure_z(0)


def test_corrupted_tableau_raises_under_optimize():
    # ``python -O`` strips assert statements; the invariant checks must stay.
    code = (
        "import sys\n"
        "from qirb.tableau import StabilizerTableau, TableauError\n"
        "assert False, 'asserts are live'\n"
        "t = StabilizerTableau(2)\n"
        "t.z[2] = 0\n"
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
