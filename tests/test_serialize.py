"""The qirb-3 circuit encoding: round trips, strict decoding, a pinned file."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qirb import serialize
from qirb.builder import build_qirb_circuit
from qirb.cli import main
from qirb.pauli import CircuitLayer, CliffordGate
from qirb.sampler import SamplingConfig, complete_graph, sample_core_circuit
from qirb.serialize import SchemaError
from qirb.simulator import NoiseModel, simulate_result


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 6))
    edges = complete_graph(n)
    connectivity = draw(st.one_of(
        st.none(), st.lists(st.sampled_from(edges), unique=True).map(tuple)
    )) if edges else None
    reset = draw(st.booleans())
    config = SamplingConfig(
        n=n,
        p_cnot=draw(st.floats(0.0, 1.0)),
        p_mcm=draw(st.floats(0.0, 1.0)),
        connectivity=connectivity,
        mode=draw(st.sampled_from(["at-most-one", "density"])),
    )
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    core = sample_core_circuit(config, draw(st.integers(0, 6)), rng)
    return build_qirb_circuit(core, reset, rng, n=n)


def json_round_trip(obj):
    return json.loads(json.dumps(obj))


@given(circuit=circuits())
@settings(max_examples=150, deadline=None)
def test_circuit_round_trip(circuit):
    obj = json_round_trip(serialize.circuit_to_obj(circuit))
    assert serialize.circuit_from_obj(obj) == circuit


# Characters an edit may insert: the token alphabet, plus near misses.
_EDIT_CHARS = "Ccm.0123456789 -+xM٣\t"


@st.composite
def edits(draw, text):
    kind = draw(st.sampled_from(["insert", "delete", "replace", "swap", "duplicate"]))
    tokens = text.split(" ") if text else []
    if kind in ("swap", "duplicate") and len(tokens) >= 1:
        i = draw(st.integers(0, len(tokens) - 1))
        j = draw(st.integers(0, len(tokens) - 1))
        if kind == "swap":
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens.insert(j, tokens[i])
        return " ".join(tokens)
    if kind == "insert" or not text:
        pos = draw(st.integers(0, len(text)))
        return text[:pos] + draw(st.sampled_from(_EDIT_CHARS)) + text[pos:]
    pos = draw(st.integers(0, len(text) - 1))
    tail = text[pos + 1:]
    if kind == "delete":
        return text[:pos] + tail
    return text[:pos] + draw(st.sampled_from(_EDIT_CHARS)) + tail


@given(circuit=circuits(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_edited_layer_decodes_checked_or_raises_schema_error(circuit, data):
    obj = json_round_trip(serialize.circuit_to_obj(circuit))
    holders = [(obj, "prep"), (obj, "final")]
    holders += [(e, k) for e in obj["layers"] for k in ("l1", "l2", "l3")]
    holder, key = data.draw(st.sampled_from(holders))
    for _ in range(data.draw(st.integers(1, 3))):
        holder[key] = data.draw(edits(holder[key]))
    try:
        decoded = serialize.circuit_from_obj(obj)
    except SchemaError:
        return
    # Whatever decodes is canonical: it encodes back to the edited file.
    assert serialize.circuit_to_obj(decoded) == obj


@given(circuit=circuits(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_edited_circuit_is_a_valid_benchmark_or_raises_schema_error(circuit, data):
    # One sampled fact changes: a single-qubit gate's index, or one letter of
    # ``tracked`` or ``fresh``. Whatever still decodes tracks its Pauli, so a
    # noiseless run succeeds on every shot.
    obj = json_round_trip(serialize.circuit_to_obj(circuit))
    slots = [(obj, "tracked")] + [(e, "fresh") for e in obj["layers"] if "fresh" in e]
    slots += [(obj, "prep"), (obj, "final")]
    slots += [(e, k) for e in obj["layers"] for k in ("l1", "l2", "l3")]
    holder, key = data.draw(st.sampled_from(slots))
    text = holder[key]
    if key in ("tracked", "fresh"):
        i = data.draw(st.integers(0, len(text) - 1))
        holder[key] = text[:i] + ("I" if text[i] == "Z" else "Z") + text[i + 1:]
    else:
        tokens = text.split(" ")
        gates = [i for i, t in enumerate(tokens) if t.startswith("C")]
        if not gates:
            return
        i = data.draw(st.sampled_from(gates))
        index = data.draw(st.integers(0, 23))
        tokens[i] = f"C{index}.{tokens[i].split('.')[1]}"
        holder[key] = " ".join(tokens)
    try:
        decoded = serialize.circuit_from_obj(obj)
    except SchemaError:
        return
    res = simulate_result(decoded, NoiseModel.zero(), 32, seed=1, with_counts=False)
    assert res.f_value == 1.0


@pytest.mark.parametrize("text", [
    "C3.01", "C03.1", "C24.0", "C3.1.0", "C3", "c2.2", "c0", "m0.1", "m", "x0", "C-1.0",
    "C3.0  C5.1", " C3.0", "C3.0 ", "C3.0 C5.0", "m1 C3.0", "C3.2 m1 m0", "m0 m0",
    "C٣.0", "C3.5",
])
def test_non_canonical_layers_are_rejected(text):
    with pytest.raises(ValueError):
        serialize.layer_from_str(text, 3)


def test_layer_tokens_in_op_order():
    layer = CircuitLayer(4, (CliffordGate(24, (3, 0)), CliffordGate(7, (2,))), (1,))
    text = serialize.layer_to_str(layer)
    assert text == "c3.0 C7.2 m1"
    assert serialize.layer_from_str(text, 4) == layer
    assert serialize.layer_to_str(CircuitLayer(2)) == ""


@pytest.mark.parametrize("text", ["+", "IZ", "*IZ", "+IQ", 1])
def test_malformed_pauli_strings_are_rejected(text):
    with pytest.raises((ValueError, KeyError)):
        serialize.pauli_from_str(text)


# Changes only when the circuits.json format or the sampled circuits change.
PINNED_CIRCUITS_SHA256 = "11a655274000defd48aa27ba480a63a696054abdd304e3b490ac292fa226ca52"


def test_circuits_file_is_pinned(tmp_path):
    assert main(["design", "--n", "3", "--p-cnot", "0.4", "--p-mcm", "0.3",
                 "--depths", "0,2,5", "--circuits-per-depth", "2", "--no-reset",
                 "--seed", "11", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "circuits.json").read_bytes()).hexdigest()
    assert digest == PINNED_CIRCUITS_SHA256
