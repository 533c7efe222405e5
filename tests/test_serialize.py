"""The qirb-3 circuit encoding: round trips, strict decoding, a pinned file."""

import hashlib
import json
import random

import numpy as np
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


def test_deep_circuit_tracks_more_than_4096_virtual_wires():
    # Every layer measures both wires: the target lives on n + m = 4,202
    # virtual wires, past any fixed wire cap.
    config = SamplingConfig(n=2, p_cnot=0.0, p_mcm=1.0, mode="density")
    rng = random.Random(5)
    circuit = build_qirb_circuit(sample_core_circuit(config, 2100, rng), True, rng, n=2)
    decoded = serialize.circuit_from_obj(json_round_trip(serialize.circuit_to_obj(circuit)))
    assert decoded == circuit and decoded.m == 4200
    assert decoded.target.n == 4202
    res = simulate_result(decoded, NoiseModel.zero(), 64, seed=1, with_counts=False)
    assert res.n_success == res.shots


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
    assert res.n_success == res.shots


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


# Changes only when the circuits.json format or the sampled circuits change.
PINNED_CIRCUITS_SHA256 = "11a655274000defd48aa27ba480a63a696054abdd304e3b490ac292fa226ca52"


def test_circuits_file_is_pinned(tmp_path):
    assert main(["design", "--n", "3", "--p-cnot", "0.4", "--p-mcm", "0.3",
                 "--depths", "0,2,5", "--circuits-per-depth", "2", "--no-reset",
                 "--seed", "11", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "circuits.json").read_bytes()).hexdigest()
    assert digest == PINNED_CIRCUITS_SHA256


# The connectivity draws, in each sampling mode, on an n = 4 line; same
# provenance as PINNED_CIRCUITS_SHA256.
PINNED_EDGES_CIRCUITS_SHA256 = {
    "at-most-one": "0f42a5d962d2ac24c46c04684865b3104b938a0a67ae8c75c136b5df54ef4d95",
    "density": "5195f4dc501a4bdb4561dcd9a724a3d5919ff5d0613315746a2ff7fe94d7c5f5",
}


@pytest.mark.parametrize("mode", sorted(PINNED_EDGES_CIRCUITS_SHA256))
def test_edges_circuits_file_is_pinned(tmp_path, mode):
    (tmp_path / "line.json").write_text('{"edges": [[0, 1], [1, 2], [2, 3]]}')
    assert main(["design", "--n", "4", "--p-cnot", "0.4", "--p-mcm", "0.3",
                 "--depths", "0,2,5", "--circuits-per-depth", "2", "--seed", "11",
                 "--edges", str(tmp_path / "line.json"), "--mode", mode,
                 "--out", str(tmp_path / "out")]) == 0
    digest = hashlib.sha256((tmp_path / "out" / "circuits.json").read_bytes()).hexdigest()
    assert digest == PINNED_EDGES_CIRCUITS_SHA256[mode]


# Changes only when the simulator's draws, the file formats or the
# prediction change, or when numpy changes its Generator streams, which it
# does not promise to keep across releases.
PINNED_RUN_SHA256 = {
    "reset.json": "4e231df56280d20029321babae814104b154d63415e74d0e9f9fa907b8b31ed7",
    "frame-correction.json": "2ebd4c9df593bef5dcd33d465943397147c15d286b90d8cb97a74a67c8479155",
    "feedforward-x.json": "5a3c42341da52d2b65acd690036eb466fe14deda9796bcbc414edbc96ffce25c",
    "reset.curve.csv": "4e3cbc8da7635464eeb185cc12e3080e1aff8a69b2224477bac8059e50f86e4b",
    "predict.stdout": "4eeb6264ce3583b9d5b93195514a1e0e2237c6ea3ba646e8c1b62d609b84183a",
}


def test_run_outputs_are_pinned(tmp_path, capsys):
    shape = ["--n", "2", "--p-cnot", "0.4", "--p-mcm", "0.3", "--depths", "0,2,5"]
    noise = ["--f1q", "0.99", "--f2q", "0.97", "--mcm-flip", "0.05"]
    for reset in ("reset", "no-reset"):
        assert main(["design", *shape, "--circuits-per-depth", "2", "--shots", "40",
                     "--seed", "11", f"--{reset}", "--out", str(tmp_path / reset)]) == 0
    for out, reset, mode in [("reset", "reset", "frame-correction"),
                             ("frame-correction", "no-reset", "frame-correction"),
                             ("feedforward-x", "no-reset", "feedforward-x")]:
        assert main(["simulate", "--circuits", str(tmp_path / reset / "circuits.json"), *noise,
                     "--reset-free-mode", mode, "--out", str(tmp_path / f"{out}.json")]) == 0
    assert main(["analyze", str(tmp_path / "reset.json"), "--bootstrap", "4",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["predict", *shape, *noise]) == 0
    (tmp_path / "predict.stdout").write_text(capsys.readouterr().out)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED_RUN_SHA256}
    assert digests == PINNED_RUN_SHA256, f"pinned with numpy 2.4.6, run with numpy {np.__version__}"


# An n = 8 run, where a random measurement's pivot can be any of 8
# stabilizer rows; same provenance as PINNED_RUN_SHA256.
PINNED_WIDE_RUN_SHA256 = {
    "reset.json": "cefbccc1556258d535b5d7cf5d66dec0081b12fd952d28ebd144020395b67920",
    "frame-correction.json": "73876c294ea7e8679d8c8218fa5959813e44fb3551b6a93dc01b51881c3caaa4",
}


def test_wide_run_outputs_are_pinned(tmp_path):
    shape = ["--n", "8", "--p-cnot", "0.4", "--p-mcm", "0.3", "--depths", "0,3,8"]
    noise = ["--f1q", "0.99", "--f2q", "0.97", "--mcm-flip", "0.05"]
    for reset in ("reset", "no-reset"):
        assert main(["design", *shape, "--circuits-per-depth", "3", "--shots", "40",
                     "--seed", "11", f"--{reset}", "--out", str(tmp_path / reset)]) == 0
    for out, reset in [("reset", "reset"), ("frame-correction", "no-reset")]:
        assert main(["simulate", "--circuits", str(tmp_path / reset / "circuits.json"), *noise,
                     "--reset-free-mode", "frame-correction",
                     "--out", str(tmp_path / f"{out}.json")]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED_WIDE_RUN_SHA256}
    assert digests == PINNED_WIDE_RUN_SHA256, f"pinned with numpy 2.4.6, run with numpy {np.__version__}"


# An n = 6 run under an asymmetric noise file (px, py and pz differ; the
# post-flip, unmeasured-wire and readout channels are on), with MCMs in most
# layers, so that the unmeasured-wire Paulis land between single-qubit gates;
# same provenance as PINNED_RUN_SHA256.
PINNED_ASYMMETRIC_RUN_SHA256 = {
    "reset.json": "74f4e8cbcc2f835a3b04fe1cbecaa5dad98f8da75f88c82cf3414fdb38b5efa1",
    "frame-correction.json": "26ec0cd577a8e544e68369cc2b09b2bc4fc27b4360c3d198638bb2047ece47dd",
    "feedforward-x.json": "1e4651632c66b526be0e69faffc216ff07f100015b1add675a16f8e340f3178d",
}

_ASYMMETRIC_NOISE = {
    "schema": serialize.SCHEMA_VERSION, "kind": "noise",
    "oneq": {"px": 0.002, "py": 0.005, "pz": 0.009},
    "twoq": {"eps_each": 0.001},
    "mcm": {"pre_flip": 0.03, "post_flip": 0.01, "unmeasured_depol": 0.05},
    "readout_flip": 0.02,
}


def test_asymmetric_noise_run_outputs_are_pinned(tmp_path):
    shape = ["--n", "6", "--p-cnot", "0.4", "--p-mcm", "0.6", "--depths", "0,2,5"]
    (tmp_path / "noise.json").write_text(json.dumps(_ASYMMETRIC_NOISE))
    for reset in ("reset", "no-reset"):
        assert main(["design", *shape, "--circuits-per-depth", "2", "--shots", "200",
                     "--seed", "11", f"--{reset}", "--out", str(tmp_path / reset)]) == 0
    for out, reset, mode in [("reset", "reset", "frame-correction"),
                             ("frame-correction", "no-reset", "frame-correction"),
                             ("feedforward-x", "no-reset", "feedforward-x")]:
        assert main(["simulate", "--circuits", str(tmp_path / reset / "circuits.json"),
                     "--noise", str(tmp_path / "noise.json"), "--reset-free-mode", mode,
                     "--out", str(tmp_path / f"{out}.json")]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED_ASYMMETRIC_RUN_SHA256}
    assert digests == PINNED_ASYMMETRIC_RUN_SHA256, f"pinned with numpy 2.4.6, run with numpy {np.__version__}"
