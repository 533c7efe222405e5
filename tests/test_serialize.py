"""The qirb-4 circuit encoding: round trips, strict decoding, pinned files."""

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
from qirb.pauli import NO_GATE
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


# Characters an edit may insert: the layer alphabet, plus near misses.
_EDIT_CHARS = "AHXYZam-.0123456789 +xM٣\t"


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
    # One sampled fact changes: a single-qubit gate's Clifford, or one letter
    # of ``tracked`` or ``fresh``. Whatever still decodes tracks its Pauli, so
    # a noiseless run succeeds on every shot.
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
        gates = [i for i, ch in enumerate(text.split(" ")[0]) if "A" <= ch <= "X"]
        if not gates:
            return
        i = data.draw(st.sampled_from(gates))
        holder[key] = text[:i] + chr(ord("A") + data.draw(st.integers(0, 23))) + text[i + 1:]
    try:
        decoded = serialize.circuit_from_obj(obj)
    except SchemaError:
        return
    res = simulate_result(decoded, NoiseModel.zero(), 32, seed=1, with_counts=False)
    assert res.n_success == res.shots


def decode_core_layer(text, n=3):
    """A depth-1 circuit whose core layer is the string ``text``, between idle
    layers; the tracked Pauli is I throughout, so only the layer itself can
    fail to decode."""
    entry = {"l1": "-" * n, "l2": text, "l3": "-" * n}
    if type(text) is str and "m" in text.split(" ")[0]:
        entry["fresh"] = "I" * text.split(" ")[0].count("m")
    return serialize.circuit_from_obj({"n": n, "reset": True, "prep": "-" * n, "layers": [entry],
                                       "final": "-" * n, "tracked": "I" * n})


# Each case is named by the qirb-3 layer it ports, as the same damage to a
# qirb-4 layer on 3 wires; the new cases follow.
@pytest.mark.parametrize("text", [
    pytest.param("--A 0.01", id="C3.01"),  # a leading zero
    pytest.param("--A 00.1", id="C03.1"),
    pytest.param("YAB", id="C24.0"),  # no Clifford's character
    pytest.param("--A 0.1.0", id="C3.1.0"),  # a third wire
    pytest.param("AB", id="C3"),  # a wire missing
    pytest.param("A-- 2.2", id="c2.2"),  # a CNOT on one wire
    pytest.param("--A 0", id="c0"),
    pytest.param("ABCm", id="m0.1"),  # a measurement past the last wire
    pytest.param("m", id="m"),
    pytest.param("xAB", id="x0"),
    pytest.param("--A -1.0", id="C-1.0"),
    pytest.param("--A  0.1", id="C3.0  C5.1"),  # a double space
    pytest.param(" ABC", id=" C3.0"),
    pytest.param("ABC ", id="C3.0 "),
    pytest.param("--- 0.1 1.2", id="C3.0 C5.0"),  # a wire used twice
    pytest.param("0.1 --A", id="m1 C3.0"),  # out of order: a CNOT before the row
    pytest.param("m-A 0.1", id="m0 m0"),  # a measured wire used again
    pytest.param("A٣B", id="C٣.0"),
    pytest.param("--A 0.5", id="C3.5"),  # a wire out of range
    pytest.param("A-B 0.1", id="clifford-on-cnot-wire"),
    pytest.param("", id="empty"),
])
def test_non_canonical_layers_are_rejected(text):
    with pytest.raises(SchemaError):
        decode_core_layer(text)


def test_layer_tokens_in_op_order():
    # The row, one character per wire, then the CNOTs in their listed order.
    row = bytes([NO_GATE, NO_GATE, 7, NO_GATE, NO_GATE, NO_GATE])
    layer = (row, ((3, 0), (1, 4)), (5,))
    text = serialize._encode_layer(layer)
    assert text == "--H--m 3.0 1.4"
    assert serialize._decode_layer(text) == layer
    assert decode_core_layer(text, n=6).layers[2] == layer
    assert serialize._encode_layer((bytes([NO_GATE] * 2), (), ())) == "--"


# Changes only when the circuits.json format or the sampled circuits change.
PINNED_CIRCUITS_SHA256 = "cdc99361ffa38f14983c0282ed1d8e4e0c78026b8214b3cfc689b3f19bad0fd1"


def test_circuits_file_is_pinned(tmp_path):
    assert main(["design", "--n", "3", "--p-cnot", "0.4", "--p-mcm", "0.3",
                 "--depths", "0,2,5", "--circuits-per-depth", "2", "--no-reset",
                 "--seed", "11", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "circuits.json").read_bytes()).hexdigest()
    assert digest == PINNED_CIRCUITS_SHA256


# The connectivity draws, in each sampling mode, on an n = 4 line; same
# provenance as PINNED_CIRCUITS_SHA256.
PINNED_EDGES_CIRCUITS_SHA256 = {
    "at-most-one": "67508d90a345b780800d8967515b6ab2b497a56246c72f8db08a0be27fe6a1ce",
    "density": "149b29a74c98b688bc52f8d3fa150f7323d0695ed6b8479142d499714a3f71d4",
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


def outcome_digest(path):
    """sha256 of what a results file says about the shots: canonical JSON of
    its design, noise and reset-free mode and of each entry's id, depth,
    totals and counts. The schema stamp and the circuits are left out, so
    the digest holds across circuit encodings."""
    obj = json.loads(path.read_text())
    kept = {key: obj[key] for key in ("design", "noise", "reset_free_mode")}
    kept["results"] = [{key: e[key] for key in ("id", "depth", "n_success", "n_fail", "counts")}
                       for e in obj["results"]]
    return hashlib.sha256(json.dumps(kept, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def outcome_digests(tmp_path, pinned):
    return {name: outcome_digest(tmp_path / name) for name in pinned}


# Changes only when the simulator's draws, the file formats or the
# prediction change, or when numpy changes its Generator streams, which it
# does not promise to keep across releases. The outcome digests change only
# with the draws and numpy, not with the circuit encoding.
PINNED_RUN_SHA256 = {
    "reset.json": "e3c9008451bc7a4d6f2b23a3ba6d7817eb036b500043852efdf7d8735c597b6a",
    "frame-correction.json": "7224e0781937a3eb253039d929094f431279710c6d19ef29ea10fb41111fd5a7",
    "feedforward-x.json": "f9706a282800c6d05f5a0ca998ded47b3bec8809028f6bd4ac84c45dd3258e49",
    "reset.curve.csv": "4e3cbc8da7635464eeb185cc12e3080e1aff8a69b2224477bac8059e50f86e4b",
    "predict.stdout": "4eeb6264ce3583b9d5b93195514a1e0e2237c6ea3ba646e8c1b62d609b84183a",
}
PINNED_RUN_OUTCOME_SHA256 = {
    "reset.json": "a803147b50680e748fa2f87ca1836d3bd8714f7c4636bfd1a6bf4e2b512859a1",
    "frame-correction.json": "2476d82b97122df07d1386e1cfb8773c969cbc1a049a4a74118512d6011b0616",
    "feedforward-x.json": "1a2803e83e116ed3be2b3187d59f3075cef89333cfd67475088b255b3a3f3d62",
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
    assert outcome_digests(tmp_path, PINNED_RUN_OUTCOME_SHA256) == PINNED_RUN_OUTCOME_SHA256


# An n = 8 run, where a random measurement's pivot can be any of 8
# stabilizer rows; same provenance as PINNED_RUN_SHA256.
PINNED_WIDE_RUN_SHA256 = {
    "reset.json": "89b7e6637a00d9629cfd0a8466903e1238937117746065217d77d0aed687fa33",
    "frame-correction.json": "aab5e4d742781269c70513596fd028cd6e839d2e2240d62bdffd87ee1eb68a15",
}
PINNED_WIDE_RUN_OUTCOME_SHA256 = {
    "reset.json": "782936cadfec3abf2a20dd9ef7485092fe45315ca6b7cfea340ca5412970a2de",
    "frame-correction.json": "9e965c7c7daa71a7fcf64ef4929610c35058f15c28cd564e80e498e9e50021bb",
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
    assert outcome_digests(tmp_path, PINNED_WIDE_RUN_OUTCOME_SHA256) == PINNED_WIDE_RUN_OUTCOME_SHA256


# An n = 6 run under an asymmetric noise file (px, py and pz differ; the
# post-flip, unmeasured-wire and readout channels are on), with MCMs in most
# layers, so that the unmeasured-wire Paulis land between single-qubit gates;
# same provenance as PINNED_RUN_SHA256.
PINNED_ASYMMETRIC_RUN_SHA256 = {
    "reset.json": "28ec7c8db98ec6c914c1ced88639ba374d61a467acc4cd629dc4689ec72a75f8",
    "frame-correction.json": "2756d5dc0535c678550c25ad2246f0e1ecb495f39b68d635ad3b1099cdde084f",
    "feedforward-x.json": "c64d18330709cc8bab9f669b5d2e416e79e716c3031faf3aae38e84a5c6f8668",
}
PINNED_ASYMMETRIC_RUN_OUTCOME_SHA256 = {
    "reset.json": "3610db6c24b7180dd375e378d228f67e24daec1295c2ee9a95b39c24f419ae7e",
    "frame-correction.json": "a1e86ab34ebcee9d231f7c735a119a3d622466dfebe749b14da5a21564948394",
    "feedforward-x.json": "1de941eda909c826b6b2acebe1c3f1340786206c5e563df636585c85797ea8dc",
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
    assert (outcome_digests(tmp_path, PINNED_ASYMMETRIC_RUN_OUTCOME_SHA256)
            == PINNED_ASYMMETRIC_RUN_OUTCOME_SHA256)


# The density-mode prediction on an n = 3 line: a Monte Carlo over 20,000
# sampled core layers. Changes only when the layer draws or the prediction
# change.
PINNED_DENSITY_PREDICT_SHA256 = "ce5119ba5fd3ef36f3b02e825bcb08557d90930e2fbf506f718121bb30732053"


def test_density_predict_is_pinned(tmp_path, capsys):
    (tmp_path / "line.json").write_text('{"edges": [[0, 1], [1, 2]]}')
    assert main(["predict", "--n", "3", "--p-cnot", "0.35", "--p-mcm", "0.2",
                 "--edges", str(tmp_path / "line.json"), "--mode", "density"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_DENSITY_PREDICT_SHA256
