"""Stable JSON encodings for every file the toolchain reads or writes.

Every file carries ``{"schema": "qirb-1", "kind": ...}``; a mismatch is a
hard error, never a silent reinterpretation. Gates are written by their
canonical names (``C0``..``C23``, ``cnot``) plus ``measure`` records, so the
files stay diffable. Writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager

from .builder import DressedLayer, QirbCircuit
from .pauli import CircuitLayer, CliffordGate, SignedPauli, clifford_index_from_name
from .simulator import (
    InstrumentErrorSpec,
    NoiseModel,
    OneQubitPauliChannel,
    TwoQubitDepolarizing,
)

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "malformed_as_schema_error",
    "write_json",
    "read_json",
    "check_kind",
    "pauli_to_obj",
    "pauli_from_obj",
    "layer_to_ops",
    "layer_from_ops",
    "circuit_to_obj",
    "circuit_from_obj",
    "noise_to_obj",
    "noise_from_obj",
]

SCHEMA_VERSION = "qirb-1"


class SchemaError(Exception):
    """A file that does not match its schema: version, kind, JSON or content."""


@contextmanager
def malformed_as_schema_error(what: str):
    """Re-raise lookup, type and value errors of decoding ``what`` as SchemaError."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise SchemaError(f"malformed {what}: {type(exc).__name__}: {exc}") from exc


def write_json(path: str, obj: dict) -> None:
    """Atomic, byte-stable JSON write (sorted keys, fixed layout)."""
    text = json.dumps(obj, sort_keys=True, indent=1)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json(path: str) -> dict:
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def check_kind(obj: dict, kind: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"expected a {kind!r} object, file holds {type(obj).__name__}")
    got = obj.get("schema")
    if got != SCHEMA_VERSION:
        raise SchemaError(f"expected schema {SCHEMA_VERSION!r}, file has {got!r}")
    if obj.get("kind") != kind:
        raise SchemaError(f"expected a {kind!r} file, got {obj.get('kind')!r}")
    return obj


def stamp(kind: str, obj: dict) -> dict:
    out = {"schema": SCHEMA_VERSION, "kind": kind}
    out.update(obj)
    return out


def pauli_to_obj(p: SignedPauli) -> dict:
    return {"paulis": p.letters(), "sign": p.sign}


def pauli_from_obj(obj: dict) -> SignedPauli:
    return SignedPauli.from_string(obj["paulis"], obj["sign"])


def layer_to_ops(layer: CircuitLayer) -> list[dict]:
    ops: list[dict] = []
    for g in layer.gates:
        ops.append({"gate": g.name, "wires": list(g.wires)})
    for q in layer.mcm_wires:
        ops.append({"gate": "measure", "wires": [q], "reset": layer.reset})
    return ops


def layer_from_ops(ops: list[dict], n: int, default_reset: bool = True) -> CircuitLayer:
    gates = []
    mcm = []
    reset = default_reset
    for op in ops:
        if op["gate"] == "measure":
            mcm.append(op["wires"][0])
            reset = bool(op["reset"])
        else:
            gates.append(CliffordGate(clifford_index_from_name(op["gate"]), tuple(op["wires"])))
    return CircuitLayer(n, tuple(gates), tuple(mcm), reset=reset)


def circuit_to_obj(c: QirbCircuit) -> dict:
    layers = []
    for d in c.dressed:
        entry = {
            "l1": layer_to_ops(d.l1),
            "l2": layer_to_ops(d.l2),
            "l3": layer_to_ops(d.l3),
        }
        if d.pre_meas_component is not None:
            entry["pre_meas"] = pauli_to_obj(d.pre_meas_component)
            entry["post_meas"] = pauli_to_obj(d.post_meas_component)
        layers.append(entry)
    return {
        "n": c.n,
        "m": c.m,
        "reset": c.reset,
        "prep": layer_to_ops(c.prep_layer),
        "layers": layers,
        "final": layer_to_ops(c.final_layer),
        "target": pauli_to_obj(c.target),
        "initial": pauli_to_obj(c.initial_pauli),
        "mcm_bits": [list(pair) for pair in c.mcm_bit_order],
        "discard": [v for v in range(c.n + c.m) if (c.discard_mask >> v) & 1],
    }


def circuit_from_obj(obj: dict) -> QirbCircuit:
    """Decode and validate one circuit; a malformed one raises SchemaError."""
    with malformed_as_schema_error("circuit"):
        n = obj["n"]
        reset = bool(obj["reset"])
        dressed = []
        for entry in obj["layers"]:
            pre = pauli_from_obj(entry["pre_meas"]) if "pre_meas" in entry else None
            post = pauli_from_obj(entry["post_meas"]) if "post_meas" in entry else None
            dressed.append(
                DressedLayer(
                    l1=layer_from_ops(entry["l1"], n, reset),
                    l2=layer_from_ops(entry["l2"], n, reset),
                    l3=layer_from_ops(entry["l3"], n, reset),
                    pre_meas_component=pre,
                    post_meas_component=post,
                )
            )
        discard = 0
        for v in obj["discard"]:
            discard |= 1 << v
        return QirbCircuit(
            n=n,
            m=obj["m"],
            prep_layer=layer_from_ops(obj["prep"], n, reset),
            dressed=tuple(dressed),
            final_layer=layer_from_ops(obj["final"], n, reset),
            target=pauli_from_obj(obj["target"]),
            initial_pauli=pauli_from_obj(obj["initial"]),
            mcm_bit_order=tuple((i, q) for i, q in obj["mcm_bits"]),
            discard_mask=discard,
            reset=reset,
        )


def noise_to_obj(noise: NoiseModel) -> dict:
    return {
        "oneq": {"px": noise.oneq.px, "py": noise.oneq.py, "pz": noise.oneq.pz},
        "twoq": {"eps_each": noise.twoq.eps_each},
        "mcm": {
            "pre_flip": noise.mcm.pre_flip,
            "post_flip": noise.mcm.post_flip,
            "unmeasured_depol": noise.mcm.unmeasured_depol,
        },
        "readout_flip": noise.readout_flip,
    }


def noise_from_obj(obj: dict) -> NoiseModel:
    return NoiseModel(
        oneq=OneQubitPauliChannel(**obj["oneq"]),
        twoq=TwoQubitDepolarizing(**obj["twoq"]),
        mcm=InstrumentErrorSpec(**obj["mcm"]),
        readout_flip=obj["readout_flip"],
    )
