"""Stable JSON encodings for every file the toolchain reads or writes.

Every file carries ``{"schema": "qirb-4", "kind": ...}``; any other schema,
``qirb-1`` to ``qirb-3`` included, is a hard error, never a silent
reinterpretation. Each file is one compact line of strict JSON (no ``NaN``
or ``Infinity``) with sorted keys, so reruns are byte-identical and the
standard library's C encoder writes it; read one with
``python -m json.tool FILE``. Every output file, the curve CSVs included, is
written through a temp file and an atomic rename (:func:`write_text`).

A circuit stores only what was sampled. A layer is one string: its row,
one character per wire, then a space and ``<control>.<target>`` for each
CNOT, in the layer's order. A row character is ``A`` to ``X`` for
single-qubit Clifford ``C0`` to ``C23`` (the table of :mod:`qirb.pauli`),
``m`` for a measured wire and ``-`` for a wire with no single-qubit gate,
as on a CNOT's wires. Wire numbers are canonical decimals (no sign, no
leading zero). A circuit's one ``reset`` flag covers all its measurements.
``tracked`` (a letter per wire) and each measuring layer's ``fresh`` (a
letter per measured wire, by increasing wire) hold ``Z`` where the tracked
Pauli starts as Z, before ``prep`` or right after the measurement, else
``I``. The MCM count, every tracked letter and sign and the target follow
by the tracked-Pauli walk. Decoding is strict: a circuit or layer object
with a key other than its own, a malformed layer string, an invalid layer
or circuit (:class:`qirb.builder.QirbCircuit` checks each), or layers
that cannot track a Pauli raise :class:`SchemaError`.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from contextlib import contextmanager

from .builder import QirbCircuit
from .noise import NoiseModel
from .pauli import NO_GATE, Layer

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "malformed_as_schema_error",
    "write_json",
    "read_json",
    "check_kind",
    "check_keys",
    "circuit_to_obj",
    "circuit_from_obj",
    "noise_to_obj",
    "noise_from_obj",
]

SCHEMA_VERSION = "qirb-4"


class SchemaError(Exception):
    """A file that does not match its schema: version, kind, JSON or content."""


@contextmanager
def malformed_as_schema_error(what: str):
    """Re-raise lookup, type, value and overflow errors of decoding ``what`` as
    SchemaError."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise SchemaError(f"malformed {what}: {type(exc).__name__}: {exc}") from exc


def write_json(path: str, obj: dict) -> None:
    """Atomic, byte-stable JSON write: one compact line with sorted keys.

    No ``indent``: any indent makes ``json`` fall back to its pure-Python
    encoder, several times slower on a large results file. A ``NaN`` or
    infinite float raises ValueError rather than write invalid JSON.
    """
    write_text(path, json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False))


def write_text(path: str, text: str) -> None:
    """Write ``text`` plus a newline to ``path`` through a temp file in the
    same directory and an atomic rename; on failure the temp file is removed."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        # mkstemp creates the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
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


def check_keys(obj: dict, keys: frozenset, what: str) -> None:
    """``obj``, an object of a file, must hold exactly ``keys``."""
    if obj.keys() != keys:
        raise ValueError(f"{what} holds exactly the keys {sorted(keys)}, got {sorted(obj)}")


def stamp(kind: str, obj: dict) -> dict:
    out = {"schema": SCHEMA_VERSION, "kind": kind}
    out.update(obj)
    return out


# Row characters by code: C0..C23, then NO_GATE.
_ROW_CHARS = b"ABCDEFGHIJKLMNOPQRSTUVWX-"
_TO_CHAR = bytes.maketrans(bytes(range(NO_GATE + 1)), _ROW_CHARS)
# Each row character to its code, "m" to NO_GATE, every other byte to 255.
_FROM_CHAR = bytes(_ROW_CHARS.find(b) if b in _ROW_CHARS else NO_GATE if b == ord("m") else 255
                   for b in range(256))
# [0-9], not \d, which also matches non-ASCII digits.
_CNOT = re.compile(r"(0|[1-9][0-9]*)\.(0|[1-9][0-9]*)")


def _encode_layer(layer: Layer) -> str:
    row, cnots, mcms = layer
    text = bytearray(row.translate(_TO_CHAR))
    for q in mcms:
        text[q] = ord("m")
    return " ".join([text.decode("ascii"), *(f"{c}.{t}" for c, t in cnots)])


def _decode_layer(text: str) -> Layer:
    """Decode one layer; :class:`QirbCircuit` checks it."""
    if type(text) is not str:
        raise ValueError(f"a layer is a string, got {type(text).__name__}")
    chars, *pairs = text.split(" ")
    row = chars.encode().translate(_FROM_CHAR)
    if 255 in row:
        raise ValueError(f"unknown character in the row of layer {text!r}")
    cnots = []
    for pair in pairs:
        match = _CNOT.fullmatch(pair)
        if match is None:
            raise ValueError(f"malformed CNOT {pair!r} in layer {text!r}")
        cnots.append((int(match[1]), int(match[2])))
    mcms = tuple(q for q, ch in enumerate(chars) if ch == "m") if "m" in chars else ()
    return row, tuple(cnots), mcms


def _letters(mask: int, wires) -> str:
    return "".join("Z" if (mask >> q) & 1 else "I" for q in wires)


def _mask_from_letters(text: str, wires) -> int:
    """The mask of ``wires`` whose letter in ``text``, one ``I`` or ``Z`` per
    wire, is ``Z``."""
    if type(text) is not str or len(text) != len(wires) or not set(text) <= {"I", "Z"}:
        raise ValueError(f"expected {len(wires)} letters I or Z, got {text!r}")
    return sum(1 << q for q, letter in zip(wires, text) if letter == "Z")


def circuit_to_obj(c: QirbCircuit) -> dict:
    layers = []
    for i in range(1, len(c.layers) - 1, 3):
        l1, l2, l3 = c.layers[i:i + 3]
        entry = {"l1": _encode_layer(l1), "l2": _encode_layer(l2), "l3": _encode_layer(l3)}
        if l2[2]:
            entry["fresh"] = _letters(c.fresh[i + 1], l2[2])
        layers.append(entry)
    return {
        "n": c.n,
        "reset": c.reset,
        "prep": _encode_layer(c.layers[0]),
        "layers": layers,
        "final": _encode_layer(c.layers[-1]),
        "tracked": _letters(c.tracked, range(c.n)),
    }


_CIRCUIT_KEYS = frozenset({"n", "reset", "prep", "layers", "final", "tracked"})
_LAYER_KEYS = frozenset({"l1", "l2", "l3"})
_MEASURING_LAYER_KEYS = _LAYER_KEYS | {"fresh"}


def circuit_from_obj(obj: dict) -> QirbCircuit:
    """Decode and validate one circuit, which holds exactly the keys that
    :func:`circuit_to_obj` writes; a malformed one, or one whose layers
    cannot track a Pauli, raises SchemaError."""
    with malformed_as_schema_error("circuit"):
        check_keys(obj, _CIRCUIT_KEYS, "a circuit")
        n = obj["n"]
        reset = obj["reset"]
        if type(reset) is not bool:
            raise ValueError(f"reset must be true or false, got {reset!r}")
        layers = [_decode_layer(obj["prep"])]
        fresh = [0]
        for entry in obj["layers"]:
            l2 = _decode_layer(entry["l2"])
            check_keys(entry, _MEASURING_LAYER_KEYS if l2[2] else _LAYER_KEYS, "a layer")
            layers += _decode_layer(entry["l1"]), l2, _decode_layer(entry["l3"])
            fresh += 0, _mask_from_letters(entry["fresh"], l2[2]) if l2[2] else 0, 0
        layers.append(_decode_layer(obj["final"]))
        fresh.append(0)
        circuit = QirbCircuit(n, tuple(layers), tuple(fresh),
                              _mask_from_letters(obj["tracked"], range(n)), reset)
        circuit.target  # the walk: layers that cannot track a Pauli raise here
    return circuit


def noise_to_obj(noise: NoiseModel) -> dict:
    return {
        "oneq": {"px": noise.px, "py": noise.py, "pz": noise.pz},
        "twoq": {"eps_each": noise.twoq_each},
        "mcm": {
            "pre_flip": noise.pre_flip,
            "post_flip": noise.post_flip,
            "unmeasured_depol": noise.unmeasured_depol,
        },
        "readout_flip": noise.readout_flip,
    }


def _check_rates(obj, template: dict, ignore=()) -> None:
    """``obj`` must hold exactly ``template``'s keys, past ``ignore``, and a
    number wherever ``template`` holds one: a JSON true or false is no rate."""
    if type(obj) is not dict or set(obj) - set(ignore) != set(template):
        raise ValueError(f"expected exactly the keys {sorted(template)}, got {obj!r}")
    for key, value in template.items():
        if type(value) is dict:
            _check_rates(obj[key], value)
        elif type(obj[key]) not in (int, float):
            raise ValueError(f"rate {key!r} must be a number, got {obj[key]!r}")


def noise_from_obj(obj: dict) -> NoiseModel:
    """Decode a noise model, which holds exactly the keys that
    :func:`noise_to_obj` writes; a malformed one raises SchemaError."""
    with malformed_as_schema_error("noise model"):
        _check_rates(obj, noise_to_obj(NoiseModel.zero()), ignore=("schema", "kind"))
        return NoiseModel(**obj["oneq"], twoq_each=obj["twoq"]["eps_each"], **obj["mcm"],
                          readout_flip=obj["readout_flip"])
