"""Signed n-wire Pauli algebra and Clifford conjugation.

Paulis are stored as packed bit vectors (one ``int`` bitmask per X/Z
component, wire ``q`` at bit ``q``) with a global sign of +1 or -1. All
operations here preserve Hermiticity: with Hermitian inputs no +/-i phase
can ever arise, and this is checked rather than represented.

The 24 single-qubit Cliffords are enumerated once at import time by closing
{H, S} under composition (breadth-first, deterministic order). Each element
is stored purely through its conjugation action, i.e. the signed images of
X and Z. The resulting canonical naming table ``C0..C23`` is the one used
by the JSON circuit format (see the README for the full table).

A circuit layer is a plain tuple ``(row, cnots, mcms)``: ``row`` holds one
byte per wire, the index 0..23 of the single-qubit Clifford on that wire or
:data:`NO_GATE`; ``cnots`` is the ``(control, target)`` pairs and ``mcms``
the measured wires, in increasing order. A layer's ops run in one order:
the CNOTs as listed, then the single-qubit gates by increasing wire, then
the measurements. :class:`qirb.builder.QirbCircuit` checks every layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "SignedPauli",
    "Layer",
    "NUM_ONEQ_CLIFFORDS",
    "NO_GATE",
    "conjugate_bits",
    "random_pauli",
    "clifford_action",
    "clifford_product",
    "cliffords_mapping_letter",
    "cliffords_preparing",
    "pauli_gate_indices",
    "pauli_product_phase",
]

# Per-wire letter codes: bit0 = X component, bit1 = Z component.
_I, _X, _Z, _Y = 0, 1, 2, 3
_CODE_TO_CHAR = "IXZY"  # indexed by code


def pauli_product_phase(xa: int, za: int, xb: int, zb: int) -> int:
    """Exponent of i (mod 4) in the product A*B of two Hermitian Paulis."""
    xc, zc = xa ^ xb, za ^ zb
    k = (
        (xa & za).bit_count()
        + (xb & zb).bit_count()
        - (xc & zc).bit_count()
        + 2 * (za & xb).bit_count()
    )
    return k % 4


# --- single-qubit Clifford table -------------------------------------------

# An element's action is a 4-tuple indexed by input code, holding
# (output code, sign) with sign in {+1, -1}. Identity maps I -> I.
_Action = tuple[tuple[int, int], ...]


def _action_from_images(img_x: tuple[int, int], img_z: tuple[int, int]) -> _Action:
    (cx, sx), (cz, sz) = img_x, img_z
    # Y = iXZ, so g(Y) = i * g(X) g(Z); the result is Hermitian by closure.
    cy = cx ^ cz
    k = (pauli_product_phase(cx & 1, cx >> 1, cz & 1, cz >> 1) + 1) % 4
    if k % 2:
        raise ValueError("conjugation produced a non-Hermitian image")
    sy = sx * sz * (1 if k == 0 else -1)
    return ((_I, 1), (cx, sx), (cz, sz), (cy, sy))


def _compose_actions(outer: _Action, inner: _Action) -> _Action:
    """Action of (outer after inner): P -> outer(inner(P))."""
    out = [(_I, 1)]
    for code in (_X, _Z):
        c1, s1 = inner[code]
        c2, s2 = outer[c1]
        out.append((c2, s1 * s2))
    return _action_from_images(out[1], out[2])


def _build_clifford_group() -> list[_Action]:
    identity = _action_from_images((_X, 1), (_Z, 1))
    hadamard = _action_from_images((_Z, 1), (_X, 1))
    phase = _action_from_images((_Y, 1), (_Z, 1))
    elements = [identity]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for el in frontier:
            for gen in (hadamard, phase):
                cand = _compose_actions(gen, el)
                if cand not in seen:
                    seen.add(cand)
                    elements.append(cand)
                    nxt.append(cand)
        frontier = nxt
    if len(elements) != 24:
        raise RuntimeError(f"{{H, S}} closure has {len(elements)} elements, not 24")
    return elements


_CLIFFORD_ACTIONS: list[_Action] = _build_clifford_group()

NUM_ONEQ_CLIFFORDS = 24
#: The row code of a wire that holds no single-qubit gate in its layer.
NO_GATE = 24
#: A layer: its row, its (control, target) CNOT pairs and its measured wires.
Layer = tuple[bytes, tuple[tuple[int, int], ...], tuple[int, ...]]
# Conjugation actions by row code: NO_GATE acts as the identity, index 0.
_ROW_ACTIONS = (*_CLIFFORD_ACTIONS, _CLIFFORD_ACTIONS[0])


def clifford_action(index: int) -> _Action:
    """(code, sign) images for inputs I, X, Z, Y (indexed by letter code)."""
    return _CLIFFORD_ACTIONS[index]


_INDEX_OF_ACTION = {action: i for i, action in enumerate(_CLIFFORD_ACTIONS)}


@lru_cache(maxsize=None)
def clifford_product(outer: int, inner: int) -> int:
    """Index of the gate ``inner`` followed by ``outer``, exact in its signs.

    Index 0 is the identity: the closure starts from it.
    """
    return _INDEX_OF_ACTION[_compose_actions(_CLIFFORD_ACTIONS[outer], _CLIFFORD_ACTIONS[inner])]


def _letter_lookup_tables():
    # mapping[src][dst] = indices g with unsigned image of src equal to dst
    mapping: dict[int, dict[int, tuple[int, ...]]] = {}
    for src in (_X, _Z, _Y):
        mapping[src] = {}
        for dst in (_X, _Z, _Y):
            mapping[src][dst] = tuple(
                i for i in range(24) if _CLIFFORD_ACTIONS[i][src][0] == dst
            )
    paulis = tuple(
        i
        for i in range(24)
        if _CLIFFORD_ACTIONS[i][_X][0] == _X and _CLIFFORD_ACTIONS[i][_Z][0] == _Z
    )
    return mapping, paulis


_MAPPING_TABLE, _PAULI_GATES = _letter_lookup_tables()


def cliffords_mapping_letter(src: int, dst: int) -> tuple[int, ...]:
    """All indices g with g.src.g^-1 = +/-dst for letter codes (8 if non-identity)."""
    return _MAPPING_TABLE[src][dst]


def cliffords_preparing(letter: int) -> tuple[int, ...]:
    """Indices g for which g|0> is a (+/-1) eigenstate of the letter code.

    Equivalently: g Z g^-1 = +/-letter. The sign of that image is the
    eigenvalue of the prepared state.
    """
    return _MAPPING_TABLE[_Z][letter]


def pauli_gate_indices() -> tuple[int, int, int, int]:
    """Indices of the I, X, Y, Z gates within the canonical table."""
    by_sign = {}
    for i in _PAULI_GATES:
        sx = _CLIFFORD_ACTIONS[i][_X][1]
        sz = _CLIFFORD_ACTIONS[i][_Z][1]
        by_sign[(sx, sz)] = i
    return (by_sign[(1, 1)], by_sign[(1, -1)], by_sign[(-1, -1)], by_sign[(-1, 1)])


# --- domain types -----------------------------------------------------------


@dataclass(frozen=True)
class SignedPauli:
    """A Hermitian n-wire Pauli with a +/-1 sign.

    ``x`` and ``z`` are bitmasks over wires; ``sign`` is +1 or -1.
    """

    n: int
    x: int
    z: int
    sign: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"wire count must be >= 1, got {self.n}")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("x/z bits outside the declared wire count")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def letters(self) -> str:
        return "".join(_CODE_TO_CHAR[self.letter_code(q)] for q in range(self.n))

    def letter_code(self, q: int) -> int:
        return ((self.x >> q) & 1) | (((self.z >> q) & 1) << 1)

    def support(self) -> int:
        return self.x | self.z

    def __str__(self) -> str:
        return ("+" if self.sign > 0 else "-") + self.letters()


def random_pauli(n: int, rng) -> SignedPauli:
    """Uniformly random unsigned n-wire Pauli (all 4^n equiprobable), sign +1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return SignedPauli(n, rng.getrandbits(n), rng.getrandbits(n), 1)


def conjugate_bits(layer: Layer, x: int, z: int, sign: int) -> tuple[int, int, int]:
    """Conjugate the Pauli ``sign * (x, z)`` by a layer's gates in op order:
    the one conjugation loop, on bare bitmasks with the sign tracked exactly.
    The layer's measurements are not applied."""
    row, cnots, _ = layer
    for c, t in cnots:
        xc, zc = (x >> c) & 1, (z >> c) & 1
        xt, zt = (x >> t) & 1, (z >> t) & 1
        if xc & zt & (xt ^ zc ^ 1):
            sign = -sign
        x ^= xc << t
        z ^= zt << c
    for q, g in enumerate(row):
        code = ((x >> q) & 1) | (((z >> q) & 1) << 1)
        if code:
            new_code, s = _ROW_ACTIONS[g][code]
            flip = new_code ^ code
            x ^= (flip & 1) << q
            z ^= (flip >> 1) << q
            sign *= s
    return x, z, sign
