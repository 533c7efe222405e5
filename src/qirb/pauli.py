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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "SignedPauli",
    "CliffordGate",
    "CircuitLayer",
    "CNOT_INDEX",
    "NUM_ONEQ_CLIFFORDS",
    "commutes",
    "conjugate",
    "conjugate_bits",
    "random_pauli",
    "clifford_action",
    "cliffords_mapping_letter",
    "cliffords_preparing",
    "pauli_gate_indices",
    "pauli_product_phase",
]

# Per-wire letter codes: bit0 = X component, bit1 = Z component.
_I, _X, _Z, _Y = 0, 1, 2, 3
_CODE_TO_CHAR = "IXZY"  # indexed by code
_CHAR_TO_CODE = {"I": _I, "X": _X, "Z": _Z, "Y": _Y}


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
#: Gate-kind sentinel for the two-qubit CNOT in :class:`CliffordGate`.
CNOT_INDEX = 24


def clifford_action(index: int) -> _Action:
    """(code, sign) images for inputs I, X, Z, Y (indexed by letter code)."""
    return _CLIFFORD_ACTIONS[index]


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


def cliffords_mapping_letter(src: str | int, dst: str | int) -> tuple[int, ...]:
    """All indices g with g.src.g^-1 = +/-dst (8 for non-identity letters)."""
    s = _CHAR_TO_CODE[src] if isinstance(src, str) else src
    d = _CHAR_TO_CODE[dst] if isinstance(dst, str) else dst
    return _MAPPING_TABLE[s][d]


def cliffords_preparing(letter: str | int) -> tuple[int, ...]:
    """Indices g for which g|0> is a (+/-1) eigenstate of the given letter.

    Equivalently: g Z g^-1 = +/-letter. The sign of that image is the
    eigenvalue of the prepared state.
    """
    code = _CHAR_TO_CODE[letter] if isinstance(letter, str) else letter
    return _MAPPING_TABLE[_Z][code]


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


def commutes(p: SignedPauli, q: SignedPauli) -> bool:
    """True iff the symplectic inner product of p and q is even."""
    if p.n != q.n:
        raise ValueError(f"wire-count mismatch: {p.n} vs {q.n}")
    return ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) % 2 == 0


def random_pauli(n: int, rng) -> SignedPauli:
    """Uniformly random unsigned n-wire Pauli (all 4^n equiprobable), sign +1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return SignedPauli(n, rng.getrandbits(n), rng.getrandbits(n), 1)


@dataclass(frozen=True)
class CliffordGate:
    """One gate placement: a single-qubit Clifford by table index, or a CNOT.

    ``index`` is 0..23 for single-qubit gates (conjugation action stored in
    the module table) or :data:`CNOT_INDEX`; ``wires`` is ``(q,)`` or
    ``(control, target)``.
    """

    index: int
    wires: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.index == CNOT_INDEX:
            if len(self.wires) != 2 or self.wires[0] == self.wires[1]:
                raise ValueError("cnot needs two distinct wires")
        elif 0 <= self.index < 24:
            if len(self.wires) != 1:
                raise ValueError("single-qubit gate needs exactly one wire")
        else:
            raise ValueError(f"invalid gate index {self.index}")

    @property
    def is_cnot(self) -> bool:
        return self.index == CNOT_INDEX


@dataclass(frozen=True)
class CircuitLayer:
    """Parallel gates plus (optionally) computational-basis MCMs.

    No wire may appear twice: gates have disjoint support and measured wires
    carry no gate. Whether an MCM resets its wire is a property of the
    whole circuit (:attr:`qirb.builder.QirbCircuit.reset`).
    """

    n: int
    gates: tuple[CliffordGate, ...] = ()
    mcm_wires: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        wires = [w for g in self.gates for w in g.wires]
        wires += self.mcm_wires
        used = set(wires)
        if len(used) != len(wires):
            raise ValueError("a wire is used more than once in a layer")
        if not set(map(type, used)) <= {int}:
            raise ValueError("wire indices must be integers")
        if used and (min(used) < 0 or max(used) >= self.n):
            raise ValueError(f"wire index out of range({self.n})")
        object.__setattr__(self, "mcm_wires", tuple(sorted(self.mcm_wires)))

    def oneq_gate_count(self) -> int:
        return sum(1 for g in self.gates if not g.is_cnot)

    def cnot_count(self) -> int:
        return sum(1 for g in self.gates if g.is_cnot)


def conjugate_bits(gates: Iterable[CliffordGate], x: int, z: int, sign: int) -> tuple[int, int, int]:
    """Conjugate the Pauli ``sign * (x, z)`` by ``gates`` in order: the one
    conjugation loop, on bare bitmasks with the sign tracked exactly."""
    for g in gates:
        if g.index == CNOT_INDEX:
            c, t = g.wires
            xc, zc = (x >> c) & 1, (z >> c) & 1
            xt, zt = (x >> t) & 1, (z >> t) & 1
            if xc & zt & (xt ^ zc ^ 1):
                sign = -sign
            x ^= xc << t
            z ^= zt << c
        else:
            q = g.wires[0]
            code = ((x >> q) & 1) | (((z >> q) & 1) << 1)
            if code:
                new_code, s = _CLIFFORD_ACTIONS[g.index][code]
                flip = new_code ^ code
                x ^= (flip & 1) << q
                z ^= (flip >> 1) << q
                sign *= s
    return x, z, sign


def conjugate(layer: CircuitLayer | Iterable[CliffordGate], p: SignedPauli) -> SignedPauli:
    """Return U(layer) . p . U(layer)^-1 with the sign tracked exactly.

    If the layer contains MCMs, ``p`` must have no support on the measured
    wires (split the tracked Pauli first).
    """
    if isinstance(layer, CircuitLayer):
        if layer.n != p.n:
            raise ValueError("layer/Pauli wire-count mismatch")
        if (p.x | p.z) & sum(1 << w for w in layer.mcm_wires):
            raise ValueError("Pauli supported on a measured wire of the layer")
        layer = layer.gates
    return SignedPauli(p.n, *conjugate_bits(layer, p.x, p.z, p.sign))
