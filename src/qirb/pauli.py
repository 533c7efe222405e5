"""Signed n-wire Pauli algebra and Clifford conjugation.

Paulis are stored as packed bit vectors (one ``int`` bitmask per X/Z
component, wire ``q`` at bit ``q``) with a global sign of +1 or -1. All
operations here preserve Hermiticity: with Hermitian inputs no +/-i phase
can ever arise, and this is asserted rather than represented.

The 24 single-qubit Cliffords are enumerated once at import time by closing
{H, S} under composition (breadth-first, deterministic order). Each element
is stored purely through its conjugation action, i.e. the signed images of
X and Z. The resulting canonical naming table ``C0..C23`` is the one used
by the JSON circuit format (see the README for the full table).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "MAX_WIRES",
    "SignedPauli",
    "CliffordGate",
    "CircuitLayer",
    "CNOT_INDEX",
    "NUM_ONEQ_CLIFFORDS",
    "commutes",
    "conjugate",
    "random_pauli",
    "is_z_type",
    "compose_cliffords",
    "invert_clifford",
    "clifford_action",
    "cliffords_mapping_letter",
    "cliffords_preparing",
    "pauli_gate_indices",
    "clifford_name",
    "clifford_index_from_name",
]

#: Wire-count cap for a SignedPauli. Classification targets live on n+m
#: virtual wires, and deep circuits accumulate one per MCM.
MAX_WIRES = 4096

# Per-wire letter codes: bit0 = X component, bit1 = Z component.
_I, _X, _Z, _Y = 0, 1, 2, 3
_CODE_TO_CHAR = "IXZY"  # indexed by code
_CHAR_TO_CODE = {"I": _I, "X": _X, "Z": _Z, "Y": _Y}


def _mul_1q(code_a: int, code_b: int) -> tuple[int, int]:
    """Product of two single-wire Paulis: (code, phase exponent of i mod 4)."""
    return _MUL_TABLE[code_a][code_b]


def _build_mul_table() -> list[list[tuple[int, int]]]:
    # i^k bookkeeping for I, X, Z, Y written multiplicatively: XZ = -iY etc.
    # Built from the defining relations rather than matrices to avoid any
    # numeric dependency at import time.
    # Represent each code as (x, z, k) with P = i^k X^x Z^z; Hermitian codes:
    # I:(0,0,0) X:(1,0,0) Z:(0,1,0) Y:(1,1,1) since Y = iXZ.
    canon = {_I: (0, 0, 0), _X: (1, 0, 0), _Z: (0, 1, 0), _Y: (1, 1, 1)}
    table: list[list[tuple[int, int]]] = []
    for a in range(4):
        row = []
        xa, za, ka = canon[a]
        for b in range(4):
            xb, zb, kb = canon[b]
            # (i^ka X^xa Z^za)(i^kb X^xb Z^zb): move Z^za past X^xb.
            k = ka + kb + 2 * (za * xb)
            xc, zc = xa ^ xb, za ^ zb
            code_c = xc | (zc << 1)
            k -= canon[code_c][2]  # normalize back to the Hermitian form
            row.append((code_c, k % 4))
        table.append(row)
    return table


_MUL_TABLE = _build_mul_table()

# --- single-qubit Clifford table -------------------------------------------

# An element's action is a 4-tuple indexed by input code, holding
# (output code, sign) with sign in {+1, -1}. Identity maps I -> I.
_Action = tuple[tuple[int, int], ...]


def _action_from_images(img_x: tuple[int, int], img_z: tuple[int, int]) -> _Action:
    (cx, sx), (cz, sz) = img_x, img_z
    # Y = iXZ, so g(Y) = i * g(X) g(Z); the result is Hermitian by closure.
    cy, k = _mul_1q(cx, cz)
    k = (k + 1) % 4
    assert k % 2 == 0, "conjugation produced a non-Hermitian image"
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
    assert len(elements) == 24
    return elements


_CLIFFORD_ACTIONS: list[_Action] = _build_clifford_group()
_ACTION_TO_INDEX = {a: i for i, a in enumerate(_CLIFFORD_ACTIONS)}

NUM_ONEQ_CLIFFORDS = 24
#: Gate-kind sentinel for the two-qubit CNOT in :class:`CliffordGate`.
CNOT_INDEX = 24

_COMPOSE = [
    [_ACTION_TO_INDEX[_compose_actions(_CLIFFORD_ACTIONS[i], _CLIFFORD_ACTIONS[j])] for j in range(24)]
    for i in range(24)
]
_INVERSE = [0] * 24
for _i in range(24):
    for _j in range(24):
        if _COMPOSE[_i][_j] == 0:
            _INVERSE[_i] = _j
            break


def compose_cliffords(outer: int, inner: int) -> int:
    """Index of the composite acting as ``inner`` first, then ``outer``."""
    return _COMPOSE[outer][inner]


def invert_clifford(index: int) -> int:
    return _INVERSE[index]


def clifford_action(index: int) -> _Action:
    """(code, sign) images for inputs I, X, Z, Y (indexed by letter code)."""
    return _CLIFFORD_ACTIONS[index]


def clifford_name(index: int) -> str:
    if index == CNOT_INDEX:
        return "cnot"
    return f"C{index}"


def clifford_index_from_name(name: str) -> int:
    if name == "cnot":
        return CNOT_INDEX
    if name.startswith("C"):
        idx = int(name[1:])
        if 0 <= idx < 24:
            return idx
    raise ValueError(f"unknown gate name: {name!r}")


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
        if not 1 <= self.n <= MAX_WIRES:
            raise ValueError(f"wire count must be in [1, {MAX_WIRES}], got {self.n}")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("x/z bits outside the declared wire count")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @classmethod
    def identity(cls, n: int) -> "SignedPauli":
        return cls(n, 0, 0, 1)

    @classmethod
    def from_string(cls, letters: str, sign: int = 1) -> "SignedPauli":
        x = z = 0
        for q, ch in enumerate(letters):
            code = _CHAR_TO_CODE[ch]
            x |= (code & 1) << q
            z |= ((code >> 1) & 1) << q
        return cls(len(letters), x, z, sign)

    def letters(self) -> str:
        return "".join(_CODE_TO_CHAR[self.letter_code(q)] for q in range(self.n))

    def letter_code(self, q: int) -> int:
        return ((self.x >> q) & 1) | (((self.z >> q) & 1) << 1)

    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def support(self) -> int:
        return self.x | self.z

    def with_sign(self, sign: int) -> "SignedPauli":
        return SignedPauli(self.n, self.x, self.z, sign)

    def __str__(self) -> str:
        return ("+" if self.sign > 0 else "-") + self.letters()


def commutes(p: SignedPauli, q: SignedPauli) -> bool:
    """True iff the symplectic inner product of p and q is even."""
    if p.n != q.n:
        raise ValueError(f"wire-count mismatch: {p.n} vs {q.n}")
    return ((p.x & q.z).bit_count() + (p.z & q.x).bit_count()) % 2 == 0


def is_z_type(p: SignedPauli) -> bool:
    """True iff every component is I or Z."""
    return p.x == 0


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

    @property
    def name(self) -> str:
        return clifford_name(self.index)

    def x_image(self) -> tuple[str, int]:
        """Signed image of X under conjugation (single-qubit gates only)."""
        code, sign = _CLIFFORD_ACTIONS[self.index][_X]
        return _CODE_TO_CHAR[code], sign

    def z_image(self) -> tuple[str, int]:
        code, sign = _CLIFFORD_ACTIONS[self.index][_Z]
        return _CODE_TO_CHAR[code], sign


@dataclass(frozen=True)
class CircuitLayer:
    """Parallel gates plus (optionally) computational-basis MCMs.

    No wire may appear twice: gates have disjoint support and measured wires
    carry no gate. ``reset`` records whether this layer's MCMs reinitialize
    the measured wire to |0>.
    """

    n: int
    gates: tuple[CliffordGate, ...] = ()
    mcm_wires: tuple[int, ...] = ()
    reset: bool = True

    def __post_init__(self) -> None:
        used = set(self.mcm_wires)
        if len(used) != len(self.mcm_wires):
            raise ValueError("duplicate MCM wire")
        for g in self.gates:
            for w in g.wires:
                if w in used:
                    raise ValueError(f"wire {w} used more than once in a layer")
                used.add(w)
        if any(type(w) is not int for w in used):
            raise ValueError("wire indices must be integers")
        if used and (min(used) < 0 or max(used) >= self.n):
            raise ValueError(f"wire index out of range({self.n})")
        object.__setattr__(self, "mcm_wires", tuple(sorted(self.mcm_wires)))
        if not self.mcm_wires:
            # The flag only means something for layers that measure.
            object.__setattr__(self, "reset", True)

    @property
    def has_mcm(self) -> bool:
        return bool(self.mcm_wires)

    def oneq_gate_count(self) -> int:
        return sum(1 for g in self.gates if not g.is_cnot)

    def cnot_count(self) -> int:
        return sum(1 for g in self.gates if g.is_cnot)


def _conjugate_cnot_bits(x: int, z: int, sign: int, c: int, t: int) -> tuple[int, int, int]:
    xc, zc = (x >> c) & 1, (z >> c) & 1
    xt, zt = (x >> t) & 1, (z >> t) & 1
    if xc & zt & (xt ^ zc ^ 1):
        sign = -sign
    if xc:
        x ^= 1 << t
    if zt:
        z ^= 1 << c
    return x, z, sign


def conjugate(layer: CircuitLayer | Iterable[CliffordGate], p: SignedPauli) -> SignedPauli:
    """Return U(layer) . p . U(layer)^-1 with the sign tracked exactly.

    If the layer contains MCMs, ``p`` must have no support on the measured
    wires (split the tracked Pauli first).
    """
    if isinstance(layer, CircuitLayer):
        if layer.n != p.n:
            raise ValueError("layer/Pauli wire-count mismatch")
        if layer.mcm_wires:
            mmask = 0
            for w in layer.mcm_wires:
                mmask |= 1 << w
            if (p.x | p.z) & mmask:
                raise ValueError("Pauli supported on a measured wire of the layer")
        gates: Sequence[CliffordGate] = layer.gates
    else:
        gates = tuple(layer)
    x, z, sign = p.x, p.z, p.sign
    for g in gates:
        if g.is_cnot:
            x, z, sign = _conjugate_cnot_bits(x, z, sign, g.wires[0], g.wires[1])
        else:
            q = g.wires[0]
            code = ((x >> q) & 1) | (((z >> q) & 1) << 1)
            if code:
                new_code, s = _CLIFFORD_ACTIONS[g.index][code]
                x = (x & ~(1 << q)) | ((new_code & 1) << q)
                z = (z & ~(1 << q)) | (((new_code >> 1) & 1) << q)
                sign *= s
    return SignedPauli(p.n, x, z, sign)
