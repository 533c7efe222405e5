"""Construction of full benchmark circuits around a sampled core circuit.

A depth-d benchmark circuit wraps the d core layers in randomizing dressing:

* a preparation layer putting each wire in a random eigenstate of the first
  n entries of a uniformly sampled (n+m)-wire Pauli,
* per core layer, a sublayer ``l1`` rotating each to-be-measured wire's
  tracked component into {I, Z} (uniform choice among the achieving
  Cliffords, which carries the pre-measurement sign/bit randomization) and
  applying uniform random Paulis elsewhere, then the core layer ``l2``, then
  a sublayer ``l3`` re-preparing each measured wire in a random eigenstate
  of a fresh sampled Pauli letter and again randomizing the other wires,
* a final layer rotating the surviving tracked Pauli to Z-type.

A circuit stores these layers in that order, the op order, as
:attr:`QirbCircuit.layers`, and every walk over a whole circuit reads it.
Each layer is a ``(row, cnots, mcms)`` tuple (:mod:`qirb.pauli`); the
builder writes each dressing layer's row directly, one Clifford index per
wire. Only the core layers ``l2`` may measure or hold a CNOT, and
:class:`QirbCircuit` checks every layer when it is made.

The tracked (n+m)-wire Z-type target Pauli, with its exactly-propagated
sign, classifies each (m+n)-bit outcome string as success or failure. A
noiseless execution succeeds with probability 1 by construction.

A circuit stores only what was sampled: its layers, its reset flag and
where the tracked Pauli starts as Z, before the preparation layer
(``tracked``) and right after each layer (``fresh``, one mask per layer,
nonzero only on a measuring ``l2``'s measured wires). The preparing gates
turn those Z letters into the sampled letters, with the prepared
eigenvalues as signs, so the walk derives every letter, sign and the target.

The tracked Pauli goes through each layer in one private step,
``_walk_layer``, on ``(x, z, sign)`` integers and the one conjugation loop,
:func:`qirb.pauli.conjugate_bits`. :func:`build_qirb_circuit` takes that
step as it samples; :func:`tracked_walk` replays it from a built circuit.

Virtual wire order (= outcome bit order): the m MCM results in temporal
order (layer-major, wire-minor), then the n final computational-basis
results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .pauli import (
    NO_GATE,
    NUM_ONEQ_CLIFFORDS,
    Layer,
    SignedPauli,
    cliffords_mapping_letter,
    cliffords_preparing,
    conjugate_bits,
    pauli_gate_indices,
    random_pauli,
)

__all__ = [
    "QirbCircuit",
    "build_qirb_circuit",
    "classify_outcome",
    "resolve_reset_free",
    "TrackedWalk",
    "tracked_walk",
]

_Z_CODE = 2
_ALL_CLIFFORDS = tuple(range(NUM_ONEQ_CLIFFORDS))


@dataclass(frozen=True)
class QirbCircuit:
    """A fully dressed benchmark circuit: what was sampled, and nothing else.

    ``layers`` holds the layers in op order: prep, then ``l1``, ``l2`` and
    ``l3`` of each core layer (core layer j's at ``3j + 1`` to ``3j + 3``),
    then final. ``tracked`` is the mask of the wires on which the tracked
    Pauli starts, as Z on |0> before the prep layer; ``fresh[i]`` is the mask
    of ``layers[i]``'s measured wires on which it picks up Z again right
    after the measurement, and the next ``l3`` turns each into the wire's
    freshly sampled letter. The walk (:func:`tracked_walk`) derives
    everything else, the target included.

    Each layer is a ``(row, cnots, mcms)`` tuple, checked here: its row
    holds one code per wire, a Clifford index or ``NO_GATE``; each CNOT
    and measured wire lies in ``range(n)``, is used once and carries
    ``NO_GATE``; the measured wires increase; and only core layers measure
    or hold a CNOT. Every check raises ValueError.
    """

    n: int
    layers: tuple[Layer, ...]
    fresh: tuple[int, ...]
    tracked: int
    reset: bool

    def __post_init__(self) -> None:
        n = self.n
        if type(n) is not int:
            raise ValueError("the wire count must be an integer")
        if type(self.tracked) is not int or self.tracked < 0 or self.tracked >> n:
            raise ValueError(f"tracked wires must lie in range({n})")
        if len(self.layers) % 3 != 2 or len(self.fresh) != len(self.layers):
            raise ValueError("a circuit holds 3d + 2 layers and one fresh mask per layer")
        for i, ((row, cnots, mcms), fresh) in enumerate(zip(self.layers, self.fresh)):
            if type(row) is not bytes or len(row) != n:
                raise ValueError(f"every layer must span the circuit's {n} wires in one row")
            if max(row, default=0) > NO_GATE:
                raise ValueError(f"a row holds a code outside 0..{NO_GATE}")
            measured = 0
            if cnots or mcms:
                if i % 3 != 2:
                    raise ValueError("only core layers may measure or hold a CNOT")
                measured = _check_wires(row, cnots, mcms)
            if type(fresh) is not int or fresh & ~measured:
                raise ValueError("fresh letters must sit on the layer's measured wires")

    @property
    def depth(self) -> int:
        return len(self.layers) // 3

    @property
    def m(self) -> int:
        """The number of mid-circuit measurements."""
        return sum(len(mcms) for _, _, mcms in self.layers)

    @cached_property
    def target(self) -> SignedPauli:
        """The Z-type (n+m)-wire Pauli that classifies outcomes; ValueError if
        the layers cannot track a Pauli."""
        return tracked_walk(self).target

    def oneq_gate_count(self) -> int:
        return sum(len(row) - row.count(NO_GATE) for row, _, _ in self.layers)

    def cnot_count(self) -> int:
        return sum(len(cnots) for _, cnots, _ in self.layers)


def _check_wires(row: bytes, cnots, mcms) -> int:
    """The mask of a layer's measured wires; ValueError unless every CNOT is
    a pair, every CNOT and measured wire an ``int`` in the row's range,
    used once and holding no single-qubit gate, and the measured wires
    increase."""
    if any(type(pair) is not tuple or len(pair) != 2 for pair in cnots):
        raise ValueError("a CNOT is a (control, target) pair")
    wires = [w for pair in cnots for w in pair] + list(mcms)
    used = 0  # bit w set for each wire w seen
    for w in wires:
        # Checked first: ``1 << True`` would pass, and ``1 << -1`` raise another error.
        if type(w) is not int:
            raise ValueError("wire indices must be integers")
        if not 0 <= w < len(row):
            raise ValueError(f"wire index out of range({len(row)})")
        if row[w] != NO_GATE:
            raise ValueError(f"wire {w} holds a CNOT or a measurement and a single-qubit gate")
        used |= 1 << w
    if used.bit_count() != len(wires):
        raise ValueError("a wire is used more than once in a layer")
    if list(mcms) != sorted(mcms):
        raise ValueError("measured wires must be listed in increasing order")
    return sum(1 << q for q in mcms)


def _prepare(rng: random.Random, letter: int) -> int:
    """A uniform random Clifford whose action on |0> prepares an eigenstate of
    ``letter`` (its Z image is +/-letter); any Clifford for I."""
    return rng.choice(_ALL_CLIFFORDS if letter == 0 else cliffords_preparing(letter))


def _align(rng: random.Random, letter: int) -> int:
    """A uniform random Clifford mapping ``letter`` to +/-Z; any Clifford for I."""
    return rng.choice(_ALL_CLIFFORDS if letter == 0 else cliffords_mapping_letter(letter, _Z_CODE))


def _letter(x: int, z: int, q: int) -> int:
    return ((x >> q) & 1) | (((z >> q) & 1) << 1)


def _walk_layer(state, layer: Layer, fresh: int):
    """One layer of the tracked-Pauli walk, on ``(x, z, sign)`` ints.

    The tracked Pauli's letters on the layer's measured wires (I or Z, else
    RuntimeError) move out as the k-bit Z mask ``pre``; it goes through the
    layer's gates and picks up Z on the ``fresh`` wires. Returns the state
    after the layer, and ``pre``. Both the builder and :func:`tracked_walk`
    take this step.
    """
    x, z, sign = state
    pre = 0
    for k, q in enumerate(layer[2]):
        if (x >> q) & 1:
            raise RuntimeError(f"l1 failed to Z-align measured wire {q}")
        pre |= ((z >> q) & 1) << k
        z &= ~(1 << q)
    x, z, sign = conjugate_bits(layer, x, z, sign)
    return (x, z | fresh, sign), pre


def build_qirb_circuit(
    core: list[Layer],
    reset_flag: bool,
    rng: random.Random,
    n: int,
) -> QirbCircuit:
    """Dress an n-wire core circuit into a complete benchmark circuit.

    Construction always succeeds for Clifford cores; all sampling uses the
    supplied rng. The tracked Pauli goes through each layer by
    :func:`_walk_layer`, the step that :func:`tracked_walk` replays.
    """
    if any(len(row) != n for row, _, _ in core):
        raise ValueError(f"a core layer does not span the circuit's {n} wires")
    m = sum(len(mcms) for _, _, mcms in core)

    sampled = random_pauli(n + m, rng)
    support = sampled.support()
    pauli_gates = pauli_gate_indices()

    # Preparation: wire q gets a uniform random eigenstate of sampled(q).
    prep = (bytes(_prepare(rng, sampled.letter_code(q)) for q in range(n)), (), ())
    tracked = support & ((1 << n) - 1)
    layers, fresh_masks = [prep], [0]
    state, _ = _walk_layer((0, tracked, 1), prep, 0)
    first = n

    for layer in core:
        measured = layer[2]
        x, z, _ = state
        l1 = bytes(_align(rng, _letter(x, z, q)) if q in measured else rng.choice(pauli_gates)
                   for q in range(n))

        # Re-preparation: measured wires get the fresh letters that sampled
        # holds on the layer's virtual wires, the other wires random Paulis.
        l3 = bytearray(n)
        fresh = 0
        for q in range(n):
            if q in measured:
                k = first + measured.index(q)
                l3[q] = _prepare(rng, sampled.letter_code(k))
                fresh |= ((support >> k) & 1) << q
            else:
                l3[q] = rng.choice(pauli_gates)
        for sub, f in (((l1, (), ()), 0), (layer, fresh), ((bytes(l3), (), ()), 0)):
            state, _ = _walk_layer(state, sub, f)
            layers.append(sub)
            fresh_masks.append(f)
        first += len(measured)

    x, z, _ = state
    final = (bytes(_align(rng, _letter(x, z, q)) for q in range(n)), (), ())
    if conjugate_bits(final, *state)[0]:
        raise RuntimeError("final layer failed to Z-align the tracked Pauli")
    return QirbCircuit(n, (*layers, final), (*fresh_masks, 0), tracked, reset_flag)


def classify_outcome(circuit: QirbCircuit, outcome: str, frame_sign: int = 1) -> int:
    """+1 iff the outcome's parity on the target support matches its sign.

    ``outcome`` is an (m+n)-character string of ``0`` and ``1``, MCM bits
    first, as the keys of a result's counts. ``frame_sign`` carries the
    reset-free frame correction (+1 otherwise). Bits outside the target's
    support can never affect the result.
    """
    width = circuit.n + circuit.m
    if len(outcome) != width:
        raise ValueError(f"outcome has {len(outcome)} bits, circuit needs {width}")
    if not set(outcome) <= {"0", "1"}:
        raise ValueError(f"outcome {outcome!r} holds a character other than 0 and 1")
    parity = (int(outcome[::-1], 2) & circuit.target.z).bit_count() & 1
    observed = -1 if parity else 1
    return 1 if observed == circuit.target.sign * frame_sign else -1


def resolve_reset_free(circuit: QirbCircuit, mcm_bits) -> int:
    """Per-shot classification sign of a reset-free circuit from its observed
    MCM bits (frame-correction post-processing).

    A classical Pauli frame starts empty; after each MCM with observed bit j
    on wire q, the frame's component on q becomes X^j; the frame is
    conjugated (unsigned) through all subsequent layers and every later
    readout on a wire where it carries X or Y has its parity flipped. The
    returned sign is (-1)^(number of flipped readouts on the target support).
    """
    if circuit.reset:
        raise ValueError("reset circuits need no reset-free resolution")
    bits = tuple(mcm_bits)
    if len(bits) != circuit.m:
        raise ValueError(f"need {circuit.m} MCM bits, got {len(bits)}")
    if not all(b in (0, 1) for b in bits):
        raise ValueError(f"MCM bits {bits!r} hold a value other than 0 and 1")

    fx = fz = 0
    flip_parity = 0
    zmask = circuit.target.z
    k = 0
    for layer in circuit.layers:
        fx, fz, _ = conjugate_bits(layer, fx, fz, 1)
        for q in layer[2]:
            if (fx >> q) & 1 and (zmask >> k) & 1:
                flip_parity ^= 1
            # The wire collapses: its frame component is replaced by X^bit.
            fx &= ~(1 << q)
            fz &= ~(1 << q)
            if bits[k]:
                fx |= 1 << q
            k += 1
    flip_parity ^= (fx & (zmask >> circuit.m)).bit_count() & 1
    return -1 if flip_parity else 1


@dataclass(frozen=True)
class TrackedWalk:
    """The tracked Pauli through a circuit: ``after[i]`` is the ``(x, z,
    sign)`` triple of ints on the n wires as it leaves ``circuit.layers[i]``.
    After an ``l1`` the next ``l2``'s measured wires carry the I/Z letters
    they measure, after that ``l2`` they carry Z exactly on its ``fresh``
    wires, and ``after[-1]`` is the Z-type Pauli the final readout checks.

    ``target`` is the (n+m)-wire Z-type Pauli that classifies outcomes: the
    measured letters in outcome-bit order, then ``after[-1]``'s, with its
    sign.
    """

    after: tuple[tuple[int, int, int], ...]
    target: SignedPauli


def tracked_walk(circuit: QirbCircuit) -> TrackedWalk:
    """Walk the tracked Pauli through every layer by the builder's step
    (:func:`_walk_layer`) and derive the target. A layer that fails to
    Z-align the Pauli where it must raises ValueError."""
    after = []
    state = (0, circuit.tracked, 1)
    target_z = 0
    k = 0
    for layer, fresh in zip(circuit.layers, circuit.fresh):
        try:
            state, pre = _walk_layer(state, layer, fresh)
        except RuntimeError as exc:
            raise ValueError(f"the layers cannot track a Pauli: {exc}") from exc
        after.append(state)
        target_z |= pre << k
        k += len(layer[2])
    x, z, sign = state
    if x:
        raise ValueError("the layers cannot track a Pauli: final layer failed to Z-align it")
    return TrackedWalk(tuple(after), SignedPauli(circuit.n + k, 0, target_z | z << k, sign))
