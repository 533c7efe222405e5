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

The tracked (n+m)-wire Z-type target Pauli, with its exactly-propagated
sign, classifies each (m+n)-bit outcome string as success or failure. A
noiseless execution succeeds with probability 1 by construction.

The tracked Pauli goes through each dressed layer in one private step,
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

from .pauli import (
    NUM_ONEQ_CLIFFORDS,
    CircuitLayer,
    CliffordGate,
    SignedPauli,
    clifford_action,
    cliffords_mapping_letter,
    cliffords_preparing,
    conjugate_bits,
    pauli_gate_indices,
    random_pauli,
)

__all__ = [
    "DressedLayer",
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
class DressedLayer:
    """One l1/l2/l3 sandwich around a core layer.

    ``pre_meas_component`` holds the tracked letters (I or Z, sign +1; the
    running sign stays global) on the measured wires just before they are
    measured; ``post_meas_component`` holds the freshly sampled letters that
    re-enter the tracked Pauli, with the eigenvalue signs of their prepared
    states multiplied into its sign. Both are ``None`` for measurement-free
    layers.
    """

    l1: CircuitLayer
    l2: CircuitLayer
    l3: CircuitLayer
    pre_meas_component: SignedPauli | None
    post_meas_component: SignedPauli | None

    def __post_init__(self) -> None:
        for sub in (self.l1, self.l3):
            if sub.mcm_wires or any(g.is_cnot for g in sub.gates):
                raise ValueError("dressing sublayers must be single-qubit gate layers")
        if self.l2.mcm_wires:
            if self.pre_meas_component is None or self.post_meas_component is None:
                raise ValueError("measured layer needs pre/post components")
            if not (self.pre_meas_component.n == self.post_meas_component.n
                    == len(self.l2.mcm_wires)):
                raise ValueError("pre/post components need one letter per measured wire")
            if self.pre_meas_component.x != 0:
                raise ValueError("pre-measurement component must be Z-type")
        elif self.pre_meas_component is not None or self.post_meas_component is not None:
            raise ValueError("a layer without measurements has no pre/post components")


@dataclass(frozen=True)
class QirbCircuit:
    """A fully dressed benchmark circuit with its classification metadata."""

    n: int
    m: int
    prep_layer: CircuitLayer
    dressed: tuple[DressedLayer, ...]
    final_layer: CircuitLayer
    target: SignedPauli
    initial_pauli: SignedPauli
    reset: bool

    def __post_init__(self) -> None:
        if type(self.n) is not int or type(self.m) is not int:
            raise ValueError("wire and MCM counts must be integers")
        if self.target.n != self.n + self.m:
            raise ValueError("target must cover all n+m virtual wires")
        if self.target.x != 0:
            raise ValueError("target must be Z-type")
        layers = [self.prep_layer, self.final_layer]
        for d in self.dressed:
            layers += (d.l1, d.l2, d.l3)
        if any(layer.n != self.n for layer in layers):
            raise ValueError(f"every layer must span the circuit's {self.n} wires")
        if sum(len(d.l2.mcm_wires) for d in self.dressed) != self.m:
            raise ValueError(f"layers measure a number of wires other than m = {self.m}")

    @property
    def depth(self) -> int:
        return len(self.dressed)

    def oneq_gate_count(self) -> int:
        total = self.prep_layer.oneq_gate_count() + self.final_layer.oneq_gate_count()
        for d in self.dressed:
            total += d.l1.oneq_gate_count() + d.l2.oneq_gate_count() + d.l3.oneq_gate_count()
        return total

    def cnot_count(self) -> int:
        return sum(d.l2.cnot_count() for d in self.dressed)


def _choose(rng: random.Random, pool) -> int:
    return pool[rng.randrange(len(pool))]


def _prepare(rng: random.Random, letter: int) -> tuple[int, int]:
    """A uniform random Clifford whose action on |0> prepares an eigenstate of
    ``letter``, and the state's +/-1 eigenvalue; any Clifford, +1, for I."""
    if letter == 0:
        return _choose(rng, _ALL_CLIFFORDS), 1
    idx = _choose(rng, cliffords_preparing(letter))
    return idx, clifford_action(idx)[_Z_CODE][1]


def _letter(x: int, z: int, q: int) -> int:
    return ((x >> q) & 1) | (((z >> q) & 1) << 1)


def _walk_layer(state, l1, l2, l3, post):
    """One dressed layer of the tracked-Pauli walk, on ``(x, z, sign)`` ints.

    The tracked Pauli goes through ``l1``; its letters on the measured wires
    (I or Z, else RuntimeError) move out as the k-bit Z mask ``pre``; it goes
    through ``l2`` and ``l3``, and the fresh letters of ``post`` (a k-wire
    SignedPauli, ``None`` for a measurement-free layer) are spliced in with
    their sign. Returns the states after l1, after l2 and after l3, and
    ``pre``. Both the builder and :func:`tracked_walk` take this step.
    """
    after_l1 = x, z, sign = conjugate_bits(l1.gates, *state)
    pre = 0
    for k, q in enumerate(l2.mcm_wires):
        if (x >> q) & 1:
            raise RuntimeError(f"l1 failed to Z-align measured wire {q}")
        pre |= ((z >> q) & 1) << k
        z &= ~(1 << q)
    after_l2 = x, z, sign = conjugate_bits(l2.gates, x, z, sign)
    x, z, sign = conjugate_bits(l3.gates, x, z, sign)
    if post is not None:
        # Measured wires carry I here: the fresh letters take their place.
        for k, q in enumerate(l2.mcm_wires):
            x |= ((post.x >> k) & 1) << q
            z |= ((post.z >> k) & 1) << q
        sign *= post.sign
    return after_l1, after_l2, (x, z, sign), pre


def build_qirb_circuit(
    core: list[CircuitLayer],
    reset_flag: bool,
    rng: random.Random,
    n: int | None = None,
) -> QirbCircuit:
    """Dress a core circuit into a complete benchmark circuit.

    ``n`` is only needed for an empty core (depth 0). Construction always
    succeeds for Clifford cores; all sampling uses the supplied rng. The
    tracked Pauli goes through each dressed layer by :func:`_walk_layer`,
    the step that :func:`tracked_walk` replays.
    """
    if core:
        n = core[0].n
        if any(layer.n != n for layer in core):
            raise ValueError("core layers disagree on wire count")
    elif n is None:
        raise ValueError("an empty core needs an explicit wire count")
    m = sum(len(layer.mcm_wires) for layer in core)

    sampled = random_pauli(n + m, rng)
    pauli_gates = pauli_gate_indices()

    # Preparation: wire q gets a uniform random eigenstate of sampled(q);
    # the +/-1 eigenvalue choices accumulate into the tracked sign.
    sign = 1
    prep_gates = []
    for q in range(n):
        idx, eigenvalue = _prepare(rng, sampled.letter_code(q))
        sign *= eigenvalue
        prep_gates.append(CliffordGate(idx, (q,)))
    prep_layer = CircuitLayer(n, tuple(prep_gates))
    wires = (1 << n) - 1
    initial = SignedPauli(n, sampled.x & wires, sampled.z & wires, sign)

    state = (initial.x, initial.z, sign)
    target_z = 0
    dressed: list[DressedLayer] = []
    mcm_counter = 0

    for layer in core:
        measured = layer.mcm_wires
        mset = set(measured)
        x, z, _ = state

        l1_gates = []
        for q in range(n):
            if q in mset:
                code = _letter(x, z, q)
                pool = _ALL_CLIFFORDS if code == 0 else cliffords_mapping_letter(code, _Z_CODE)
                idx = _choose(rng, pool)
            else:
                idx = _choose(rng, pauli_gates)
            l1_gates.append(CliffordGate(idx, (q,)))
        l1 = CircuitLayer(n, tuple(l1_gates))

        # Re-preparation: measured wires get the fresh letters that sampled
        # holds on the layer's virtual wires, the other wires random Paulis.
        # Eigenvalue signs multiply into the post-measurement component.
        first = n + mcm_counter
        l3_gates = []
        post_sign = 1
        for q in range(n):
            if q in mset:
                idx, eigenvalue = _prepare(rng, sampled.letter_code(first + measured.index(q)))
                post_sign *= eigenvalue
            else:
                idx = _choose(rng, pauli_gates)
            l3_gates.append(CliffordGate(idx, (q,)))
        l3 = CircuitLayer(n, tuple(l3_gates))

        pre_comp = post_comp = None
        if measured:
            k_wires = (1 << len(measured)) - 1
            post_comp = SignedPauli(len(measured), (sampled.x >> first) & k_wires,
                                    (sampled.z >> first) & k_wires, post_sign)
        _, _, state, pre = _walk_layer(state, l1, layer, l3, post_comp)
        if measured:
            pre_comp = SignedPauli(len(measured), 0, pre, 1)
            target_z |= pre << mcm_counter
            mcm_counter += len(measured)

        dressed.append(DressedLayer(l1, layer, l3, pre_comp, post_comp))

    x, z, sign = state
    final_gates = []
    for q in range(n):
        code = _letter(x, z, q)
        pool = _ALL_CLIFFORDS if code == 0 else cliffords_mapping_letter(code, _Z_CODE)
        final_gates.append(CliffordGate(_choose(rng, pool), (q,)))
    final_layer = CircuitLayer(n, tuple(final_gates))
    x, z, sign = conjugate_bits(final_layer.gates, x, z, sign)
    if x != 0:
        raise RuntimeError("final layer failed to Z-align the tracked Pauli")
    target_z |= z << m

    return QirbCircuit(
        n=n,
        m=m,
        prep_layer=prep_layer,
        dressed=tuple(dressed),
        final_layer=final_layer,
        target=SignedPauli(n + m, 0, target_z, sign),
        initial_pauli=initial,
        reset=reset_flag,
    )


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

    fx = fz = 0
    flip_parity = 0
    zmask = circuit.target.z
    k = 0
    for d in circuit.dressed:
        fx, fz, _ = conjugate_bits(d.l1.gates + d.l2.gates, fx, fz, 1)
        for q in d.l2.mcm_wires:
            if (fx >> q) & 1 and (zmask >> k) & 1:
                flip_parity ^= 1
            # The wire collapses: its frame component is replaced by X^bit.
            fx &= ~(1 << q)
            fz &= ~(1 << q)
            if bits[k]:
                fx |= 1 << q
            k += 1
        fx, fz, _ = conjugate_bits(d.l3.gates, fx, fz, 1)
    fx, _, _ = conjugate_bits(circuit.final_layer.gates, fx, fz, 1)
    flip_parity ^= (fx & (zmask >> circuit.m)).bit_count() & 1
    return -1 if flip_parity else 1


@dataclass(frozen=True)
class TrackedWalk:
    """Tracked-Pauli snapshots replayed from a built circuit.

    Per dressed layer ``i``:

    * ``after_l1[i]``: tracked Pauli after the l1 sublayer (measured wires
      still carry their I/Z pre-measurement components),
    * ``after_l2[i]``: after the core layer's gates, with measured
      components moved out (I on measured wires),
    * ``after_l3[i]``: fresh components spliced back in.

    ``final`` is the Z-type Pauli checked by the end-of-circuit readout.
    """

    initial: SignedPauli
    after_l1: tuple[SignedPauli, ...]
    after_l2: tuple[SignedPauli, ...]
    after_l3: tuple[SignedPauli, ...]
    final: SignedPauli


def tracked_walk(circuit: QirbCircuit) -> TrackedWalk:
    """Replay the builder's walk (:func:`_walk_layer`) through every layer and
    cross-check each stored pre-measurement component, the target's Z mask
    and its sign; any disagreement raises ValueError."""
    n, m = circuit.n, circuit.m
    p = circuit.initial_pauli
    state = (p.x, p.z, p.sign)
    after_l1, after_l2, after_l3 = [], [], []
    target_z = 0
    k = 0
    for d in circuit.dressed:
        try:
            s1, s2, state, pre = _walk_layer(state, d.l1, d.l2, d.l3, d.post_meas_component)
        except RuntimeError as exc:
            raise ValueError(f"replayed tracking disagrees with the stored layers: {exc}") from exc
        after_l1.append(SignedPauli(n, *s1))
        after_l2.append(SignedPauli(n, *s2))
        after_l3.append(SignedPauli(n, *state))
        measured = len(d.l2.mcm_wires)
        if measured:
            if d.pre_meas_component != SignedPauli(measured, 0, pre, 1):
                raise ValueError("stored pre-measurement component disagrees with the replay")
            target_z |= pre << k
            k += measured
    x, z, sign = conjugate_bits(circuit.final_layer.gates, *state)
    target_z |= z << m
    if x or target_z != circuit.target.z or sign != circuit.target.sign:
        raise ValueError("replayed tracking disagrees with the stored target")
    return TrackedWalk(p, tuple(after_l1), tuple(after_l2), tuple(after_l3),
                       SignedPauli(n, x, z, sign))
