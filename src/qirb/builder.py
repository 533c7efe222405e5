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
    conjugate,
    pauli_gate_indices,
    random_pauli,
)

__all__ = [
    "DressedLayer",
    "QirbCircuit",
    "OutcomeString",
    "build_qirb_circuit",
    "classify_outcome",
    "resolve_reset_free",
    "TrackedWalk",
    "tracked_walk",
]

_Z_CODE = 2


@dataclass(frozen=True)
class OutcomeString:
    """One shot's (m+n)-bit readout record, MCM bits first."""

    bits: tuple[int, ...]

    @classmethod
    def from_string(cls, s: str) -> "OutcomeString":
        return cls(tuple(int(c) for c in s))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


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
            if self.pre_meas_component.x != 0:
                raise ValueError("pre-measurement component must be Z-type")


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
    mcm_bit_order: tuple[tuple[int, int], ...]
    discard_mask: int
    reset: bool

    def __post_init__(self) -> None:
        if type(self.n) is not int or type(self.m) is not int:
            raise ValueError("wire and MCM counts must be integers")
        if self.target.n != self.n + self.m:
            raise ValueError("target must cover all n+m virtual wires")
        if self.target.x != 0:
            raise ValueError("target must be Z-type")
        if len(self.mcm_bit_order) != self.m:
            raise ValueError("mcm_bit_order must list every MCM")
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


def _set_letter(x: int, z: int, q: int, code: int) -> tuple[int, int]:
    x = (x & ~(1 << q)) | ((code & 1) << q)
    z = (z & ~(1 << q)) | (((code >> 1) & 1) << q)
    return x, z


def build_qirb_circuit(
    core: list[CircuitLayer],
    reset_flag: bool,
    rng: random.Random,
    n: int | None = None,
) -> QirbCircuit:
    """Dress a core circuit into a complete benchmark circuit.

    ``n`` is only needed for an empty core (depth 0). Construction always
    succeeds for Clifford cores; all sampling uses the supplied rng.
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
    all_cliffords = tuple(range(NUM_ONEQ_CLIFFORDS))

    # Preparation: wire q gets a uniform random eigenstate of sampled(q);
    # the +/-1 eigenvalue choices accumulate into the tracked sign.
    x = z = 0
    sign = 1
    prep_gates = []
    for q in range(n):
        letter = sampled.letter_code(q)
        if letter == 0:
            idx = _choose(rng, all_cliffords)
        else:
            idx = _choose(rng, cliffords_preparing(letter))
            sign *= clifford_action(idx)[_Z_CODE][1]
            x, z = _set_letter(x, z, q, letter)
        prep_gates.append(CliffordGate(idx, (q,)))
    prep_layer = CircuitLayer(n, tuple(prep_gates))
    initial = SignedPauli(n, x, z, sign)

    cur = initial
    target_x = target_z = 0
    dressed: list[DressedLayer] = []
    bit_order: list[tuple[int, int]] = []
    mcm_counter = 0

    for i, layer in enumerate(core):
        measured = layer.mcm_wires
        mset = set(measured)

        l1_gates = []
        for q in range(n):
            code = cur.letter_code(q)
            if q in mset:
                pool = all_cliffords if code == 0 else cliffords_mapping_letter(code, _Z_CODE)
                idx = _choose(rng, pool)
            else:
                idx = _choose(rng, pauli_gates)
            l1_gates.append(CliffordGate(idx, (q,)))
        l1 = CircuitLayer(n, tuple(l1_gates))
        cur = conjugate(l1, cur)

        # Move the measured components (now I or Z) onto their virtual wires.
        pre_comp = None
        if measured:
            px = pz = 0
            cx, cz = cur.x, cur.z
            for k, q in enumerate(measured):
                code = cur.letter_code(q)
                assert code in (0, _Z_CODE), "l1 failed to Z-align a measured wire"
                if code == _Z_CODE:
                    pz |= 1 << k
                    target_z |= 1 << (mcm_counter + k)
                cx &= ~(1 << q)
                cz &= ~(1 << q)
                bit_order.append((i, q))
            cur = SignedPauli(n, cx, cz, cur.sign)
            pre_comp = SignedPauli(len(measured), px, pz, 1)

        cur = conjugate(layer, cur)

        # Re-preparation: fresh letters for measured wires, random Paulis
        # elsewhere. Eigenvalue signs multiply into the running sign.
        l3_gates = []
        post_comp = None
        post_x = post_z = 0
        post_sign = 1
        fresh: list[tuple[int, int]] = []
        for q in range(n):
            if q in mset:
                k = measured.index(q)
                letter = sampled.letter_code(n + mcm_counter + k)
                if letter == 0:
                    idx = _choose(rng, all_cliffords)
                else:
                    idx = _choose(rng, cliffords_preparing(letter))
                    post_sign *= clifford_action(idx)[_Z_CODE][1]
                    post_x |= (letter & 1) << k
                    post_z |= ((letter >> 1) & 1) << k
                    fresh.append((q, letter))
                l3_gates.append(CliffordGate(idx, (q,)))
            else:
                l3_gates.append(CliffordGate(_choose(rng, pauli_gates), (q,)))
        l3 = CircuitLayer(n, tuple(l3_gates))
        cur = conjugate(l3, cur)
        if measured:
            cx, cz = cur.x, cur.z
            for q, letter in fresh:
                cx, cz = _set_letter(cx, cz, q, letter)
            cur = SignedPauli(n, cx, cz, cur.sign * post_sign)
            post_comp = SignedPauli(len(measured), post_x, post_z, post_sign)
            mcm_counter += len(measured)

        dressed.append(DressedLayer(l1, layer, l3, pre_comp, post_comp))

    final_gates = []
    for q in range(n):
        code = cur.letter_code(q)
        pool = all_cliffords if code == 0 else cliffords_mapping_letter(code, _Z_CODE)
        final_gates.append(CliffordGate(_choose(rng, pool), (q,)))
    final_layer = CircuitLayer(n, tuple(final_gates))
    cur = conjugate(final_layer, cur)
    assert cur.x == 0, "final layer failed to Z-align the tracked Pauli"
    target_z |= cur.z << m

    target = SignedPauli(n + m, target_x, target_z, cur.sign)
    discard = ((1 << (n + m)) - 1) & ~target.support()
    return QirbCircuit(
        n=n,
        m=m,
        prep_layer=prep_layer,
        dressed=tuple(dressed),
        final_layer=final_layer,
        target=target,
        initial_pauli=initial,
        mcm_bit_order=tuple(bit_order),
        discard_mask=discard,
        reset=reset_flag,
    )


def classify_outcome(circuit: QirbCircuit, outcome: OutcomeString, frame_sign: int = 1) -> int:
    """+1 iff the outcome's parity on the target support matches its sign.

    ``frame_sign`` carries the reset-free frame correction (+1 otherwise).
    Bits under the discard mask can never affect the result because the
    target has no support there.
    """
    bits = outcome.bits
    if len(bits) != circuit.n + circuit.m:
        raise ValueError(f"outcome has {len(bits)} bits, circuit needs {circuit.n + circuit.m}")
    parity = 0
    zmask = circuit.target.z
    for v, b in enumerate(bits):
        if b and (zmask >> v) & 1:
            parity ^= 1
    observed = -1 if parity else 1
    return 1 if observed == circuit.target.sign * frame_sign else -1


def resolve_reset_free(circuit: QirbCircuit, mcm_bits, mode: str = "frame-correction"):
    """Post-process observed MCM bits for reset-free circuits.

    In ``frame-correction`` mode, returns the per-shot classification sign:
    a classical Pauli frame starts empty; after each MCM with observed bit j
    on wire q, the frame's component on q becomes X^j; the frame is
    conjugated (unsigned) through all subsequent layers and every later
    readout on a wire where it carries X or Y has its parity flipped. The
    returned sign is (-1)^(number of flipped readouts on the target support).

    In ``feedforward-x`` mode, returns the equivalent in-circuit correction:
    the list of (mcm index, wire) pairs after which an X gate would fire
    given these observed bits.
    """
    if circuit.reset:
        raise ValueError("reset circuits need no reset-free resolution")
    bits = tuple(mcm_bits)
    if len(bits) != circuit.m:
        raise ValueError(f"need {circuit.m} MCM bits, got {len(bits)}")
    if mode == "feedforward-x":
        return [(k, circuit.mcm_bit_order[k][1]) for k, b in enumerate(bits) if b]
    if mode != "frame-correction":
        raise ValueError(f"unknown reset-free mode {mode!r}")

    n = circuit.n
    frame = SignedPauli.identity(n)
    flip_parity = 0
    zmask = circuit.target.z
    k = 0
    for i, d in enumerate(circuit.dressed):
        frame = conjugate(d.l1.gates, frame)
        frame = conjugate(d.l2.gates, frame)
        fx, fz = frame.x, frame.z
        for q in d.l2.mcm_wires:
            if (fx >> q) & 1 and (zmask >> k) & 1:
                flip_parity ^= 1
            # The wire collapses: its frame component is replaced by X^bit.
            fx &= ~(1 << q)
            fz &= ~(1 << q)
            if bits[k]:
                fx |= 1 << q
            k += 1
        frame = SignedPauli(n, fx, fz, 1)
        frame = conjugate(d.l3.gates, frame)
    frame = conjugate(circuit.final_layer.gates, frame)
    for q in range(n):
        if (frame.x >> q) & 1 and (zmask >> (circuit.m + q)) & 1:
            flip_parity ^= 1
    return -1 if flip_parity else 1


@dataclass(frozen=True)
class TrackedWalk:
    """Tracked-Pauli snapshots replayed from a built circuit.

    Per dressed layer ``i``:

    * ``after_l1[i]``: tracked Pauli after the l1 sublayer (measured wires
      still carry their I/Z pre-measurement components),
    * ``after_l2[i]``: after the core layer's gates, with measured
      components moved out (I on measured wires),
    * ``post_meas[i]``: synthetic view between measurement and l3: Z on each
      measured wire whose fresh component is non-identity, I where it is
      identity, unmeasured wires as in ``after_l2``,
    * ``after_l3[i]``: fresh components spliced back in.

    ``final`` is the Z-type Pauli checked by the end-of-circuit readout.
    """

    initial: SignedPauli
    after_l1: tuple[SignedPauli, ...]
    after_l2: tuple[SignedPauli, ...]
    post_meas: tuple[SignedPauli, ...]
    after_l3: tuple[SignedPauli, ...]
    final: SignedPauli


def tracked_walk(circuit: QirbCircuit) -> TrackedWalk:
    """Recompute every tracked Pauli and cross-check the stored target."""
    n, m = circuit.n, circuit.m
    cur = circuit.initial_pauli
    after_l1 = []
    after_l2 = []
    post_meas = []
    after_l3 = []
    target_z = 0
    k = 0
    for d in circuit.dressed:
        cur = conjugate(d.l1, cur)
        after_l1.append(cur)
        measured = d.l2.mcm_wires
        cx, cz = cur.x, cur.z
        for j, q in enumerate(measured):
            code = cur.letter_code(q)
            if code != d.pre_meas_component.letter_code(j) or code not in (0, _Z_CODE):
                raise ValueError("stored pre-measurement component disagrees with the replay")
            if code == _Z_CODE:
                target_z |= 1 << (k + j)
            cx &= ~(1 << q)
            cz &= ~(1 << q)
        cur = SignedPauli(n, cx, cz, cur.sign)
        cur = conjugate(d.l2, cur)
        after_l2.append(cur)
        if measured:
            px, pz = cur.x, cur.z
            for j, q in enumerate(measured):
                if d.post_meas_component.letter_code(j) != 0:
                    pz |= 1 << q
            post_meas.append(SignedPauli(n, px, pz, cur.sign))
        else:
            post_meas.append(cur)
        cur = conjugate(d.l3, cur)
        if measured:
            cx, cz = cur.x, cur.z
            for j, q in enumerate(measured):
                code = d.post_meas_component.letter_code(j)
                if code:
                    cx, cz = _set_letter(cx, cz, q, code)
            cur = SignedPauli(n, cx, cz, cur.sign * d.post_meas_component.sign)
            k += len(measured)
        after_l3.append(cur)
    cur = conjugate(circuit.final_layer, cur)
    target_z |= cur.z << m
    if cur.x or target_z != circuit.target.z or cur.sign != circuit.target.sign:
        raise ValueError("replayed tracking disagrees with the stored target")
    return TrackedWalk(
        initial=circuit.initial_pauli,
        after_l1=tuple(after_l1),
        after_l2=tuple(after_l2),
        post_meas=tuple(post_meas),
        after_l3=tuple(after_l3),
        final=cur,
    )
