"""Noisy stabilizer simulation of benchmark circuits.

Gate noise is stochastic-Pauli (depolarizing shorthand), measurement noise
follows the uniform-stochastic-instrument picture: a pre-measurement bitflip,
a post-measurement bitflip, and an independent Pauli on the unmeasured wires,
all sampled per shot.

This is a Pauli-frame simulator in the design of Stim (Gidney, Quantum 5,
497 (2021)). One noiseless pass of the Aaronson-Gottesman reference tableau
(:mod:`qirb.tableau`) per circuit gives every measurement a reference
outcome, with random outcomes forced to 0. Each shot differs from the
reference by a Pauli frame whose per-wire X and Z components are packed
across shots into one integer each (bit ``s`` is shot ``s``). A gate updates
the frame with a few XORs, noise XORs its Pauli in, and a measurement reads
the reference bit XOR the X component. Each wire's Z component is redrawn at
random at the start and after every measurement; Z then stabilizes the wire,
so the redraw leaves the state alone while making random outcomes random.

The run of single-qubit gates on one wire between two of its CNOTs or
measurements is one frame op: the composition of the gates' affine maps
``(x, z) -> L(x, z) ^ c`` on the frame, and one reference call with the exact
product of the gates' representatives (none if that product is the
identity). Each gate is its representative followed by a Pauli, and the
Pauli parts go to the frame, so the reference skips the Pauli dressing
gates. A run's state is that product and the Pauli: 96 states, so
compiling costs one table step per gate (:func:`_run_table`). Noise is
drawn in bulk, one geometric-gap draw per channel kind per batch of at most
``_BATCH`` shots, one location row per noise event and keyed by op position
and wire. A row inside a run keys to the run's op and carries a letter
code, the letter permutation of the run up to the event, through which the
drawn Pauli is sent back to act before the run. A ``Counter`` counts each
batch's outcome strings.

Reset and feedforward-X return a measured wire to |0>, clearing its X
component. Frame correction leaves the wire as measured and carries the
correction frame of :func:`qirb.builder.resolve_reset_free` in the same
integers above the shot bits, so the same XORs update it and both reset-free
modes consume identical draws and agree shot by shot.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .builder import QirbCircuit
from .noise import NoiseModel
from .pauli import NO_GATE, NUM_ONEQ_CLIFFORDS, clifford_action, clifford_product
from .seeding import derive_np_rng
from .tableau import StabilizerTableau

__all__ = [
    "NoiseModel",
    "SimResult",
    "simulate_result",
]

# Shots simulated together; bounds the frame integers and the noise masks.
_BATCH = 4096


@dataclass(frozen=True)
class SimResult:
    """Aggregated shots for one circuit."""

    shots: int
    n_success: int
    n_fail: int
    counts: dict[str, int] | None = None


_GATE, _CNOT, _MCM, _READ = range(4)  # op kinds of a compiled circuit


def _split_gates() -> tuple[tuple[int | None, tuple[int, ...], int], ...]:
    """Per Clifford index: (representative, letter images, Pauli code).

    The representative is the first index that permutes X, Y and Z the same
    way, or None for a Pauli. The gate is its representative followed by the
    Pauli (a letter code) that anticommutes with exactly the images of X and
    Z whose signs the two disagree on. The images, indexed by letter code,
    are the unsigned images of I, X, Z and Y: the frame's linear part.
    """
    representative: dict[tuple[int, int], int] = {}
    table = []
    for idx in range(NUM_ONEQ_CLIFFORDS):
        _, (cx, sx), (cz, sz), _ = clifford_action(idx)  # images of X and Z
        rep = representative.setdefault((cx, cz), idx)
        _, (_, rx), (_, rz), _ = clifford_action(rep)
        # The images of X and Z anticommute, so Z's image flips X's sign and
        # X's image flips Z's; their letter codes multiply by XOR.
        code = (cz if sx != rx else 0) ^ (cx if sz != rz else 0)
        table.append((None if (cx, cz) == (1, 2) else rep, (0, cx, cz, cx ^ cz), code))
    return tuple(table)


_GATE_SPLIT = _split_gates()


def _run_table() -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[tuple, ...]]:
    """The state machine of a run of single-qubit gates on one wire.

    State ``product << 2 | pauli`` is the run whose representatives multiply
    to Clifford ``product`` and whose Pauli parts, sent through the later
    gates, add up to the letter code ``pauli``; state 0 is the empty run.
    The run's frame map is ``(x, z) -> L(x, z) ^ pauli``, with ``L`` the
    unsigned images of ``product``. Returns ``step``, with ``step[s][g]``
    the state after gate ``g``, and per state its letter code ``lx | lz <<
    2`` (X goes to ``lx``, Z to ``lz`` under ``L``) and its six frame masks.
    """
    step, codes, masks = [], [], []
    for s in range(4 * NUM_ONEQ_CLIFFORDS):
        product, pauli = s >> 2, s & 3
        step.append(tuple(
            (product if rep is None else clifford_product(rep, product)) << 2 | image[pauli] ^ code
            for rep, image, code in _GATE_SPLIT))
        lx, lz = _GATE_SPLIT[product][1][1:3]
        codes.append(lx | lz << 2)
        masks.append(tuple(-(v & 1) for v in (lx, lz, lx >> 1, lz >> 1, pauli, pauli >> 1)))
    return tuple(step), tuple(codes), tuple(masks)


_STEP, _CODE, _MASKS = _run_table()


def _unmap_table() -> np.ndarray:
    """Row ``lx | lz << 2`` sends each letter code back through the letter
    permutation that maps X to ``lx`` and Z to ``lz`` (rows of codes that are
    not a permutation stay 0)."""
    table = np.zeros((16, 4), dtype=np.int64)
    for lx in (1, 2, 3):
        for lz in (1, 2, 3):
            if lx != lz:
                for v in range(4):
                    table[lx | lz << 2, (lx if v & 1 else 0) ^ (lz if v & 2 else 0)] = v
    return table


_UNMAP = _unmap_table()
_IDENTITY_CODE = 1 | 2 << 2  # X to X, Z to Z

# The 15 non-identity two-qubit Pauli pairs (letter codes).
_TWOQ_PAIRS = np.array([(a, b) for a in range(4) for b in range(4) if (a, b) != (0, 0)],
                       dtype=np.int64)


@dataclass(frozen=True)
class _Program:
    """A circuit compiled for the frame pass.

    ``ops`` holds ``(kind, a, b)`` in execution order, each layer's gates
    before its measurements: a run of single-qubit gates on one wire (wire,
    frame masks), a CNOT (control, target), or a measurement (wire, outcome
    index). A run is every single-qubit gate on its wire between two of the
    wire's CNOTs or measurements; it takes the op slot of its first gate.
    Each entry of ``locations`` holds the rows of one noise channel, one row
    per noise location: ``(position, wire, code)``, or ``(position, control,
    target)`` for ``twoq``. An event at position ``p`` acts just before
    ``ops[p]``. A row on a wire inside a run keys to the run's slot, and its
    code ``lx | lz << 2`` is the letter permutation of the run's gates up to
    the event (X to ``lx``, Z to ``lz``), through which the drawn letter is
    sent back; elsewhere the code is the identity's. Every ``p`` is below
    ``len(ops)``: the readouts come last, each with its noise.
    """

    n: int
    ops: tuple[tuple, ...]
    reference: tuple[int, ...]
    on_target: tuple[bool, ...]
    sign: int
    locations: dict[str, np.ndarray]


def _compile(circuit: QirbCircuit) -> _Program:
    """Run the reference tableau over the circuit and lay out its noise."""
    n = circuit.n
    ref = StabilizerTableau(n)
    ops: list = []
    reference: list[int] = []
    # Flat location rows, three ints each, reshaped once at the end.
    locs: dict[str, list] = {k: [] for k in ("oneq", "twoq", "pre", "post", "depol", "readout")}
    oneq = locs["oneq"]
    slot = [-1] * n  # each wire's open run: its op slot, or -1
    state = [0] * n  # and the run's state (_STEP), 0 when none is open

    def close(q: int) -> None:
        if slot[q] >= 0:
            st = state[q]
            if st >> 2:  # the product of the representatives is not the identity
                ref.apply_clifford(st >> 2, q)
            ops[slot[q]] = (_GATE, q, _MASKS[st])
            slot[q], state[q] = -1, 0

    def measure(kind: int, q: int) -> int:
        bit = ref.measure_z(q)
        ops.append((kind, q, len(reference)))
        reference.append(bit)
        return bit

    for row, cnots, measured in circuit.layers:
        for c, t in cnots:
            close(c)
            close(t)
            ref.apply_cnot(c, t)
            ops.append((_CNOT, c, t))
            locs["twoq"] += (len(ops), c, t)
        for q, g in enumerate(row):
            if g != NO_GATE:
                s = slot[q]
                if s < 0:
                    s = slot[q] = len(ops)
                    ops.append(None)
                st = state[q] = _STEP[state[q]][g]
                oneq += (s, q, _CODE[st])
        for q in measured:
            close(q)
            locs["pre"] += (len(ops), q, _IDENTITY_CODE)
            if measure(_MCM, q):
                ref.apply_pauli(1 << q, 0)  # the reference always resets
            locs["post"] += (len(ops), q, _IDENTITY_CODE)
        if measured:
            for w in range(n):
                if w not in measured:
                    locs["depol"] += ((len(ops), w, _IDENTITY_CODE) if slot[w] < 0
                                      else (slot[w], w, _CODE[state[w]]))
    for q in range(n):
        close(q)
        locs["readout"] += (len(ops), q, _IDENTITY_CODE)
        measure(_READ, q)

    target = circuit.target.z
    return _Program(
        n=n,
        ops=tuple(ops),
        reference=tuple(reference),
        on_target=tuple(bool((target >> k) & 1) for k in range(len(reference))),
        sign=circuit.target.sign,
        locations={k: np.array(v, dtype=np.int64).reshape(-1, 3) for k, v in locs.items()},
    )


def _hits(rng: np.random.Generator, p: float, trials: int) -> np.ndarray:
    """Sorted indices of the successes among ``trials`` Bernoulli(p) trials.

    Draws the gaps between successes (geometric), so the cost follows the
    number of successes rather than the number of trials.
    """
    if p <= 0.0 or trials == 0:
        return np.empty(0, dtype=np.int64)
    p = min(p, 1.0)
    expected = trials * p
    size = int(expected + 6.0 * math.sqrt(expected) + 16)
    idx = np.cumsum(rng.geometric(p, size)) - 1
    while idx[-1] < trials:
        idx = np.concatenate((idx, idx[-1] + np.cumsum(rng.geometric(p, size))))
    return idx[: np.searchsorted(idx, trials)]


def _add_faults(faults: dict[int, dict[int, list[int]]], channel: str, rows: np.ndarray,
                shot_idx: np.ndarray, letters: np.ndarray) -> None:
    """XOR drawn Paulis into ``faults``: shot ``shot_idx[i]`` takes the letter
    code ``letters[i]`` (a pair of codes for ``twoq``) at location row
    ``rows[i]`` of ``channel``.

    A letter drawn inside a run of single-qubit gates is sent back through
    the row's letter permutation, so that it acts before the run's op.
    """
    if channel == "twoq":
        wires = ((1, letters[:, 0]), (2, letters[:, 1]))
    else:
        wires = ((1, _UNMAP[rows[:, 2], letters]),)
    for column, codes in wires:
        for p, w, c, s in zip(rows[:, 0].tolist(), rows[:, column].tolist(), codes.tolist(),
                              shot_idx.tolist()):
            masks = faults.setdefault(p, {}).setdefault(w, [0, 0])
            if c & 1:
                masks[0] ^= 1 << s
            if c & 2:
                masks[1] ^= 1 << s


def _sample_faults(prog: _Program, noise: NoiseModel, shots: int,
                   rng: np.random.Generator) -> dict[int, dict[int, list[int]]]:
    """Draw every noise event of ``shots`` shots.

    Returns ``{position: {wire: [x mask, z mask]}}`` for every (position,
    wire) that any shot's noise touches; bit ``s`` of a mask belongs to shot
    ``s``.
    """
    faults: dict[int, dict[int, list[int]]] = {}

    def hits(name: str, p: float) -> tuple[np.ndarray, np.ndarray]:
        """(location row, shot) of every hit of one channel."""
        locs = prog.locations[name]
        idx = _hits(rng, p, len(locs) * shots)
        return locs[idx // shots], idx % shots

    total = noise.oneq_total
    rows, s = hits("oneq", total)
    u = rng.random(s.size) * total
    _add_faults(faults, "oneq", rows, s,
                np.where(u < noise.px, 1, np.where(u < noise.px + noise.py, 3, 2)))
    rows, s = hits("twoq", noise.twoq_total)
    _add_faults(faults, "twoq", rows, s, _TWOQ_PAIRS[rng.integers(0, 15, s.size)])
    for name, p in (("pre", noise.pre_flip), ("post", noise.post_flip),
                    ("readout", noise.readout_flip)):
        rows, s = hits(name, p)
        _add_faults(faults, name, rows, s, np.ones_like(s))  # X
    rows, s = hits("depol", noise.unmeasured_depol)
    _add_faults(faults, "depol", rows, s, rng.integers(1, 4, s.size))
    return faults


def _propagate(prog: _Program, shots: int, faults: dict[int, dict[int, list[int]]],
               rng: np.random.Generator, correct: bool) -> tuple[int, list[int]]:
    """Run the frames of ``shots`` shots through the compiled circuit.

    ``faults`` maps an op position to ``{wire: [x mask, z mask]}``, XORed
    into the frame just before that op. With ``correct`` (reset-free frame
    correction), bits ``shots`` and up of every frame integer carry the
    correction frame. Returns the failure bits (bit ``s`` set when shot
    ``s`` misclassifies) and each measurement's observed outcome bits.
    """
    n = prog.n
    full = (1 << shots) - 1
    nbytes = (shots + 7) >> 3
    # One Z redraw per wire at the start and one per MCM: one per outcome.
    draws = rng.bytes(nbytes * len(prog.reference))
    redraws = [int.from_bytes(draws[i:i + nbytes], "little") & full
               for i in range(0, len(draws), nbytes)]
    fx = [0] * n
    fz = redraws[:n]
    redraw = n
    refs = [full if b else 0 for b in prog.reference]
    on_target = prog.on_target
    record = [0] * len(refs)
    flip = 0
    for i, (kind, a, b) in enumerate(prog.ops):
        if i in faults:
            for w, (xm, zm) in faults[i].items():
                fx[w] ^= xm
                fz[w] ^= zm
        if kind == _GATE:
            x, z = fx[a], fz[a]
            fx[a] = (x & b[0]) ^ (z & b[1]) ^ (full & b[4])
            fz[a] = (x & b[2]) ^ (z & b[3]) ^ (full & b[5])
        elif kind == _CNOT:
            fx[b] ^= fx[a]
            fz[a] ^= fz[b]
        else:
            frame = fx[a]
            correction = frame >> shots
            out = (frame & full) ^ refs[b] ^ correction
            record[b] = out
            if on_target[b]:
                flip ^= correction
            if kind == _MCM:
                fx[a] = out << shots if correct else 0
                fz[a] = redraws[redraw]
                redraw += 1
    fail = flip
    for k, bits in enumerate(record):
        if on_target[k]:
            fail ^= bits
    if prog.sign < 0:
        fail ^= full
    return fail, record


def _batches(circuit: QirbCircuit, noise: NoiseModel, shots: int, seed: int,
             reset_free_mode: str) -> Iterator[tuple[int, int, list[int]]]:
    """Yield (shots, failure bits, outcome bits) per batch of at most
    ``_BATCH`` shots; each batch is drawn only when the previous one has been
    consumed."""
    if shots < 1:
        raise ValueError("shot count must be >= 1")
    if not circuit.reset and reset_free_mode not in ("frame-correction", "feedforward-x"):
        raise ValueError(f"unknown reset-free mode {reset_free_mode!r}")
    correct = not circuit.reset and reset_free_mode == "frame-correction"
    prog = _compile(circuit)
    rng = derive_np_rng(seed)
    for start in range(0, shots, _BATCH):
        size = min(_BATCH, shots - start)
        faults = _sample_faults(prog, noise, size, rng)
        yield (size, *_propagate(prog, size, faults, rng, correct))


def _bit_rows(ints: list[int], shots: int) -> np.ndarray:
    """Shots x len(ints) array of the bits of ``ints`` (bit s of each in row s)."""
    nbytes = (shots + 7) >> 3
    packed = np.frombuffer(b"".join(v.to_bytes(nbytes, "little") for v in ints), dtype=np.uint8)
    return np.unpackbits(packed.reshape(len(ints), nbytes), axis=1, count=shots,
                         bitorder="little").T


def simulate_result(
    circuit: QirbCircuit,
    noise: NoiseModel,
    shots: int,
    seed: int,
    reset_free_mode: str = "frame-correction",
    with_counts: bool = True,
) -> SimResult:
    """Simulate and aggregate: success/fail totals plus outcome counts.

    Each batch is counted before the next is drawn, so only one batch's
    outcome bits are held at a time, whatever ``shots`` is.
    """
    n_fail = 0
    counts = Counter()
    for size, fail, outcomes in _batches(circuit, noise, shots, seed, reset_free_mode):
        n_fail += fail.bit_count()
        if with_counts:
            width = len(outcomes)
            text = (_bit_rows(outcomes, size) + ord("0")).tobytes().decode("ascii")
            counts.update(text[i:i + width] for i in range(0, len(text), width))
    return SimResult(shots, shots - n_fail, n_fail, dict(counts) if with_counts else None)
