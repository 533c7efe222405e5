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
so the redraw leaves the state alone while making random outcomes random. A
single-qubit gate's Pauli part goes to the frame, so the reference skips the
Pauli dressing gates. Noise is drawn in bulk, one geometric-gap draw per
channel kind per batch of at most ``_BATCH`` shots and keyed by op position
and wire; a ``Counter`` counts each batch's outcome strings.

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
from dataclasses import dataclass, fields

import numpy as np

from .builder import QirbCircuit
from .pauli import NUM_ONEQ_CLIFFORDS, clifford_action, pauli_product_phase
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
class NoiseModel:
    """Per-operation stochastic noise for the whole simulation, as eight rates.

    Every single-qubit gate takes an X, Y or Z error with probability ``px``,
    ``py`` or ``pz``, and every CNOT each of the 15 non-identity two-qubit
    Paulis with probability ``twoq_each``. Each MCM layer is a factorized
    uniform stochastic instrument: each measured wire takes an independent
    pre-measurement bitflip with probability ``pre_flip`` and a
    post-measurement bitflip with probability ``post_flip``, and each
    unmeasured wire an independent uniformly random non-identity Pauli with
    total probability ``unmeasured_depol``. Each final readout flips with
    probability ``readout_flip``.
    """

    px: float = 0.0
    py: float = 0.0
    pz: float = 0.0
    twoq_each: float = 0.0
    pre_flip: float = 0.0
    post_flip: float = 0.0
    unmeasured_depol: float = 0.0
    readout_flip: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            rate = getattr(self, f.name)
            # A NaN rate fails every comparison, so it is rejected too.
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"noise rate {f.name} must lie in [0, 1], got {rate!r}")
        if self.oneq_total > 1 + 1e-12:
            raise ValueError("one-qubit error probabilities px + py + pz exceed 1")
        if self.twoq_total > 1 + 1e-12:
            raise ValueError("two-qubit error probability 15 * twoq_each exceeds 1")

    @property
    def oneq_total(self) -> float:
        return self.px + self.py + self.pz

    @property
    def twoq_total(self) -> float:
        return 15 * self.twoq_each

    @classmethod
    def zero(cls) -> "NoiseModel":
        return cls()

    @classmethod
    def depolarizing(
        cls,
        f1q: float = 0.999,
        f2q: float = 0.995,
        mcm_flip: float = 0.02,
        readout_flip: float | None = None,
        mcm_post_flip: float = 0.0,
        mcm_unmeasured_depol: float = 0.0,
    ) -> "NoiseModel":
        """Shorthand model: gate fidelities plus measurement bitflip rates.

        The end-of-circuit readout flip defaults to the MCM pre-measurement
        flip rate.
        """
        eps = (1.0 - f1q) / 3.0
        return cls(
            px=eps,
            py=eps,
            pz=eps,
            twoq_each=(1.0 - f2q) / 15.0,
            pre_flip=mcm_flip,
            post_flip=mcm_post_flip,
            unmeasured_depol=mcm_unmeasured_depol,
            readout_flip=mcm_flip if readout_flip is None else readout_flip,
        )


@dataclass(frozen=True)
class SimResult:
    """Aggregated shots for one circuit."""

    shots: int
    n_success: int
    n_fail: int
    counts: dict[str, int] | None = None


_GATE, _CNOT, _MCM, _READ = range(4)  # op kinds of a compiled circuit


def _split_gates() -> tuple[tuple[int | None, tuple[int, ...]], ...]:
    """Per Clifford index: (representative, frame masks).

    The representative is the first index that permutes X, Y and Z the same
    way, or None for a Pauli. The gate is its representative followed by the
    Pauli that anticommutes with exactly the images of X and Z whose signs
    the two disagree on. The masks, each 0 or -1, give the frame update
    ``x' = x&m0 ^ z&m1 ^ px``, ``z' = x&m2 ^ z&m3 ^ pz``, where
    ``px = full&m4`` and ``pz = full&m5`` apply that Pauli to every shot.
    """
    representative: dict[tuple[int, int], int] = {}
    table = []
    for idx in range(NUM_ONEQ_CLIFFORDS):
        _, (cx, sx), (cz, sz), _ = clifford_action(idx)  # images of X and Z
        rep = representative.setdefault((cx, cz), idx)
        _, (_, rx), (_, rz), _ = clifford_action(rep)
        # An odd product phase means the two letters anticommute.
        code = next(c for c in range(4) if all(
            pauli_product_phase(c & 1, c >> 1, image & 1, image >> 1) % 2 == (s != r)
            for image, s, r in ((cx, sx, rx), (cz, sz, rz))))
        masks = tuple(-(v & 1) for v in (cx, cz, cx >> 1, cz >> 1, code, code >> 1))
        table.append((None if (cx, cz) == (1, 2) else rep, masks))
    return tuple(table)


_GATE_SPLIT = _split_gates()

# The 15 non-identity two-qubit Pauli pairs (letter codes).
_TWOQ_PAIRS = np.array([(a, b) for a in range(4) for b in range(4) if (a, b) != (0, 0)],
                       dtype=np.int64)


@dataclass(frozen=True)
class _Program:
    """A circuit compiled for the frame pass.

    ``ops`` holds ``(kind, a, b)`` in execution order, each layer's gates
    before its measurements: a single-qubit gate (wire, frame masks), a CNOT
    (control, target), or a measurement (wire, outcome index). Each entry of
    ``locations`` holds ``(position, wire[, wire])`` rows of one noise
    channel; an event at position ``p`` acts just before ``ops[p]``. Every
    ``p`` is below ``len(ops)``: the readouts come last, each with its noise.
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
    ops: list[tuple] = []
    reference: list[int] = []
    locs: dict[str, list] = {k: [] for k in ("oneq", "twoq", "pre", "post", "depol", "readout")}

    def gates(layer) -> None:
        for g in layer.gates:
            if g.is_cnot:
                c, t = g.wires
                ref.apply_cnot(c, t)
                ops.append((_CNOT, c, t))
                locs["twoq"].append((len(ops), c, t))
            else:
                q = g.wires[0]
                rep, masks = _GATE_SPLIT[g.index]
                if rep is not None:
                    ref.apply_clifford(rep, q)
                ops.append((_GATE, q, masks))
                locs["oneq"].append((len(ops), q))

    def measure(kind: int, q: int) -> int:
        bit = ref.measure_z(q)
        ops.append((kind, q, len(reference)))
        reference.append(bit)
        return bit

    gates(circuit.prep_layer)
    for d in circuit.dressed:
        gates(d.l1)
        gates(d.l2)
        measured = d.l2.mcm_wires
        for q in measured:
            locs["pre"].append((len(ops), q))
            if measure(_MCM, q):
                ref.apply_pauli(1 << q, 0)  # the reference always resets
            locs["post"].append((len(ops), q))
        if measured:
            locs["depol"].extend((len(ops), w) for w in range(n) if w not in measured)
        gates(d.l3)
    gates(circuit.final_layer)
    for q in range(n):
        locs["readout"].append((len(ops), q))
        measure(_READ, q)

    target = circuit.target.z
    return _Program(
        n=n,
        ops=tuple(ops),
        reference=tuple(reference),
        on_target=tuple(bool((target >> k) & 1) for k in range(len(reference))),
        sign=circuit.target.sign,
        locations={k: np.array(v, dtype=np.int64).reshape(len(v), 3 if k == "twoq" else 2)
                   for k, v in locs.items()},
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

    def add(rows: np.ndarray, shot_idx: np.ndarray, codes, column: int = 1) -> None:
        for p, w, c, s in zip(rows[:, 0].tolist(), rows[:, column].tolist(), codes.tolist(),
                              shot_idx.tolist()):
            masks = faults.setdefault(p, {}).setdefault(w, [0, 0])
            if c & 1:
                masks[0] ^= 1 << s
            if c & 2:
                masks[1] ^= 1 << s

    total = noise.oneq_total
    rows, s = hits("oneq", total)
    u = rng.random(s.size) * total
    add(rows, s, np.where(u < noise.px, 1, np.where(u < noise.px + noise.py, 3, 2)))
    rows, s = hits("twoq", noise.twoq_total)
    pairs = _TWOQ_PAIRS[rng.integers(0, 15, s.size)]
    add(rows, s, pairs[:, 0], 1)
    add(rows, s, pairs[:, 1], 2)
    for name, p in (("pre", noise.pre_flip), ("post", noise.post_flip),
                    ("readout", noise.readout_flip)):
        rows, s = hits(name, p)
        add(rows, s, np.ones_like(s))  # X
    rows, s = hits("depol", noise.unmeasured_depol)
    add(rows, s, rng.integers(1, 4, s.size))
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
