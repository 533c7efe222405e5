"""Sampling of core circuit layers from the user-specified distribution.

The default ("at-most-one") rule per layer: with probability ``p_mcm`` place
one MCM on a uniformly random wire; then with probability ``p_cnot`` place
one CNOT on a uniformly random connectivity edge whose endpoints are both
still free (if no such edge exists, no CNOT is placed); every remaining wire
receives an independent uniformly random single-qubit Clifford.

The optional "density" mode instead treats each wire independently: every
wire becomes an MCM with probability ``p_mcm``; eligible edges are then
visited in random order and each becomes a CNOT with probability ``p_cnot``
if both endpoints are still free; leftover wires get random single-qubit
Cliffords.

A sampled layer is a ``(row, cnots, mcms)`` tuple (:mod:`qirb.pauli`): the
CNOTs in the order they were drawn, and the measured wires in increasing
order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .pauli import NO_GATE, NUM_ONEQ_CLIFFORDS, Layer

__all__ = ["SamplingConfig", "complete_graph", "sample_core_layer", "sample_core_circuit"]


def complete_graph(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((a, b) for a in range(n) for b in range(a + 1, n))


@dataclass(frozen=True)
class SamplingConfig:
    """Layer-distribution parameters for the core circuit sampler."""

    n: int
    p_cnot: float
    p_mcm: float
    connectivity: tuple[tuple[int, int], ...] | None = None
    mode: str = "at-most-one"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if isinstance(self.p_cnot, bool) or isinstance(self.p_mcm, bool):
            raise ValueError("p_cnot and p_mcm must be numbers, not true or false")
        if not (0.0 <= self.p_cnot <= 1.0 and 0.0 <= self.p_mcm <= 1.0):
            raise ValueError("p_cnot and p_mcm must lie in [0, 1]")
        if self.mode not in ("at-most-one", "density"):
            raise ValueError(f"unknown sampling mode {self.mode!r}")
        if self.connectivity is not None:
            for a, b in self.connectivity:
                if type(a) is not int or type(b) is not int:
                    raise ValueError(f"connectivity edge ({a!r}, {b!r}) needs integer endpoints")
                if a == b or not (0 <= a < self.n and 0 <= b < self.n):
                    raise ValueError(f"bad connectivity edge ({a}, {b})")
            # A repeated edge would weigh more in the draws than the others.
            if len(set(map(frozenset, self.connectivity))) != len(self.connectivity):
                raise ValueError("a connectivity edge is listed twice")

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        if self.connectivity is not None:
            return self.connectivity
        return complete_graph(self.n)

    @cached_property
    def edges_touching(self) -> tuple[tuple[int, ...], ...]:
        """Per wire, the ascending positions in :attr:`edges` of its edges."""
        touching: list[list[int]] = [[] for _ in range(self.n)]
        for i, (a, b) in enumerate(self.edges):
            touching[a].append(i)
            touching[b].append(i)
        return tuple(map(tuple, touching))


def _place_cnot(rng: random.Random, config: SamplingConfig,
                busy: int | None) -> tuple[int, int] | None:
    """The (control, target) pair of a CNOT on a uniformly random edge clear
    of wire ``busy`` (any edge for None), or None if there is no such edge.

    Draws what ``rng.choice`` over the clear edges in order would, without
    building that list: the drawn index skips the edges that touch ``busy``.
    """
    edges = config.edges
    skip = () if busy is None else config.edges_touching[busy]
    if len(edges) == len(skip):
        return None
    j = rng.randrange(len(edges) - len(skip))
    for i in skip:
        if i > j:
            break
        j += 1
    a, b = edges[j]
    if rng.getrandbits(1):
        a, b = b, a
    return a, b


def sample_core_layer(config: SamplingConfig, rng: random.Random) -> Layer:
    """Draw one core layer. Draw order is fixed, so a seeded rng is repeatable."""
    occupied: set[int] = set()
    mcms: list[int] = []
    cnots: list[tuple[int, int]] = []

    if config.mode == "at-most-one":
        busy = None
        if rng.random() < config.p_mcm:
            busy = rng.randrange(config.n)
            mcms.append(busy)
            occupied.add(busy)
        if rng.random() < config.p_cnot:
            pair = _place_cnot(rng, config, busy)
            if pair is not None:
                cnots.append(pair)
                occupied.update(pair)
    else:
        for w in range(config.n):
            if rng.random() < config.p_mcm:
                mcms.append(w)
                occupied.add(w)
        eligible = [e for e in config.edges if e[0] not in occupied and e[1] not in occupied]
        rng.shuffle(eligible)
        for a, b in eligible:
            if a in occupied or b in occupied:
                continue
            if rng.random() < config.p_cnot:
                if rng.getrandbits(1):
                    a, b = b, a
                occupied.update((a, b))
                cnots.append((a, b))

    row = bytes(NO_GATE if w in occupied else rng.randrange(NUM_ONEQ_CLIFFORDS)
                for w in range(config.n))
    return row, tuple(cnots), tuple(mcms)


def sample_core_circuit(config: SamplingConfig, depth: int, rng: random.Random) -> list[Layer]:
    """``depth`` independently sampled layers (the empty list for depth 0)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    return [sample_core_layer(config, rng) for _ in range(depth)]
