"""Experiment-level orchestration: designs, batch simulation, analysis.

A design pins everything needed to regenerate its circuits bit-for-bit:
sampling parameters, depths, circuit counts, shots and the master seed.
Simulation seeds derive per circuit from the master seed, so results do
not depend on the order in which circuits are simulated.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .analysis import DecayDataset, ErmDatum, erm_counts
from .builder import QirbCircuit, build_qirb_circuit
from .noise import NoiseModel
from .sampler import SamplingConfig, sample_core_circuit
from .seeding import derive_rng, derive_seed
from .simulator import SimResult, simulate_result

__all__ = [
    "DEFAULT_DEPTHS",
    "ExperimentDesign",
    "CircuitResult",
    "build_design_circuits",
    "simulate_design",
    "decay_dataset_from_results",
    "erm_data_from_results",
]

DEFAULT_DEPTHS = (0, 1, 4, 32, 128)


@dataclass(frozen=True)
class ExperimentDesign(SamplingConfig):
    """One benchmark experiment: a sampling config plus acquisition sizes.

    Its file form is ``dataclasses.asdict`` of it; :meth:`from_obj` reads
    that back, and refuses any other key.
    """

    depths: tuple[int, ...] = DEFAULT_DEPTHS
    circuits_per_depth: int = 15
    shots: int = 100
    reset: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        counts = (self.n, self.circuits_per_depth, self.shots, self.seed, *self.depths)
        if any(type(v) is not int for v in counts) or type(self.reset) is not bool:
            raise ValueError("n, depths, circuit and shot counts and seed must be integers, "
                             "reset true or false")
        if self.circuits_per_depth < 1 or self.shots < 1:
            raise ValueError("circuits per depth and shots must be >= 1")
        if list(self.depths) != sorted(set(self.depths)) or any(d < 0 for d in self.depths):
            raise ValueError("depths must be sorted, unique and non-negative")
        # Simulation time grows with each size; these bounds keep it finite.
        if (self.shots > 10**7 or self.circuits_per_depth > 10**5
                or max(self.depths, default=0) > 10**5):
            raise ValueError("shots must be <= 10**7, circuits per depth and depths <= 10**5")
        super().__post_init__()

    @classmethod
    def from_obj(cls, obj: dict) -> "ExperimentDesign":
        unknown = obj.keys() - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown design keys {sorted(unknown)}")
        kw = {f.name: obj[f.name] for f in fields(cls)}
        kw["depths"] = tuple(kw["depths"])
        if kw["connectivity"] is not None:
            kw["connectivity"] = tuple(tuple(e) for e in kw["connectivity"])
        return cls(**kw)


def build_design_circuits(design: ExperimentDesign) -> list[tuple[int, int, QirbCircuit]]:
    """All (circuit id, depth, circuit) triples of a design, in file order."""
    out = []
    cid = 0
    for depth in design.depths:
        for j in range(design.circuits_per_depth):
            rng = derive_rng(design.seed, "circuit", depth, j)
            core = sample_core_circuit(design, depth, rng)
            circuit = build_qirb_circuit(core, design.reset, rng, n=design.n)
            out.append((cid, depth, circuit))
            cid += 1
    return out


@dataclass(frozen=True)
class CircuitResult:
    circuit_id: int
    depth: int
    circuit: QirbCircuit
    result: SimResult


def simulate_design(
    circuits: list[tuple[int, int, QirbCircuit]],
    noise: NoiseModel,
    design: ExperimentDesign,
    seed: int | None = None,
    reset_free_mode: str = "frame-correction",
    with_counts: bool = True,
) -> list[CircuitResult]:
    """Simulate every circuit, one after another (a process pool cost more in
    pickling circuits than it saved)."""
    master = design.seed if seed is None else seed
    results = []
    for cid, depth, circ in circuits:
        res = simulate_result(circ, noise, design.shots, derive_seed(master, "sim", cid),
                              reset_free_mode=reset_free_mode, with_counts=with_counts)
        results.append(CircuitResult(cid, depth, circ, res))
    return results


def decay_dataset_from_results(results: list[CircuitResult]) -> DecayDataset:
    data = DecayDataset()
    for r in results:
        data.add(r.depth, r.result.n_success, r.result.shots)
    return data


def erm_data_from_results(results_by_config: list[list[CircuitResult]]) -> list[ErmDatum]:
    """Flatten multi-config results into ERM fitting records."""
    out = []
    for config_id, results in enumerate(results_by_config):
        for r in results:
            k1, k2, km = erm_counts(r.circuit)
            out.append(
                ErmDatum(k1, k2, km, r.depth, config_id, r.result.n_success, r.result.shots)
            )
    return out
