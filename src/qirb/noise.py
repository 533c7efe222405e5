"""The noise model: per-operation stochastic Pauli rates.

The simulator samples it, the theory oracle predicts from it and the files
record it. It lives in its own module so that the oracle imports nothing
from the simulator. :mod:`qirb.simulator` re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["NoiseModel"]


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
