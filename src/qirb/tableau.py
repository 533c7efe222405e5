"""Reference stabilizer-tableau simulator (Aaronson-Gottesman style).

Rows are Paulis packed as integer bitmasks: rows 0..n-1 are destabilizers,
rows n..2n-1 stabilizers, each with a phase bit (0 for +, 1 for -). The
frame simulator in :mod:`qirb.simulator` runs one noiseless pass of this
tableau per circuit for its reference outcomes, and is tested shot by shot
against it.
"""

from __future__ import annotations

from .pauli import CNOT_INDEX, SignedPauli, clifford_action

__all__ = ["StabilizerTableau", "TableauError", "pauli_product_phase"]


class TableauError(RuntimeError):
    """A tableau broke an invariant of the stabilizer algebra."""


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


class StabilizerTableau:
    """Mutable tableau over n wires, initialized to |0...0>."""

    __slots__ = ("n", "x", "z", "r")

    def __init__(self, n: int):
        self.n = n
        self.x = [1 << i for i in range(n)] + [0] * n
        self.z = [0] * n + [1 << i for i in range(n)]
        self.r = [0] * (2 * n)

    def apply_clifford(self, index: int, q: int) -> None:
        action = clifford_action(index)
        x, z, r = self.x, self.z, self.r
        bit = 1 << q
        for i in range(2 * self.n):
            code = (1 if x[i] & bit else 0) | (2 if z[i] & bit else 0)
            if code:
                new_code, sign = action[code]
                x[i] = (x[i] & ~bit) | (bit if new_code & 1 else 0)
                z[i] = (z[i] & ~bit) | (bit if new_code & 2 else 0)
                if sign < 0:
                    r[i] ^= 1

    def apply_cnot(self, c: int, t: int) -> None:
        x, z, r = self.x, self.z, self.r
        cbit, tbit = 1 << c, 1 << t
        for i in range(2 * self.n):
            xc = 1 if x[i] & cbit else 0
            zt = 1 if z[i] & tbit else 0
            if xc and zt:
                xt = 1 if x[i] & tbit else 0
                zc = 1 if z[i] & cbit else 0
                if xt == zc:
                    r[i] ^= 1
            if xc:
                x[i] ^= tbit
            if zt:
                z[i] ^= cbit

    def apply_gate(self, index: int, wires: tuple[int, ...]) -> None:
        if index == CNOT_INDEX:
            self.apply_cnot(wires[0], wires[1])
        else:
            self.apply_clifford(index, wires[0])

    def apply_pauli(self, xmask: int, zmask: int) -> None:
        """Apply the (unsigned) Pauli with these masks to the state.

        Stabilizer phases flip exactly where the row anticommutes with it.
        """
        x, z, r = self.x, self.z, self.r
        for i in range(2 * self.n):
            if ((x[i] & zmask).bit_count() + (z[i] & xmask).bit_count()) % 2:
                r[i] ^= 1

    def _rowsum(self, h: int, i: int) -> None:
        k = pauli_product_phase(self.x[i], self.z[i], self.x[h], self.z[h])
        if k % 2:
            raise TableauError(f"rows {h} and {i} anticommute")
        self.r[h] ^= self.r[i] ^ (k >> 1)
        self.x[h] ^= self.x[i]
        self.z[h] ^= self.z[i]

    def is_deterministic(self, q: int) -> bool:
        bit = 1 << q
        return all(not (self.x[i] & bit) for i in range(self.n, 2 * self.n))

    def measure_z(self, q: int, rng=None, forced: int | None = None) -> int:
        """Measure Z on wire q, collapsing the state; returns the bit.

        Deterministic outcomes read the stabilizer phase. A genuinely random
        outcome is ``forced`` if given, else one bit from ``rng``, else 0.
        """
        n = self.n
        bit = 1 << q
        pivot = -1
        for i in range(n, 2 * n):
            if self.x[i] & bit:
                pivot = i
                break
        if pivot >= 0:
            outcome = forced if forced is not None else (rng.getrandbits(1) if rng else 0)
            for i in range(2 * n):
                if i != pivot and self.x[i] & bit:
                    if i >= n:
                        self._rowsum(i, pivot)
                    else:
                        # Destabilizer phases are never read; track bits only.
                        self.x[i] ^= self.x[pivot]
                        self.z[i] ^= self.z[pivot]
            d = pivot - n
            self.x[d], self.z[d], self.r[d] = self.x[pivot], self.z[pivot], self.r[pivot]
            self.x[pivot], self.z[pivot], self.r[pivot] = 0, bit, outcome
            return outcome
        # Deterministic: accumulate the product of stabilizers indexed by
        # destabilizers carrying X on q.
        ax = az = 0
        phase = 0
        for i in range(n):
            if self.x[i] & bit:
                s = n + i
                phase += pauli_product_phase(ax, az, self.x[s], self.z[s]) + 2 * self.r[s]
                ax ^= self.x[s]
                az ^= self.z[s]
        if ax != 0 or az != bit or phase % 2:
            raise TableauError(f"stabilizers do not generate Z on wire {q}")
        return (phase >> 1) & 1

    def expectation(self, p: SignedPauli) -> int | None:
        """<p> for stabilizer states: +/-1 if p is in the +/- group, else None (0)."""
        ax = az = 0
        phase = 0
        # Express p in terms of stabilizers via the destabilizer pairing.
        for i in range(self.n):
            s = self.n + i
            # p anticommutes with destabilizer i iff stabilizer i is needed.
            if ((p.x & self.z[i]).bit_count() + (p.z & self.x[i]).bit_count()) % 2:
                phase += pauli_product_phase(ax, az, self.x[s], self.z[s]) + 2 * self.r[s]
                ax ^= self.x[s]
                az ^= self.z[s]
        if ax != p.x or az != p.z:
            return None
        if phase % 2:
            raise TableauError("stabilizer product has an imaginary phase")
        sign = -1 if (phase >> 1) & 1 else 1
        return sign * p.sign

