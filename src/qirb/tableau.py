"""Reference stabilizer-tableau simulator (Aaronson-Gottesman style).

Rows are Paulis packed as integer bitmasks: rows 0..n-1 are destabilizers,
rows n..2n-1 stabilizers, each with a phase bit (0 for +, 1 for -). The
frame simulator in :mod:`qirb.simulator` runs one noiseless pass of this
tableau per circuit for its reference outcomes, and is tested shot by shot
against it.
"""

from __future__ import annotations

from .pauli import CNOT_INDEX, SignedPauli, clifford_action, pauli_product_phase

__all__ = ["StabilizerTableau", "TableauError"]


class TableauError(RuntimeError):
    """A tableau broke an invariant of the stabilizer algebra."""


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

    def measure_z(self, q: int, forced: int = 0) -> int:
        """Measure Z on wire q, collapsing the state; returns the bit.

        Deterministic outcomes read the stabilizer phase; a genuinely random
        outcome is ``forced``.
        """
        n = self.n
        bit = 1 << q
        pivot = -1
        for i in range(n, 2 * n):
            if self.x[i] & bit:
                pivot = i
                break
        if pivot >= 0:
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
            self.x[pivot], self.z[pivot], self.r[pivot] = 0, bit, forced
            return forced
        # Deterministic: Z on q is, up to its sign, a product of stabilizers.
        ax, az, phase = self._stabilizer_product(0, bit)
        if ax != 0 or az != bit or phase % 2:
            raise TableauError(f"stabilizers do not generate Z on wire {q}")
        return phase >> 1

    def _stabilizer_product(self, px: int, pz: int) -> tuple[int, int, int]:
        """X mask, Z mask and phase (exponent of i, mod 4) of the product of
        the stabilizers that would generate the Pauli with masks (px, pz).

        Stabilizer i is a factor iff the Pauli anticommutes with destabilizer
        i; the masks come back equal to (px, pz) iff the group holds +/-it.
        """
        n, x, z, r = self.n, self.x, self.z, self.r
        ax = az = phase = 0
        for i in range(n):
            if ((px & z[i]) ^ (pz & x[i])).bit_count() & 1:
                s = n + i
                phase += pauli_product_phase(ax, az, x[s], z[s]) + 2 * r[s]
                ax ^= x[s]
                az ^= z[s]
        return ax, az, phase % 4

    def expectation(self, p: SignedPauli) -> int | None:
        """<p> for stabilizer states: +/-1 if p is in the +/- group, else None (0)."""
        ax, az, phase = self._stabilizer_product(p.x, p.z)
        if ax != p.x or az != p.z:
            return None
        if phase % 2:
            raise TableauError("stabilizer product has an imaginary phase")
        return -p.sign if phase >> 1 else p.sign
