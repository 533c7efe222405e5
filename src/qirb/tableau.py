"""Reference stabilizer-tableau simulator (Aaronson-Gottesman style).

The tableau is stored by column, as in Stim (Gidney, Quantum 5, 497 (2021)):
for each wire ``q``, ``x[q]`` and ``z[q]`` are one integer over the 2n rows,
bit ``i`` being row ``i``. Rows 0..n-1 are the destabilizers and rows
n..2n-1 the stabilizers; ``r`` holds every row's phase bit (0 for +, 1 for
-) as one more integer. A gate then touches only its wires' columns with a
few whole-integer operations, and a measurement multiplies the pivot row
into every affected row at once. The frame simulator in
:mod:`qirb.simulator` runs one noiseless pass of this tableau per circuit
for its reference outcomes, and is tested shot by shot against it.
"""

from __future__ import annotations

from .pauli import NUM_ONEQ_CLIFFORDS, SignedPauli, clifford_action

__all__ = ["StabilizerTableau", "TableauError"]


class TableauError(RuntimeError):
    """A tableau broke an invariant of the stabilizer algebra."""


def _column_action(index: int) -> tuple[int, ...]:
    # A Clifford maps a row's letter bits linearly (the image of Y = iXZ has
    # the XOR of the images' bits), so the new X and Z columns are XORs of
    # the old ones under 0/-1 masks. The sign is not linear: Y rows flip by
    # the XOR of the X and Z flips, corrected by ``fy``.
    action = clifford_action(index)
    (cx, sx), (cz, sz), (_, sy) = action[1], action[2], action[3]
    fx, fz = -(sx < 0), -(sz < 0)
    return (-(cx & 1), -(cz & 1), -(cx >> 1), -(cz >> 1), fx, fz, fx ^ fz ^ -(sy < 0))


_COLUMN_ACTIONS = tuple(_column_action(i) for i in range(NUM_ONEQ_CLIFFORDS))


def _prefix_xor(v: int, width: int) -> int:
    """Bit i of the result is the XOR of bits 0..i-1 of ``v``."""
    v <<= 1
    shift = 1
    while shift < width:
        v ^= v << shift
        shift <<= 1
    return v


class StabilizerTableau:
    """Mutable tableau over n wires, initialized to |0...0>."""

    __slots__ = ("n", "x", "z", "r")

    def __init__(self, n: int):
        self.n = n
        self.x = [1 << q for q in range(n)]
        self.z = [1 << (n + q) for q in range(n)]
        self.r = 0

    def _check_wire(self, q: int) -> None:
        if not 0 <= q < self.n:
            raise ValueError(f"wire {q} outside [0, {self.n})")

    def apply_clifford(self, index: int, q: int) -> None:
        self._check_wire(q)
        if not 0 <= index < NUM_ONEQ_CLIFFORDS:
            raise ValueError(f"Clifford index {index} outside [0, {NUM_ONEQ_CLIFFORDS})")
        xx, zx, xz, zz, fx, fz, fy = _COLUMN_ACTIONS[index]
        x, z = self.x[q], self.z[q]
        self.x[q] = (x & xx) ^ (z & zx)
        self.z[q] = (x & xz) ^ (z & zz)
        self.r ^= (x & fx) ^ (z & fz) ^ (x & z & fy)

    def apply_cnot(self, c: int, t: int) -> None:
        self._check_wire(c)
        self._check_wire(t)
        if c == t:
            raise ValueError(f"CNOT control and target are both wire {c}")
        x, z = self.x, self.z
        self.r ^= x[c] & z[t] & ~(x[t] ^ z[c])
        x[t] ^= x[c]
        z[c] ^= z[t]

    def _check_masks(self, xmask: int, zmask: int) -> None:
        if xmask < 0 or zmask < 0 or (xmask | zmask) >> self.n:
            raise ValueError(f"Pauli masks ({xmask}, {zmask}) outside [0, {self.n})")

    def _anticommuting_rows(self, xmask: int, zmask: int) -> int:
        """Rows that anticommute with the Pauli with these masks, as bits."""
        rows = 0
        for q in range(self.n):
            if (xmask >> q) & 1:
                rows ^= self.z[q]
            if (zmask >> q) & 1:
                rows ^= self.x[q]
        return rows

    def apply_pauli(self, xmask: int, zmask: int) -> None:
        """Apply the (unsigned) Pauli with these masks to the state.

        Stabilizer phases flip exactly where the row anticommutes with it.
        """
        self._check_masks(xmask, zmask)
        self.r ^= self._anticommuting_rows(xmask, zmask)

    def is_deterministic(self, q: int) -> bool:
        self._check_wire(q)
        return not self.x[q] >> self.n

    def measure_z(self, q: int, forced: int = 0) -> int:
        """Measure Z on wire q, collapsing the state; returns the bit.

        Deterministic outcomes read the stabilizer phase; a genuinely random
        outcome is ``forced``.
        """
        self._check_wire(q)
        if forced not in (0, 1):
            raise ValueError(f"forced outcome must be 0 or 1, got {forced!r}")
        n, x, z = self.n, self.x, self.z
        stab = x[q] >> n
        if not stab:
            # Deterministic: Z on q is, up to its sign, a product of stabilizers.
            ax, az, phase = self._stabilizer_product(0, 1 << q)
            if ax != 0 or az != 1 << q or phase % 2:
                raise TableauError(f"stabilizers do not generate Z on wire {q}")
            return phase >> 1
        forced = int(forced)
        p = n - 1 + (stab & -stab).bit_length()  # the lowest stabilizer row
        d = p - n
        pbit, dbit = 1 << p, 1 << d
        rows = x[q] & ~pbit  # every other row with X or Y on q
        srows = rows >> n << n  # their stabilizers; destabilizer phases are never read
        # Multiply the pivot into ``rows``: per-wire exponents of i, summed
        # mod 4 in two bit-sliced integers, taken from each row's old letters.
        # The new columns are kept aside until the phases check out.
        lo = hi = 0
        nx, nz = [], []
        for w in range(n):
            xw, zw = x[w], z[w]
            px, pz = (xw >> p) & 1, (zw >> p) & 1
            if px or pz:
                hx, hz = xw & srows, zw & srows
                if px and pz:  # Y.Z = iX, Y.X = -iZ
                    up, down = hz & ~hx, hx & ~hz
                elif px:  # X.Y = iZ, X.Z = -iY
                    up, down = hx & hz, hz & ~hx
                else:  # Z.X = iY, Z.Y = -iX
                    up, down = hx & ~hz, hx & hz
                hi ^= (lo & up) | (~lo & down)
                lo ^= up | down
                if px:
                    xw ^= rows
                if pz:
                    zw ^= rows
            # Row p moves to destabilizer d; row p becomes Z on q.
            nx.append((xw & ~(pbit | dbit)) | (px << d))
            nz.append((zw & ~(pbit | dbit)) | (pz << d) | (pbit if w == q else 0))
        if lo:
            raise TableauError(f"stabilizer row {p} anticommutes with another stabilizer")
        x[:], z[:] = nx, nz
        r = self.r
        rp = (r >> p) & 1
        r ^= hi ^ (srows if rp else 0)
        self.r = (r & ~(pbit | dbit)) | (rp << d) | (forced << p)
        return forced

    def _stabilizer_product(self, px: int, pz: int) -> tuple[int, int, int]:
        """X mask, Z mask and phase (exponent of i, mod 4) of the product of
        the stabilizers that would generate the Pauli with masks (px, pz).

        Stabilizer i is a factor iff the Pauli anticommutes with destabilizer
        i; the masks come back equal to (px, pz) iff the group holds +/-it.
        """
        n = self.n
        factors = (self._anticommuting_rows(px, pz) & ((1 << n) - 1)) << n
        # Each factor is i^(its Y count) X^a Z^b with its sign; putting the
        # X parts before the Z parts costs a -1 per (earlier Z, later X)
        # pair on a wire, and i^-(the result's Y count) turns X^A Z^B back
        # into a Hermitian Pauli.
        ax = az = 0
        phase = 2 * (self.r & factors).bit_count()
        for q in range(n):
            xq, zq = self.x[q] & factors, self.z[q] & factors
            if xq and zq:
                phase += (xq & zq).bit_count() + 2 * (_prefix_xor(zq, 2 * n) & xq).bit_count()
            bx, bz = xq.bit_count() & 1, zq.bit_count() & 1
            phase -= bx & bz
            ax |= bx << q
            az |= bz << q
        return ax, az, phase % 4

    def expectation(self, p: SignedPauli) -> int | None:
        """<p> for stabilizer states: +/-1 if p is in the +/- group, else None (0)."""
        self._check_masks(p.x, p.z)
        ax, az, phase = self._stabilizer_product(p.x, p.z)
        if ax != p.x or az != p.z:
            return None
        if phase % 2:
            raise TableauError("stabilizer product has an imaginary phase")
        return -p.sign if phase >> 1 else p.sign
