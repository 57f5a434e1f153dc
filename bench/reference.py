"""A fixed reference kernel that gauges how fast the host runs right now.

The benchmark shares a few cores of a busy host, and the speed of those
cores drifts by 20-30% over tens of seconds; wall-clock medians of runs a
few minutes apart move by as much.  So the closed loop runs this kernel
between rounds of operations and reports operation times in units of the
kernel's time measured around them: both slow down together, and the
ratio stays put while the host's speed moves.  Set-up time, which must be
reported in seconds, is scaled back by the kernel's nominal time.

The kernel is plain Python of the same kind as the program's hot paths
(recursive enumeration of standard Young tableaux as bytes, jeu de taquin
promotion on the flat form, orbit bookkeeping in a set), written here and
independent of the package, so no change to the program moves it.
"""

from __future__ import annotations

import gc
import time

NROWS, NCOLS = 3, 5
ORBITS = 406  # promotion orbits of SYT(3x5); test_bench checks it against taquin
REPEATS = 3
# Kernel time by which relative set-up times are scaled back to seconds;
# about what the kernel takes on a quiet 2-vCPU KVM guest with Python 3.11.
NOMINAL_S = 0.1


def syt_flats(nrows: int, ncols: int) -> list[bytes]:
    """Every SYT of the nrows x ncols rectangle, flattened row by row."""
    out = []
    filled = [0] * nrows
    cells = [0] * (nrows * ncols)
    total = nrows * ncols

    def place(v):
        if v > total:
            out.append(bytes(cells))
            return
        for r in range(nrows):
            c = filled[r]
            if c < ncols and (r == 0 or filled[r - 1] > c):
                cells[r * ncols + c] = v
                filled[r] += 1
                place(v + 1)
                filled[r] -= 1

    place(1)
    return out


def promote(flat: bytes, nrows: int, ncols: int) -> bytes:
    """Delete 1, slide the hole to the corner, decrement, put N there."""
    t = [v - 1 for v in flat]
    r = c = 0
    while r + 1 < nrows or c + 1 < ncols:
        down = t[(r + 1) * ncols + c] if r + 1 < nrows else None
        right = t[r * ncols + c + 1] if c + 1 < ncols else None
        if right is None or (down is not None and down < right):
            t[r * ncols + c] = down
            r += 1
        else:
            t[r * ncols + c] = right
            c += 1
    t[r * ncols + c] = nrows * ncols
    return bytes(t)


def count_orbits(nrows: int = NROWS, ncols: int = NCOLS) -> int:
    seen = set()
    orbits = 0
    for flat in syt_flats(nrows, ncols):
        if flat in seen:
            continue
        orbits += 1
        cur = flat
        while cur not in seen:
            seen.add(cur)
            cur = promote(cur, nrows, ncols)
    return orbits


def timed() -> float:
    """Seconds for REPEATS runs of the kernel.  The cyclic collector is off
    while it runs (the kernel makes no cycles), so the program's heap
    cannot slow it down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(REPEATS):
            if count_orbits() != ORBITS:
                raise AssertionError("reference kernel miscounted the orbits of SYT(3x5)")
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
