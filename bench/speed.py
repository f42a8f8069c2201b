"""Machine-speed reference, so that times measured on a shared host compare
across runs.

On a host whose cores are shared with other tenants, the speed of
pure-Python code swings by up to half between regimes that last from a
fraction of a second to about a minute. The benchmark therefore times a
fixed pure-Python kernel, which uses nothing from the library, before
every op and once after the last one. Each op's time is multiplied by the
kernel's nominal time over the median of the four kernel times around the
op (two before, two after). The result is the op's time in milliseconds
at the speed where the kernel takes its nominal time. Raw times are kept
in the result files.

Each workload names the kernel whose slowdown under contention is closest
to its own: ``arith`` (bitmask partition refinement on a fixed 7-point
frame) for the bitmask-heavy ops, ``mixed`` (``arith`` plus building and
sorting a dict of a few hundred small tuples and strings) for the
allocation-heavy formula synthesis of ``definability``.
"""

from __future__ import annotations

import gc
import statistics
import time

_ROWS = (0b0000110, 0b0001000, 0b0110000, 0b1000001, 0b0000010, 0b1000100, 0b0010000)
_FULL = (1 << len(_ROWS)) - 1


def _arith() -> int:
    """Stabilization index of staged refinement, maximized over a fixed
    list of two-block seed partitions."""
    best = 0
    for seed in range(1, 12):
        blocks = sorted(m for m in (seed, _FULL & ~seed) if m)
        stage = 0
        while True:
            splitters = list(blocks)
            for b in blocks:
                pre = 0
                for a, row in enumerate(_ROWS):
                    if row & b:
                        pre |= 1 << a
                splitters.append(pre)
            out = blocks
            for s in splitters:
                nxt = []
                for b in out:
                    inside = b & s
                    if inside and inside != b:
                        nxt.append(inside)
                        nxt.append(b & ~s)
                    else:
                        nxt.append(b)
                out = nxt
            out.sort()
            if out == blocks:
                break
            blocks = out
            stage += 1
        best = max(best, stage)
    return best


def _mixed() -> int:
    table = {}
    for i in range(600):
        table[("k", i % 97, i)] = [i, str(i), (i, i + 1)]
    total = _arith()
    for (_, a, b), v in sorted(table.items(), key=lambda kv: (kv[0][1], -kv[0][2])):
        total += a * b + len(v[1])
    return total


# name -> (kernel, nominal ms); a nominal time is about what the kernel
# takes between ops on a 2-core x86-64 VM running CPython 3.11, so rescaled
# times read close to raw ones there
KERNELS = {"arith": (_arith, 0.4), "mixed": (_mixed, 1.0)}


def sample(kernel: str) -> float:
    """Seconds taken by one run of the kernel, with the garbage collector
    paused so that the time does not depend on what the run holds."""
    work = KERNELS[kernel][0]
    gc.disable()
    try:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def factors(kernel: str, refs: list[float]) -> list[float]:
    """Rescaling factor per op, where ``refs[j]`` was taken just before op j
    and ``refs[j + 1]`` just after it."""
    nominal = KERNELS[kernel][1] / 1000
    return [
        nominal / statistics.median(refs[max(0, j - 1): j + 3])
        for j in range(len(refs) - 1)
    ]
