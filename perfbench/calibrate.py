"""Reference-speed time: wall time corrected for the shared machine's speed.

On the shared 2-vCPU machine the benchmark was built on, the speed of plain
Python code changes by up to 1.5x from one second or minute to the next
(other tenants), which moves every raw wall time by as much.  Each timed
block is therefore bracketed by a fixed pure-Python loop, and its wall time
is multiplied by speed_factor(): REFERENCE_S over the loop's time right
now.  The result is the time the block would take on a machine where the
loop takes exactly REFERENCE_S, about this machine at its fastest.

Imports nothing but time, so a child can use it before timing an import.
"""

import time

LOOP_ITERATIONS = 2000
REFERENCE_S = 1.1e-4  # the loop's time at the reference speed


def _loop() -> int:
    s = 0
    for i in range(LOOP_ITERATIONS):
        s += i * i % 7
    return s


def speed_factor() -> float:
    """REFERENCE_S / (fastest of three runs of the loop, now)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return REFERENCE_S / best
