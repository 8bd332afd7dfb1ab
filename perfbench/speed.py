"""The host's speed, measured by a fixed loop, for reporting times in reference seconds.

On a shared host the CPU's speed drifts by a third and more over minutes,
while the ratio of a piece of work's time to a fixed pure-Python loop run
beside it holds much steadier. A time in reference seconds is a wall time
divided by the speed factor of the loops run around it: roughly what the
work takes when the loop takes REFERENCE_S. NOTES.md has the trial figures.
"""

from time import perf_counter

REFERENCE_S = 0.0375

# cliffcalc invocations slowed by about the 3/4 power of the loop's
# slow-down: the small, cache-resident loop is hit harder when the host is
# busy. Scaling by the loop's full slow-down over-corrected.
SENSITIVITY = 0.75


def speed_factor(before, after):
    """Speed factor of work run between two reference loops of these times."""
    return ((before + after) / (2 * REFERENCE_S)) ** SENSITIVITY


def reference_loop():
    """Run fixed pure-Python work (dict, tuple and complex arithmetic, as in
    jet code, but none of cliffcalc's) and return its wall time."""
    t0 = perf_counter()
    table = {}
    for i in range(60000):
        key = (i % 7, i % 5)
        table[key] = table.get(key, 0j) + complex(i, 1) * 1.0001
    return perf_counter() - t0
