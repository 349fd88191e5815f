"""Speed probe: times a small fixed piece of pure-Python work on one CPU.

Usage::

    python3 perfbench/probe.py CPU PERIOD_S

Pinned to CPU, it times ``work()`` once every PERIOD_S seconds until its
stdin closes, then prints one line per sample: the monotonic time at which
the sample ended and how long it took, both in seconds.  ``run.py`` runs one
beside the operations it measures, on the CPU they run on, and divides their
times by the machine speed these samples show (see README.md, "Noise").
"""

from __future__ import annotations

import os
import select
import sys
import time


def work() -> int:
    """Dict, tuple and frozenset traffic, the kind of work latcon does."""
    seen: dict = {}
    for i in range(600):
        key = frozenset(((i * 7) & 31, (i * 13) & 31, i & 7))
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def main() -> int:
    cpu, period = int(sys.argv[1]), float(sys.argv[2])
    os.sched_setaffinity(0, {cpu})
    samples = []
    while True:
        start = time.perf_counter()
        work()
        end = time.perf_counter()
        samples.append((end, end - start))
        # stdin turns readable at EOF, when run.py closes it.
        if select.select([sys.stdin], [], [], period)[0]:
            break
    sys.stdout.write("".join(f"{end:.6f} {took:.9f}\n" for end, took in samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
