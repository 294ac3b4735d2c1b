"""The host probe: fixed work whose time moves with the shared host's speed
and never with the code under test, which this process never imports.

    python3 perfbench/probe.py    # one kind per stdin line, its ms per stdout line

``run.py`` starts it once per run and asks for a probe before and after
every op and set-up sample.  It is a process of its own so that its
memory never counts in an op's peak RSS.  The host slows different kinds
of work by different amounts (from 1.9x to 2.5x between its quiet and busy
phases), so there are two kinds, each matching what some of the timed work
does:

- ``compute``: a pure-Python integer loop, numpy arithmetic on buffers that
  exist before the clock starts, and the first touch of every page of a
  fresh 4 MiB mapping.  The sweeps do this (numpy over µop traces, driven
  from Python, in a heap that grows), and so does importing the code.
- ``lookups``: random lookups in a 300,000-entry dict (about 30 MB).
  ``run all`` on a warm cache does this: JSON, hashing and small objects
  all over the heap, so it waits on memory.

Each probe starts from cold caches, whatever the last op left in them.
"""

import mmap
import random
import sys
import time

import numpy as np

#: Pages the compute probe maps and touches afresh: 4 MiB of 4 KiB pages.
FRESH_PAGES = 1024
#: Entries of the lookup table (about 30 MB with its keys) and lookups per
#: probe: the lookups take about as long as the compute probe.
TABLE_SIZE = 300_000
LOOKUPS = 30_000
#: Read through before every probe, so that each starts from cold caches
#: whatever the last op left in them: 64 MiB, more than a last-level cache
#: holds.
FLUSH_BYTES = 64 << 20


class Probe:
    def __init__(self):
        self.values = np.full(200_000, 1.5)
        self.scratch = np.zeros_like(self.values)
        keys = [str(i) for i in range(TABLE_SIZE)]
        self.table = {key: i for i, key in enumerate(keys)}
        rng = random.Random(0)
        self.keys = [keys[rng.randrange(TABLE_SIZE)] for _ in range(LOOKUPS)]
        self.flush = np.full(FLUSH_BYTES // 8, 1.0)

    def compute(self) -> None:
        total = 0
        for i in range(100_000):
            total += i * i % 7
        for _ in range(20):
            np.multiply(self.values, self.values, out=self.scratch)
            np.add(self.scratch, 1.0, out=self.scratch)
            np.sqrt(self.scratch, out=self.values)
        with mmap.mmap(-1, FRESH_PAGES * mmap.PAGESIZE) as pages:
            for offset in range(0, len(pages), mmap.PAGESIZE):
                pages[offset] = 1

    def lookups(self) -> None:
        total = 0
        for key in self.keys:
            total += self.table[key]


def main() -> None:
    probe = Probe()
    kinds = {"compute": probe.compute, "lookups": probe.lookups}
    for line in sys.stdin:
        work = kinds[line.strip()]
        probe.flush.sum()
        started = time.perf_counter()
        work()
        print((time.perf_counter() - started) * 1e3, flush=True)


if __name__ == "__main__":
    main()
