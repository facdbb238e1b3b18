"""A fixed reference routine that measures how fast the host runs right now.

On a machine shared with other tenants, the host can run 1.5x slow for
minutes at a time.  The benchmark times this routine before every request
and after the last, and divides each step's time by the routine's times
around its request, so that a slow phase, which slows both alike, drops
out.  The routine is the benchmark's own code and never changes with
c4lab: set intersections over an adjacency map, Fraction sums and
big-integer masks, the three kinds of work c4lab does.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# the routine's fastest time on the reference machine (2 vCPUs, Python 3.11);
# scaled timings are seconds at that machine's unloaded speed
REFERENCE_SECONDS = 0.0065


class Reference:
    def __init__(self) -> None:
        rng = random.Random(7)
        n = 300
        self.adj: dict[int, set[int]] = {v: set() for v in range(n)}
        for _ in range(1500):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                self.adj[a].add(b)
                self.adj[b].add(a)
        self.fractions = [Fraction(rng.randrange(1, 50), rng.randrange(1, 50))
                          for _ in range(400)]
        self.masks = [rng.getrandbits(400) for _ in range(120)]

    def _work(self) -> int:
        triangles = 0
        for _ in range(3):
            for v, nb in self.adj.items():
                for u in nb:
                    if u > v:
                        triangles += len(nb & self.adj[u])
        total = Fraction(0)
        for _ in range(2):
            for x in self.fractions:
                total += x * x
        hits = 0
        for _ in range(2):
            for i, a in enumerate(self.masks):
                for b in self.masks[i + 1:]:
                    hits += (a & b).bit_count() > 100
        return triangles + hits + total.denominator

    def time(self) -> float:
        """Seconds for one run of the routine."""
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0
