"""Wall-clock timing corrected for the machine's changing speed.

On a shared machine the same Python work can take twice as long from one
minute to the next, because other tenants load the caches, memory and
cores. On a shared 2-CPU machine 20 fixed questions took 0.83 to 1.76 s
within 150 s, and 13-second windows of them spread by 23% (interquartile
range over median). No run length the benchmark can afford averages
that away.

So a run also times a fixed calibration kernel: a slice every
``every_s`` seconds between the program's calls, and at fixed points
such as the start of each cross-validation fold. A program interval is
multiplied by ``REFERENCE_MS`` over the mean of the calibration slices
just before and just after it, and slices inside it are cut out: the
result reads in seconds of a machine on which the kernel takes
``REFERENCE_MS``. In the same measurement the corrected windows spread
by 5% instead of 23%. The kernel is pure Python of the kinds the program
runs (dict accumulation and a sort, regex tokenising, counting words and
word pairs) and shares no code with it, so a change to the program
cannot change the kernel's time.
"""

from __future__ import annotations

import bisect
import random
import re
from collections import Counter
from time import perf_counter_ns

REFERENCE_MS = 30.0


class Clock:
    def __init__(self, every_s: float = 0.5):
        rng = random.Random(0)
        keys = [f"k{i:05d}" for i in range(20000)]
        self._table = {k: rng.random() for k in keys}
        self._postings = [(keys[rng.randrange(20000)], rng.randrange(1, 5))
                          for _ in range(7500)]
        words = ["".join(rng.choice("abcdefghij") for _ in range(rng.randrange(3, 9)))
                 for _ in range(2000)]
        self._text = " ".join(rng.choice(words) for _ in range(8000))
        self._every_ns = int(every_s * 1e9)
        self.starts: list[int] = []  # perf_counter_ns of each slice
        self.ends: list[int] = []
        self.slices_ms: list[float] = []

    def _kernel(self) -> int:
        acc: dict[str, float] = {}
        for key, tf in self._postings:
            acc[key] = acc.get(key, 0.0) + tf * self._table[key] / (tf + 1.2)
        top = sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        tokens = [m.group().lower() for m in re.finditer(r"\w+", self._text)]
        units: Counter = Counter()
        for i in range(0, len(tokens), 4):
            units[(tokens[i],)] += 1
            for j in range(i + 1, min(len(tokens), i + 6)):
                units[(tokens[i], tokens[j])] += 1
        return len(top) + len(Counter(tokens)) + len(units)

    def calibrate(self) -> None:
        start = perf_counter_ns()
        self._kernel()
        end = perf_counter_ns()
        self.starts.append(start)
        self.ends.append(end)
        self.slices_ms.append((end - start) / 1e6)

    def tick(self) -> None:
        """Calibrate if the last slice is older than ``every_s``."""
        if not self.ends or perf_counter_ns() - self.ends[-1] >= self._every_ns:
            self.calibrate()

    def inside_s(self, start_ns: int, end_ns: int) -> float:
        """Seconds of calibration slices taken inside an interval."""
        first = bisect.bisect_left(self.starts, start_ns)
        last = bisect.bisect_right(self.ends, end_ns)
        return sum(self.slices_ms[first:last]) / 1e3

    def scale(self, start_ns: int, end_ns: int) -> float:
        """Corrected duration in seconds of a program interval.

        Slices taken inside the interval (between folds of one
        ``cross_validate``) split it into segments and are not counted.
        Each segment is scaled by the slices on either side of it; the
        run calibrates before its first interval and after its last.
        """
        first = bisect.bisect_left(self.starts, start_ns)
        last = bisect.bisect_right(self.ends, end_ns)
        edges = [start_ns]
        for k in range(first, last):
            edges += [self.starts[k], self.ends[k]]
        edges.append(end_ns)
        total = 0.0
        for seg, k in enumerate(range(first, last + 1)):
            near = self.slices_ms[max(k - 1, 0):k + 1]
            length = edges[2 * seg + 1] - edges[2 * seg]
            total += length / 1e9 * REFERENCE_MS / (sum(near) / len(near))
        return total
