"""Machine-speed probe.

On a shared machine the speed available to one process drifts by tens of
percent within a minute, so raw times from runs made a minute apart do not
agree.  The probe is a thread that, every PERIOD_S, times a fixed snippet
of interpreter work.  A measured interval is then rescaled to the speed the
probe saw during that same interval:

    reference seconds = raw seconds * REFERENCE_SNIPPET_S / median(snippet times)

The snippet holds the interpreter lock for about 0.25 ms every 20 ms, so it
adds about 1.3% to the raw time of whatever runs meanwhile; the share is the
same on every commit.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

PERIOD_S = 0.02
SNIPPET_ITERATIONS = 4000
# snippet time that defines one reference second; an arbitrary fixed unit
REFERENCE_SNIPPET_S = 2.5e-4


def _snippet() -> int:
    s = 0
    for i in range(SNIPPET_ITERATIONS):
        s += i * i
    return s


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def _loop(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(PERIOD_S):
            t0 = clock()
            _snippet()
            self.durations.append(clock() - t0)
            self.starts.append(t0)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        while len(self.starts) < 10:
            time.sleep(PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_SNIPPET_S over the median snippet time in [start, end];
        an interval too short to hold a sample uses the 10 samples before
        its end."""
        n = len(self.starts)
        lo = bisect.bisect_left(self.starts, start, 0, n)
        hi = bisect.bisect_right(self.starts, end, 0, n)
        if hi <= lo:
            lo = max(0, hi - 10)
        window = self.durations[lo:hi]
        if not window:
            raise RuntimeError("speed probe has no samples")
        return REFERENCE_SNIPPET_S / statistics.median(window)
