"""A gauge of the host's speed, read on the measured thread while it works.

The shared host this benchmark runs on changes speed by up to a factor of
two within seconds, in process CPU time as much as in wall time, and its
two CPUs drift apart. A fixed loop timed in 15 to 30 s windows spread 30 to
40% (quartile distance over median) from window to window, while the ratio
of two different loops run in alternation on one thread spread 3 to 4%. So
the gauge runs a small fixed reference loop on the measured thread itself:
a timer signal interrupts the program every `PERIOD_S` of wall time
(`SETUP_PERIOD_S` during set-up), and the handler times the loop in thread
CPU time, which waiting for the CPU does not inflate. The seconds spent in
the handler are tracked so they can be taken out of the measured time.

`Gauge.since()` gives the host's mean speed over a stretch, relative to
the speed at which the loop takes `NOMINAL_S`: the mean of NOMINAL_S / d
over the loop times d sampled there. Host seconds multiplied by it read as
seconds on a host of that fixed speed.
"""

from __future__ import annotations

import hashlib
import signal
import time
from array import array

PERIOD_S = 0.02
SETUP_PERIOD_S = 0.005  # set-up lasts a fraction of a second: sample it more densely
NOMINAL_S = 0.00025  # about the loop's typical CPU time on the 2-core host the benchmark was tuned on; it fixes the unit only


def reference_loop() -> int:
    """Fixed work of the mix the simulator does: interpreter steps, dict updates, SHA-256 of short input."""
    digest = b"distb"
    table: dict[bytes, int] = {}
    for i in range(240):
        digest = hashlib.sha256(digest).digest()
        table[digest[:1]] = table.get(digest[:1], 0) + i
    return len(table)


class Gauge:
    """Samples the reference loop on a wall-clock timer from `start()` to `stop()`."""

    def __init__(self):
        self.samples = array("d")  # CPU seconds of each loop
        self.spent_s = 0.0  # wall seconds spent in the handler

    def _sample(self, signum, frame):
        w0 = time.perf_counter()
        c0 = time.thread_time()
        reference_loop()
        self.samples.append(time.thread_time() - c0)
        self.spent_s += time.perf_counter() - w0

    def start(self, period_s: float = PERIOD_S) -> None:
        """Sample every `period_s`; calling it again while running changes the period."""
        reference_loop()  # the first call pays for one-time set-up in hashlib
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, period_s, period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        """Where a stretch starts: samples so far, handler seconds so far."""
        return len(self.samples), self.spent_s

    def since(self, mark: tuple[int, float]) -> dict:
        """Handler seconds, sample count and speed scale over the stretch from `mark` on."""
        n0, spent0 = mark
        samples = [d for d in self.samples[n0:] if d > 0.0]
        scale = sum(NOMINAL_S / d for d in samples) / len(samples) if samples else 1.0
        return {"spent_s": self.spent_s - spent0, "samples": len(samples), "scale": scale}


def steady_seconds(host_s: float, reading: dict) -> float:
    """Host seconds of a stretch, less the gauge's own, at the fixed nominal speed."""
    return (host_s - reading["spent_s"]) * reading["scale"]
