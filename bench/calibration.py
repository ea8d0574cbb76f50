"""Machine-speed calibration of the benchmark's timings.

On a shared host the speed of one core drifts by up to 2x over minutes as
other tenants load the machine.  A 30-second window of dimsim4 runs on
allen-cahn measured 0.18 s per run in one window and 0.30 s in another,
while the ratio of each run to a fixed kernel timed right before it stayed
within 34 +- 0.7.  So every operation is bracketed by timings of a fixed
kernel, the kernel is also timed every TICK_S seconds while the operation
runs (from a SIGALRM handler, the handler's time excluded from the
operation's), and the end-to-end metrics report

    scaled seconds = seconds * NOMINAL_KERNEL_S / mean(kernel timings)

where the mean drops the highest and lowest timing, so that one sample hit
by a page fault does not move it, and weights the speed during a long
operation by time.

The kernel uses numpy and scipy only, never imexglm, so a change to the
library moves scaled times exactly as much as raw ones.  Raw seconds and
kernel timings are kept in every record.
"""

import signal
import statistics
import time

# Median kernel time on the 2-core KVM Xeon (Sapphire Rapids) host, one
# thread, numpy 2.4.6 and scipy 1.17.1, while the host was lightly loaded.
# It only fixes the unit of the scaled times.
NOMINAL_KERNEL_S = 0.005

SAMPLES = 3
TICK_S = 0.1
TICKING = hasattr(signal, "setitimer")


class SpeedProbe:
    """A fixed kernel built from the operations the library's hot paths
    use: elementwise trig, a sparse matvec and a SuperLU solve on a 1,521
    point five-point Laplacian, and batched 4x4 complex eigenvalues."""

    def __init__(self):
        import numpy as np
        from scipy import sparse
        from scipy.sparse.linalg import splu

        m = 39
        d2 = sparse.diags([np.ones(m - 1), -2.0 * np.ones(m), np.ones(m - 1)],
                          offsets=[-1, 0, 1])
        eye = sparse.identity(m)
        self._lap = (sparse.kron(d2, eye) + sparse.kron(eye, d2)).tocsr() * 1600.0
        self._lu = splu((sparse.identity(m * m) - 1e-3 * self._lap).tocsc())
        self._x = np.linspace(0.0, 1.0, m * m)
        rng = np.random.default_rng(0)
        self._mats = rng.standard_normal((64, 4, 4)) + 1j * rng.standard_normal((64, 4, 4))
        self._np = np
        self.ticking = TICKING
        self._ticks = []
        self._paused = 0.0

    def sample(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        y = self._x
        for _ in range(16):
            y = self._lu.solve(np.sin(y) + 1e-4 * (self._lap @ y))
        for _ in range(4):
            np.abs(np.linalg.eigvals(self._mats)).max(axis=1)
        return time.perf_counter() - t0

    def measure(self) -> list:
        return [self.sample() for _ in range(SAMPLES)]

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._ticks.append(self.sample())
        self._paused += time.perf_counter() - t0

    def start(self) -> float:
        """Start sampling the kernel every TICK_S seconds (when ticking is
        on); returns the start time for stop()."""
        self._ticks, self._paused = [], 0.0
        if self.ticking:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return time.perf_counter()

    def stop(self, t0: float):
        """Stop sampling; returns the seconds since start() without the
        time spent in samples, and the samples taken."""
        t1 = time.perf_counter()
        if self.ticking:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        return t1 - t0 - self._paused, self._ticks


def scaled(seconds: float, kernel_samples) -> float:
    samples = sorted(kernel_samples)[1:-1]
    return seconds * NOMINAL_KERNEL_S / statistics.mean(samples)
