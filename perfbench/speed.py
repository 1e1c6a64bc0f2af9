"""Machine-speed reference: fixed work, unrelated to bsskit, timed between scenarios.

The benchmark host is shared, and its speed drifts by tens of percent within
a few seconds.  Raw round times therefore spread by 10-25 % (IQR over
median) across runs.  Every scenario run is bracketed by two passes of
this kernel, and its times are reported at the nominal speed: raw time x
NOMINAL_S / (mean of the two reference times); that brought the spread to
2-9 %.  A set-up probe, a fresh process, times the kernel itself right
after its set-up and is scaled the same way.  The kernel does the two
kinds of work whose speed tracked the workloads best: array streaming
with fresh allocations, and a Python loop of small numpy operations.  It
keeps about 4 MB of arrays, which it adds to every workload's peak
resident memory.
"""

import time

import numpy as np

# median kernel time between scenarios on the 2-core host the bounds were set on
NOMINAL_S = 0.057


class SpeedReference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._gemm = rng.standard_normal((32, 4000))
        self._gram = np.empty((32, 32))
        self._stream = rng.standard_normal((2, 100000))
        self._square = np.empty_like(self._stream)
        self._samples = rng.standard_normal((1500, 4))
        self._G = np.eye(4) + 0.1 * rng.standard_normal((4, 4))

    def time(self):
        """Seconds one pass of the kernel takes now."""
        A, S, G = self._gemm, self._stream, self._G
        start = time.perf_counter()
        for _ in range(40):
            np.matmul(A, A.T, out=self._gram)
            np.multiply(S, S, out=self._square)
            self._square.sum(axis=1)
            np.ones(200000).sum()
        acc = np.zeros((4, 4))
        for u in self._samples:
            y = G @ u
            acc += np.outer(y, u) - np.eye(4)
        return time.perf_counter() - start

    def factor(self, *reference_s):
        """Scale from raw seconds to seconds at nominal speed."""
        return NOMINAL_S / (sum(reference_s) / len(reference_s))
