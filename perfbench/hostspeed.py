"""How fast the host is while an operation runs.

Other tenants of a shared host slow every instruction stream, in episodes
that last from a fraction of a second to minutes, by up to a third. A run
of the benchmark cannot avoid them, so it measures them: a fixed kernel with
the same mix of work as corrgeo's solvers (small matmuls, atan2, a 4 x 4 QR
per step, all from Python) is timed just before and just after every
operation and, through a timer signal, every ``INTERVAL_S`` while it runs.
An operation's time at reference speed is its wall time, less the time the
samples took, times ``REF_S`` over the mean sample.

The signal handler runs in the main thread between bytecodes, so it never
interrupts numpy mid-call; system calls it interrupts are retried.
"""

import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.05
STEPS = 25
# fastest kernel() time on the reference host, a 2-vCPU Xeon VM
REF_S = 0.00125

_X, _Y = np.random.default_rng(5).standard_normal((2, 8, 4))
_X /= np.linalg.norm(_X, axis=1)[:, None]
_Y /= np.linalg.norm(_Y, axis=1)[:, None]


def kernel():
    """Seconds taken by a fixed alignment-like descent on O(4)."""
    O = np.eye(4)
    t0 = perf_counter()
    for _ in range(STEPS):
        d = _X @ O - _Y
        s = _X @ O + _Y
        th = 2.0 * np.arctan2(np.sqrt(np.einsum("ij,ij->i", d, d)),
                              np.sqrt(np.einsum("ij,ij->i", s, s)))
        coef = -2.0 * th / np.where(np.sin(th) > 0.0, np.sin(th), 1.0)
        M = O.T @ ((_X * coef[:, None]).T @ _Y)
        Q, R = np.linalg.qr(O - 0.025 * O @ (M - M.T))
        O = Q * np.where(np.diag(R) < 0.0, -1.0, 1.0)
    return perf_counter() - t0


class SpeedProbe:
    """Times operations and rates the host's speed while each one runs."""

    def __init__(self):
        self.before = kernel()
        self._samples = []
        self._spent = 0.0

    def _sample(self, signum, frame):
        t0 = perf_counter()
        self._samples.append(kernel())
        self._spent += perf_counter() - t0

    def measure(self, fn):
        """Call fn(); returns (result, wall seconds, seconds at reference speed)."""
        self._samples, self._spent = [self.before], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            t0 = perf_counter()
            result = fn()
            wall = perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.before = kernel()  # also the next operation's first sample
        self._samples.append(self.before)
        net = wall - self._spent
        return result, net, net * REF_S / float(np.mean(self._samples))
