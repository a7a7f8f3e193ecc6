"""Host speed, from a fixed reference kernel timed during the run.

Other tenants slow this kind of shared virtual machine in bursts of a
second or more, in CPU time as much as in wall time.  The kernel below
does the same kinds of work as rangerevoke (Ed25519 through
``cryptography``, SHA-256, a byte-wise OR over a filter-sized buffer,
frozen dataclasses, dicts and a heap) but calls none of its code, so a
change to the program leaves it alone.  Its median time over the samples
taken during a stretch of work says how fast the host was in that
stretch; dividing the stretch's timings by it cancels most of the
slowdown.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import statistics
import time
from dataclasses import dataclass

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

NOMINAL_S = 1e-3   # the kernel's time on an unloaded host the bounds were set on

_KEY = Ed25519PrivateKey.from_private_bytes(bytes(32))
_PUB = _KEY.public_key()
_SIG = _KEY.sign(b"reference")
_ZEROS = bytes(4096)
_BYTES = bytes(range(256)) * 16


@dataclass(frozen=True)
class _Item:
    index: int
    payload: bytes


def kernel() -> None:
    for _ in range(4):
        _PUB.verify(_SIG, b"reference")
    _KEY.sign(b"reference")
    for i in range(50):
        hashlib.sha256(i.to_bytes(8, "big")).digest()
    bytes(a | b for a, b in zip(_ZEROS, _BYTES))
    heap: list[tuple[int, int]] = []
    seen: dict[_Item, int] = {}
    for i in range(300):
        seen[_Item(i, b"x")] = i
        heapq.heappush(heap, (i * 7919 % 301, i))
    while heap:
        heapq.heappop(heap)


class HostSpeed:
    """Kernel times, sampled on demand and at most every ``period`` s.

    The cyclic collector is off while the kernel runs, so the size of the
    program's heap does not change the kernel's time.  ``spent`` is the
    wall time all sampling took, to be taken out of a timing that
    sampled along the way.
    """

    def __init__(self, period: float = 0.05):
        self.period = period
        self.times: list[float] = []
        self.spent = 0.0
        self._due = 0.0

    def sample(self, times: int = 1) -> None:
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                t0 = time.perf_counter()
                kernel()
                self.times.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self._due = time.perf_counter() + self.period
        self.spent += self._due - self.period - start

    def maybe_sample(self) -> None:
        if time.perf_counter() >= self._due:
            self.sample()

    def scale_since(self, mark: int) -> float:
        """Factor that turns a time measured over the samples from index
        ``mark`` on into one on a host where the kernel takes ``NOMINAL_S``."""
        return NOMINAL_S / statistics.median(self.times[mark:])
