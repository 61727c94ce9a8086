"""Host-speed correction for wall times measured on a shared machine.

On a shared 2-core KVM guest the same pass of crtfi work runs up to 1.7x
slower in stretches lasting seconds to minutes, while CPU time tracks wall
time: the host, not this process, sets the pace. Twenty-second passes then
spread by 0.2-0.33 (quartile distance over median, ten runs), more than any
bound a benchmark can keep.

`HostClock` measures that pace as it goes. While a unit runs, a SIGALRM
timer interrupts it every INTERVAL_S on the same thread and times a fixed
reference kernel - a frozen miniature of a straight-line register
interpreter that shares no code with crtfi. The unit's time, minus the
kernel's own, is scaled by the mean of REF_KERNEL_S / kernel time over the
samples taken during it. Samples are evenly spaced in wall time, so that
mean is the time-weighted host speed, and the result reads as seconds on a
host where the kernel takes REF_KERNEL_S (its typical time on an idle
Intel Xeon 2-core KVM guest). A change to crtfi cannot move the kernel, so
it cannot move the correction.
"""

from __future__ import annotations

import random
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

INTERVAL_S = 0.05
REF_KERNEL_S = 2.0e-4


@dataclass(frozen=True)
class _Op:
    kind: str
    dst: str
    a: str
    b: str


def _kernel_program() -> tuple[_Op, ...]:
    rng = random.Random(7)
    regs = [f"r{i}" for i in range(12)]
    ops = [_Op("const", r, "", "") for r in regs]
    for _ in range(60):
        ops.append(_Op(rng.choice(("add", "mul", "exp", "red")), rng.choice(regs),
                       rng.choice(regs), rng.choice(regs)))
    return tuple(ops)


_PROGRAM = _kernel_program()


def kernel(rounds: int = 6) -> int:
    """Fixed work: six faulted runs of a 72-instruction register program."""
    out = 0
    for r in range(rounds):
        regs = {"m": 65521}
        trace = []
        fault = {(r * 7) % 60: 1}
        for idx, op in enumerate(_PROGRAM):
            if op.kind == "const":
                v = idx + 3
            else:
                a = regs.get(op.a, 1)
                b = regs.get(op.b, 1)
                m = regs["m"]
                if op.kind == "add":
                    v = (a + b) % m
                elif op.kind == "mul":
                    v = (a * b) % m
                elif op.kind == "exp":
                    v = pow(a, b & 63, m)
                else:
                    v = a % (b | 2)
            f = fault.get(idx)
            if f is not None:
                v = f
            regs[op.dst] = v
            trace.append((idx, op.dst, v))
        out ^= len(tuple(trace)) + regs["r0"]
    return out


class HostClock:
    """Times calls in raw and host-corrected seconds."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, _signum=None, _frame=None) -> None:
        t0 = perf_counter()
        kernel()
        self.samples.append(perf_counter() - t0)

    def time(self, fn):
        """Run fn(); return (its result, raw seconds, corrected seconds)."""
        self._sample()
        first = len(self.samples)
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            t0 = perf_counter()
            out = fn()
            raw = perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        inside = self.samples[first:]
        self._sample()
        speed = statistics.fmean(REF_KERNEL_S / k for k in [self.samples[first - 1], *inside,
                                                             self.samples[-1]])
        return out, raw, (raw - sum(inside)) * speed

    def kernel_us(self) -> float:
        """Median kernel time over every sample so far, in microseconds."""
        return 1e6 * statistics.median(self.samples)
