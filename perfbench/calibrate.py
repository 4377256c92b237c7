"""Machine-speed probe: a fixed kernel that runs beside the benchmark on its CPU.

A shared host changes a CPU's speed by up to a factor of two, in phases
of seconds to minutes, and a process's CPU time swings with its wall
time. So neither clock tells the program's speed apart from the
machine's. The benchmark pins itself to one CPU and starts this probe on
the same CPU at the lowest priority (nice 19, about 1.4% of the CPU
beside one busy process). The kernel runs in short slices interleaved
with the benchmark's own. After each kernel step the probe records the
clock and its own CPU time in a file, so the CPU seconds per step
at any moment of the run can be read afterwards. A benchmark interval is
then reported at reference speed: its wall time, less the CPU time the
probe took inside it, times ``NOMINAL_STEP_S`` over the measured seconds
per step around it.

The kernel is the program's kind of work without the program: RK4 steps
of four coupled 6 x 6 symmetric matrix equations in small numpy calls,
with the state written out with ``repr`` as the CSV writers do. It
imports nothing from ``aaolq``, so a change to the program never
changes it.
"""
from __future__ import annotations

import contextlib
import os
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

#: CPU seconds of one kernel step at reference speed: the 2-CPU Intel
#: Xeon sandbox of the README's baseline, Python 3.11, numpy 2.4, in a
#: fast phase. Only ratios to it are reported.
NOMINAL_STEP_S = 3.0e-4

#: Priority of the probe. nice 19 weighs 15 against a nice-0 process's
#: 1024, so the probe takes about 1.4% of the shared CPU.
PROBE_NICE = 19

#: Shortest window over which the speed is averaged; shorter intervals
#: take the speed of the window of this length centred on them.
MIN_WINDOW_S = 2.0

_START_TIMEOUT_S = 60.0

_PLAYERS = 4
_N = 6
_DT = 1e-2


class Kernel:
    """The reference work, with its fixed inputs built once."""

    def __init__(self):
        rng = np.random.default_rng(20190227)
        self.a = rng.uniform(-0.5, 0.5, (_N, _N)) - 0.8 * np.eye(_N)
        self.h = [np.diag(rng.uniform(0.1, 0.5, _N)) for _ in range(_PLAYERS)]
        self.q = [np.diag(rng.uniform(0.5, 2.0, _N)) for _ in range(_PLAYERS)]
        self.s = [np.diag(rng.uniform(0.5, 2.0, _N)) for _ in range(_PLAYERS)]

    def _rhs(self, s: list) -> list:
        a = self.a
        coupling = sum(h @ si for h, si in zip(self.h, s))
        out = []
        for si, qi in zip(s, self.q):
            d = si @ a + a.T @ si + qi - si @ coupling - coupling.T @ si
            out.append(0.5 * (d + d.T))
        return out

    def step(self) -> int:
        """One RK4 step and a CSV-style dump of the state; returns its length."""
        s = self.s
        k1 = self._rhs(s)
        k2 = self._rhs([si + 0.5 * _DT * ki for si, ki in zip(s, k1)])
        k3 = self._rhs([si + 0.5 * _DT * ki for si, ki in zip(s, k2)])
        k4 = self._rhs([si + _DT * ki for si, ki in zip(s, k3)])
        s = [si + _DT / 6.0 * (p + 2.0 * q + 2.0 * r + w) for si, p, q, r, w in zip(s, k1, k2, k3, k4)]
        # Keep magnitudes, and so the arithmetic's speed, the same on every step.
        self.s = [si / max(1.0, float(np.abs(si).max())) for si in s]
        return sum(len(",".join(repr(float(v)) for v in si.ravel())) for si in self.s)


_RECORD = struct.Struct("dd")  # clock, probe CPU time; one per step


def _probe_main(cpu: int, path: str, parent: int) -> None:
    """Run the kernel on ``cpu`` at low priority, recording each step.

    It runs until killed, or until ``parent`` is gone, so a run that is
    itself killed leaves no probe behind.
    """
    os.sched_setaffinity(0, {cpu})
    os.nice(PROBE_NICE)
    kernel = Kernel()
    with open(path, "wb", buffering=0) as record:  # unbuffered: every step is readable at once
        while os.getppid() == parent:
            kernel.step()
            record.write(_RECORD.pack(time.perf_counter(), time.process_time()))


class SpeedProbe:
    """The probe process beside a run, and the speed it saw.

    Use as a context manager: entering pins this process to ``cpu``, the
    highest-numbered one it may run on, and starts the probe there;
    leaving stops the probe, waits for it, reads its record and unpins
    this process. A process started in between (the set-up probe)
    inherits the pinning. The record is a file under ``work_dir``,
    deleted on leaving.
    """

    def __init__(self, work_dir: Path):
        self.cpu = max(os.sched_getaffinity(0))
        self._work_dir = Path(work_dir)
        self._path = None
        self._proc = None
        self._affinity = None
        self._t = self._c = None

    def _records(self) -> np.ndarray:
        data = self._path.read_bytes()
        usable = len(data) - len(data) % _RECORD.size
        return np.frombuffer(data[:usable], dtype=np.float64).reshape(-1, 2)

    def _wait_for_step_after(self, moment: float) -> None:
        deadline = time.perf_counter() + _START_TIMEOUT_S
        while True:
            records = self._records()
            if len(records) >= 2 and records[-1, 0] > moment:
                return
            if self._proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"speed probe stopped recording (exit code {self._proc.poll()})")
            time.sleep(0.01)

    def __enter__(self) -> "SpeedProbe":
        self._work_dir.mkdir(parents=True, exist_ok=True)
        fd, name = tempfile.mkstemp(prefix="speed-", suffix=".bin", dir=self._work_dir)
        os.close(fd)
        self._path = Path(name)
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpu})
        self._proc = subprocess.Popen([sys.executable, __file__, str(self.cpu), name, str(os.getpid())])
        try:
            self._wait_for_step_after(time.perf_counter())
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, exc_type, *exc) -> None:
        try:
            if exc_type is None:
                self._wait_for_step_after(time.perf_counter())
                records = self._records()
                self._t, self._c = records[:, 0].copy(), records[:, 1].copy()
        finally:
            self._stop()

    def _stop(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()
        os.sched_setaffinity(0, self._affinity)
        self._path.unlink(missing_ok=True)
        with contextlib.suppress(OSError):  # shared with the run's op directories
            self._work_dir.rmdir()

    def _covered(self, a: float, b: float) -> None:
        if self._t is None or a < self._t[0] or b > self._t[-1]:
            raise RuntimeError("speed probe has no record of the interval")

    def probe_cpu(self, a: float, b: float) -> float:
        """CPU seconds the probe took between clock readings ``a`` and ``b``."""
        self._covered(a, b)
        return float(np.interp(b, self._t, self._c) - np.interp(a, self._t, self._c))

    def step_s(self, a: float, b: float) -> float:
        """CPU seconds per kernel step around ``[a, b]``, over ``MIN_WINDOW_S`` at least."""
        half = max(b - a, MIN_WINDOW_S) / 2.0
        mid = (a + b) / 2.0
        lo = max(mid - half, float(self._t[0]))
        hi = min(mid + half, float(self._t[-1]))
        self._covered(lo, hi)
        index = np.arange(len(self._t), dtype=np.float64)
        steps = np.interp(hi, self._t, index) - np.interp(lo, self._t, index)
        return self.probe_cpu(lo, hi) / steps

    def at_reference(self, a: float, b: float) -> float:
        """Seconds the interval ``[a, b]`` would take at reference speed."""
        return (b - a - self.probe_cpu(a, b)) * NOMINAL_STEP_S / self.step_s(a, b)


if __name__ == "__main__":
    _probe_main(int(sys.argv[1]), sys.argv[2], int(sys.argv[3]))
