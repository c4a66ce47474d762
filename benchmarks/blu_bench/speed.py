"""Machine-speed samples that factor a shared host's slow phases out of timings.

On a shared VM, other tenants slow a core by up to about 1.6x, in phases
of seconds to minutes that come and go independently on each core.  A run
of 25 s can sit entirely in a slow phase, so no estimator over one run's
wall times (median or fastest repetition) is steady across runs.

While a workload runs, one sampler process per CPU it uses, pinned to that
CPU, wakes every ``PERIOD_S``, runs a fixed calibration kernel (Python
bytecode, a dict and small numpy operations, like the simulator's own
mix) and keeps the CPU time it took.  CPU time, not wall time, so that a
sample the workload preempts still measures the core alone.  The speed
of a sample is ``REFERENCE_S`` over its CPU time: 1 on a quiet core of
the reference machine, 0.4 to 0.7 in a slow phase.  A repetition's wall
time times the mean speed over its interval is the time it would have
taken at reference speed.  The sampler costs each core it watches about
5% of its time, the same on every version of the program.

Run as a script, this file is the sampler itself::

    python speed.py CPU      # stop by closing its standard input

It then prints ``[[midpoint, cpu_seconds], ...]`` (midpoints on the
``perf_counter`` clock, which all processes of the machine share) and
exits.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
from pathlib import Path
from statistics import fmean
from time import perf_counter, thread_time
from typing import Iterable, List, Tuple

#: Seconds between the end of one sample and the start of the next.
PERIOD_S = 0.04
#: CPU seconds of one kernel call on a quiet core of the reference
#: machine (the 2-core VM the committed baseline ran on) that a workload
#: shares, as during a run.
REFERENCE_S = 0.0020
STOP_TIMEOUT_S = 30


def kernel() -> int:
    """The fixed calibration work, about 2 ms on the reference core."""
    import numpy as np

    total = 0
    table = {}
    for i in range(16000):
        total += (i * 7) % 13
        table[i & 63] = total
    values = np.arange(32.0)
    for _ in range(320):
        values = np.sqrt(values * values + 1.0)
    return total + int(values[0])


def sample(cpu: int) -> None:
    """Sample ``cpu`` until standard input closes, then print the samples."""
    os.sched_setaffinity(0, {cpu})
    kernel()  # first call imports numpy
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        start, cpu_start = perf_counter(), thread_time()
        kernel()
        cpu_s = thread_time() - cpu_start
        samples.append(((start + perf_counter()) / 2, cpu_s))
    print(json.dumps(samples))


class SpeedSampler:
    """Sampler processes for ``cpus``, from construction to :meth:`stop`."""

    def __init__(self, cpus: Iterable[int]) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._processes = []
        try:
            for cpu in sorted(cpus):
                self._processes.append(subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()), str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                ))
        except BaseException:
            self.kill()
            raise

    def stop(self) -> None:
        """End every sampler and collect its samples."""
        try:
            for process in self._processes:
                # Closes standard input, which stops the sampler.
                out, _ = process.communicate(timeout=STOP_TIMEOUT_S)
                if process.returncode != 0:
                    raise RuntimeError(f"speed sampler exited {process.returncode}")
                self.samples.extend(tuple(s) for s in json.loads(out))
        finally:
            self.kill()

    def kill(self) -> None:
        for process in self._processes:
            if process.poll() is None:
                process.kill()
            process.wait()
        self._processes = []

    def __enter__(self) -> "SpeedSampler":
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        if exc_type is None:
            self.stop()
        else:
            self.kill()

    def speed(self, start: float, end: float) -> float:
        """Mean speed of the samples taken between ``start`` and ``end``
        (widened by one period, so a short interval still has one)."""
        window = [
            REFERENCE_S / seconds for mid, seconds in self.samples
            if start - PERIOD_S <= mid <= end + PERIOD_S
        ]
        if not window:
            raise RuntimeError("no speed sample inside a timed interval")
        return fmean(window)


if __name__ == "__main__":
    sample(int(sys.argv[1]))
