"""Supervised execution of independent work items.

:func:`supervised_map` is the one fan-out primitive behind every
experiment, sweep, grid and deployment campaign: it maps a function over
self-contained work items — serially or over a ``ProcessPoolExecutor`` —
while giving each item a configurable per-attempt timeout and bounded
retries with exponential backoff + deterministic jitter.  Items that keep
failing are *quarantined* into structured :class:`FailedItem` records
instead of aborting the batch, so one poisoned cell cannot take down an
overnight grid.  Retry/timeout/failure counts are emitted into the active
obs registry (``resilience.*`` counters) when observability is on.

Semantics worth knowing:

* Work items must be deterministic given their own payload (the
  matched-seed contract): a retried item recomputes the identical
  result, so supervision never changes *what* is computed, only whether
  a transient crash is survived.
* A timed-out item's worker process cannot be killed through the
  ``concurrent.futures`` API; the supervisor abandons the future,
  counts the timeout, and resubmits.  The abandoned worker keeps its
  pool slot until it finishes — acceptable for hangs that eventually
  return, documented as a limitation for true livelocks.
* In serial mode (``n_jobs=1``) there is no way to interrupt a running
  call, so ``timeout_s`` is not enforced; injected hangs simply delay
  the (identical) result.
* With ``fail_fast=True`` (how the experiment layer runs when no
  supervisor config is given) the first *permanent* failure re-raises
  its original exception.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ResilienceError, WorkerFailure
from repro.obs.metrics import active_registry
from repro.obs.telemetry import TelemetryLog, use_telemetry

__all__ = [
    "SupervisorConfig",
    "FailedItem",
    "SupervisedOutcome",
    "resolve_n_jobs",
    "supervised_map",
]


@dataclass(frozen=True)
class SupervisorConfig:
    """Retry/timeout policy for one supervised batch.

    ``max_retries`` bounds *additional* attempts after the first (so an
    item runs at most ``max_retries + 1`` times).  The backoff before
    retry ``r`` (1-based) is ``backoff_base_s * backoff_factor**(r-1)``,
    stretched by up to ``backoff_jitter`` of itself using a jitter drawn
    deterministically from ``(item index, attempt)`` — reproducible, yet
    desynchronized across items.
    """

    timeout_s: Optional[float] = None
    max_retries: int = 0
    backoff_base_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ResilienceError(
                f"timeout_s must be positive or None: {self.timeout_s}"
            )
        if self.max_retries < 0:
            raise ResilienceError(
                f"max_retries must be >= 0: {self.max_retries}"
            )
        if self.backoff_base_s < 0:
            raise ResilienceError(
                f"backoff_base_s must be >= 0: {self.backoff_base_s}"
            )
        if self.backoff_factor < 1.0:
            raise ResilienceError(
                f"backoff_factor must be >= 1: {self.backoff_factor}"
            )
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ResilienceError(
                f"backoff_jitter must be in [0, 1]: {self.backoff_jitter}"
            )


@dataclass
class FailedItem:
    """A quarantined work item: what failed, how often, for how long.

    Takes the item's slot in ``SupervisedOutcome.results`` so positional
    alignment with the input sequence survives partial failure.  The
    original exception rides along (``exception``, excluded from
    comparison) so strict callers can re-raise it.
    """

    index: int
    error_type: str
    message: str
    attempts: int
    elapsed_s: float
    timed_out: bool = False
    exception: Optional[BaseException] = field(
        default=None, compare=False, repr=False
    )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready record (drops the live exception object)."""
        return {
            "index": self.index,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "elapsed_s": self.elapsed_s,
            "timed_out": self.timed_out,
        }


@dataclass
class SupervisedOutcome:
    """Everything a supervised batch produced.

    ``results`` is positionally aligned with the input items; failed
    slots hold their :class:`FailedItem` (also collected in
    ``failures``).
    """

    results: List[Any]
    failures: List[FailedItem] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0

    @property
    def ok(self) -> bool:
        """Whether every item eventually succeeded."""
        return not self.failures


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Worker count for an ``n_jobs`` argument.

    ``None`` means serial, ``-1`` all cores; any other value below 1
    raises :class:`~repro.errors.ConfigurationError`.
    """
    if n_jobs is None:
        return 1
    if n_jobs == -1:
        return os.cpu_count() or 1
    if n_jobs < 1:
        raise ConfigurationError(f"n_jobs must be >= 1 or -1: {n_jobs}")
    return int(n_jobs)


def _heartbeat_loop(
    telemetry: TelemetryLog,
    label: str,
    attempt: int,
    started: float,
    stop: threading.Event,
) -> None:
    """Daemon-thread body: beat until told to stop (or the process dies)."""
    pid = os.getpid()
    while not stop.wait(telemetry.heartbeat_s):
        try:
            telemetry.emit(
                "heartbeat",
                item=label,
                attempt=attempt,
                pid=pid,
                elapsed_s=round(time.perf_counter() - started, 3),
            )
        except OSError:  # pragma: no cover - telemetry dir vanished
            return


def _injected_call(
    fn,
    item,
    kind: Optional[str],
    seconds: float,
    telemetry: Optional[TelemetryLog] = None,
    label: Optional[str] = None,
    attempt: int = 0,
):
    """Run one item, honouring an injected worker fault.

    Module-level so it pickles into pool workers.  ``kind`` is ``None``
    (no fault), ``"crash"`` or ``"hang"`` — see
    :class:`~repro.resilience.faults.WorkerCrashFault` /
    :class:`~repro.resilience.faults.WorkerHangFault`.

    With ``telemetry`` attached, emits ``item-started`` and periodic
    ``heartbeat`` events from a daemon thread — started *before* fault
    injection, so even an injected hang keeps beating (with growing
    ``elapsed_s``) and shows up live in ``repro monitor``.  The log is
    scoped via :func:`~repro.obs.telemetry.use_telemetry` around ``fn``
    so obs sessions inside can stream run-level progress.  Heartbeats
    only observe: they never touch ``fn``'s inputs or the engine RNG
    stream, so results stay bit-exact with telemetry off.
    """
    if telemetry is None:
        if kind == "crash":
            raise WorkerFailure("injected worker crash (fault plan)")
        if kind == "hang" and seconds > 0:
            time.sleep(seconds)
        return fn(item)
    started = time.perf_counter()
    telemetry.emit(
        "item-started", item=label, attempt=attempt, pid=os.getpid()
    )
    stop = threading.Event()
    beater = threading.Thread(
        target=_heartbeat_loop,
        args=(telemetry, label, attempt, started, stop),
        daemon=True,
    )
    beater.start()
    try:
        if kind == "crash":
            raise WorkerFailure("injected worker crash (fault plan)")
        if kind == "hang" and seconds > 0:
            time.sleep(seconds)
        with use_telemetry(telemetry):
            return fn(item)
    finally:
        stop.set()
        beater.join(timeout=telemetry.heartbeat_s * 4)


def _backoff_delay(config: SupervisorConfig, index: int, attempt: int) -> float:
    """Deterministic-jitter exponential backoff before retry ``attempt``."""
    if config.backoff_base_s <= 0:
        return 0.0
    delay = config.backoff_base_s * config.backoff_factor ** (attempt - 1)
    jitter = Random((index + 1) * 2654435761 + attempt).random()
    return delay * (1.0 + config.backoff_jitter * jitter)


class _Counters:
    """Lazy handles on the ``resilience.*`` obs counters (no-ops when
    observability is off)."""

    def __init__(self) -> None:
        registry = active_registry()
        if registry is None:
            self.retries = self.timeouts = self.failures = self.completed = None
            return
        self.retries = registry.counter(
            "resilience.retries", help="supervised work-item retry attempts"
        )
        self.timeouts = registry.counter(
            "resilience.timeouts", help="supervised work-item attempt timeouts"
        )
        self.failures = registry.counter(
            "resilience.failures",
            help="work items quarantined after exhausting retries",
        )
        self.completed = registry.counter(
            "resilience.items_completed",
            help="supervised work items that produced a result",
        )

    @staticmethod
    def inc(counter) -> None:
        if counter is not None:
            counter.inc()


WorkerFaultFn = Callable[[int, int], Optional[Tuple[str, float]]]


def supervised_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    n_jobs: Optional[int] = 1,
    config: Optional[SupervisorConfig] = None,
    worker_fault: Optional[WorkerFaultFn] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
    fail_fast: bool = False,
    telemetry: Optional[TelemetryLog] = None,
    labels: Optional[Sequence[Any]] = None,
) -> SupervisedOutcome:
    """Map ``fn`` over items under supervision; see the module docstring.

    ``worker_fault(index, attempt)`` optionally injects crash/hang
    faults (from a :class:`~repro.resilience.inject.FaultInjector`).
    ``on_result(index, result)`` fires in the parent as each item
    completes — the checkpoint layer saves cells here, so progress
    survives a kill even mid-batch.

    ``telemetry`` streams the batch's lifecycle into a
    :class:`~repro.obs.telemetry.TelemetryLog`: ``item-started`` and
    periodic ``heartbeat`` events from inside each worker, ``retry`` /
    ``timeout`` / ``quarantine`` / ``item-done`` from the parent as it
    reacts.  ``labels`` names items in those events (positionally
    aligned; defaults to the item index).
    """
    config = SupervisorConfig() if config is None else config
    items = list(items)
    outcome = SupervisedOutcome(results=[None] * len(items))
    if not items:
        return outcome
    if labels is not None and len(labels) != len(items):
        raise ResilienceError(
            f"labels length {len(labels)} != items length {len(items)}"
        )
    names = [
        str(labels[i]) if labels is not None else str(i)
        for i in range(len(items))
    ]
    counters = _Counters()
    jobs = min(resolve_n_jobs(n_jobs), len(items))
    if jobs <= 1:
        _serial_loop(fn, items, config, worker_fault, on_result, fail_fast,
                     outcome, counters, telemetry, names)
    else:
        _pool_loop(fn, items, jobs, config, worker_fault, on_result, fail_fast,
                   outcome, counters, telemetry, names)
    return outcome


def _fault_for(worker_fault, index: int, attempt: int):
    fault = worker_fault(index, attempt) if worker_fault is not None else None
    return fault if fault is not None else (None, 0.0)


def _record_failure(
    outcome: SupervisedOutcome,
    counters: _Counters,
    fail_fast: bool,
    index: int,
    attempts: int,
    elapsed_s: float,
    error: BaseException,
    timed_out: bool,
    telemetry: Optional[TelemetryLog] = None,
    label: Optional[str] = None,
) -> None:
    if fail_fast:
        raise error
    failed = FailedItem(
        index=index,
        error_type=type(error).__name__,
        message=str(error),
        attempts=attempts,
        elapsed_s=elapsed_s,
        timed_out=timed_out,
        exception=error,
    )
    outcome.results[index] = failed
    outcome.failures.append(failed)
    counters.inc(counters.failures)
    if telemetry is not None:
        telemetry.emit(
            "quarantine",
            item=label,
            attempts=attempts,
            error=f"{type(error).__name__}: {error}",
            timed_out=timed_out or None,
        )


def _serial_loop(fn, items, config, worker_fault, on_result, fail_fast,
                 outcome, counters, telemetry=None, names=None) -> None:
    for index, item in enumerate(items):
        label = names[index] if names is not None else str(index)
        started = time.perf_counter()
        attempt = 0
        while True:
            kind, seconds = _fault_for(worker_fault, index, attempt)
            try:
                result = _injected_call(
                    fn, item, kind, seconds, telemetry, label, attempt
                )
            except Exception as error:  # noqa: BLE001 - supervised boundary
                if attempt < config.max_retries:
                    attempt += 1
                    outcome.retries += 1
                    counters.inc(counters.retries)
                    if telemetry is not None:
                        telemetry.emit("retry", item=label, attempt=attempt)
                    delay = _backoff_delay(config, index, attempt)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                _record_failure(
                    outcome, counters, fail_fast, index, attempt + 1,
                    time.perf_counter() - started, error, timed_out=False,
                    telemetry=telemetry, label=label,
                )
                break
            outcome.results[index] = result
            counters.inc(counters.completed)
            if telemetry is not None:
                telemetry.emit(
                    "item-done",
                    item=label,
                    attempts=attempt + 1,
                    elapsed_s=round(time.perf_counter() - started, 3),
                )
            if on_result is not None:
                on_result(index, result)
            break


def _pool_loop(fn, items, jobs, config, worker_fault, on_result, fail_fast,
               outcome, counters, telemetry=None, names=None) -> None:
    pool = ProcessPoolExecutor(max_workers=jobs)
    abandoned = False

    def label_of(index: int) -> str:
        return names[index] if names is not None else str(index)

    try:
        # future -> (index, attempt, item_started, attempt_deadline)
        running: Dict[Any, Tuple[int, int, float, Optional[float]]] = {}
        # (due_monotonic, index, attempt, item_started) min-heap
        retry_queue: List[Tuple[float, int, int, float]] = []

        def submit(index: int, attempt: int, item_started: float) -> None:
            kind, seconds = _fault_for(worker_fault, index, attempt)
            future = pool.submit(
                _injected_call, fn, items[index], kind, seconds,
                telemetry, label_of(index), attempt,
            )
            deadline = (
                None if config.timeout_s is None
                else time.monotonic() + config.timeout_s
            )
            running[future] = (index, attempt, item_started, deadline)

        def fail_or_retry(index, attempt, item_started, error, timed_out):
            if attempt < config.max_retries:
                outcome.retries += 1
                counters.inc(counters.retries)
                if telemetry is not None:
                    telemetry.emit(
                        "retry", item=label_of(index), attempt=attempt + 1
                    )
                due = time.monotonic() + _backoff_delay(
                    config, index, attempt + 1
                )
                heapq.heappush(
                    retry_queue, (due, index, attempt + 1, item_started)
                )
                return
            _record_failure(
                outcome, counters, fail_fast, index, attempt + 1,
                time.perf_counter() - item_started, error, timed_out,
                telemetry=telemetry, label=label_of(index),
            )

        for index in range(len(items)):
            submit(index, 0, time.perf_counter())

        while running or retry_queue:
            now = time.monotonic()
            while retry_queue and retry_queue[0][0] <= now:
                _, index, attempt, item_started = heapq.heappop(retry_queue)
                submit(index, attempt, item_started)
            # Sleep until the nearest attempt deadline or retry due time.
            bounds = [
                deadline - now
                for (_, _, _, deadline) in running.values()
                if deadline is not None
            ]
            if retry_queue:
                bounds.append(retry_queue[0][0] - now)
            wait_s = max(0.0, min(bounds)) if bounds else None
            if not running:
                time.sleep(wait_s or 0.0)
                continue
            done, _pending = futures_wait(
                set(running), timeout=wait_s, return_when=FIRST_COMPLETED
            )
            for future in done:
                index, attempt, item_started, _deadline = running.pop(future)
                error = future.exception()
                if error is None:
                    result = future.result()
                    outcome.results[index] = result
                    counters.inc(counters.completed)
                    if telemetry is not None:
                        telemetry.emit(
                            "item-done",
                            item=label_of(index),
                            attempts=attempt + 1,
                            elapsed_s=round(
                                time.perf_counter() - item_started, 3
                            ),
                        )
                    if on_result is not None:
                        on_result(index, result)
                else:
                    fail_or_retry(
                        index, attempt, item_started, error, timed_out=False
                    )
            now = time.monotonic()
            expired = [
                future
                for future, (_, _, _, deadline) in running.items()
                if deadline is not None and deadline <= now
            ]
            for future in expired:
                index, attempt, item_started, _deadline = running.pop(future)
                # The worker cannot be killed; abandon the future (its
                # eventual completion is ignored) and count the timeout.
                future.cancel()
                abandoned = True
                outcome.timeouts += 1
                counters.inc(counters.timeouts)
                if telemetry is not None:
                    telemetry.emit(
                        "timeout",
                        item=label_of(index),
                        attempt=attempt + 1,
                        timeout_s=config.timeout_s,
                    )
                error = ResilienceError(
                    f"work item {index} timed out after {config.timeout_s}s "
                    f"(attempt {attempt + 1})"
                )
                fail_or_retry(
                    index, attempt, item_started, error, timed_out=True
                )
    finally:
        # Abandoned (hung) workers must not block the caller: skip the
        # join and let them exit on their own once the hang clears.
        pool.shutdown(wait=not abandoned, cancel_futures=True)
