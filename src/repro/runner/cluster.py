"""Fault-tolerant parallel execution: the ``cluster`` backend.

:class:`ClusterBackend` is the fabric's one parallel backend.  It runs a
batch of work units over *independent* worker subprocesses — no
``multiprocessing.Pool`` machinery, no shared fate.  The parent assigns
every unit itself: each worker has its own task pipe and is sent one
unit when it starts and the next one whenever it reports the last, so
the parent always knows exactly which unit every worker holds.  Three
mechanisms make the run survive anything short of the parent itself
dying:

* **Heartbeat liveness.**  Every worker stamps a shared heartbeat slot
  from a daemon thread; a worker whose process is gone (``SIGKILL``,
  OOM) or whose stamp goes stale is declared lost, the unit it held is
  re-dispatched with exponential backoff, and a replacement worker is
  spawned into the same slot.  Detection of a killed worker is driven
  by process liveness, well inside one heartbeat interval.
* **Opt-in lease.**  A hung worker keeps heartbeating, so only a
  wall-clock budget catches it.  With ``lease_timeout`` (or
  ``REPRO_RUNNER_LEASE``) set, a worker holding one unit longer than the
  lease is put down like a lost one.  Unset — the default — a unit whose
  worker is alive and heartbeating is never killed: a budget cannot tell
  a slow shard from a hung one.
* **Exactly-once merge.**  A worker declared lost may already have sent
  its outcome, so completions are deduplicated by unit: the first
  outcome wins, later duplicates are counted (``stats["duplicates"]``)
  and dropped.  Outcomes are pure functions of their unit, so *which*
  attempt wins is immaterial — the merged result is bit-identical to a
  serial run regardless, which the fault-injection suite asserts.

A unit that keeps failing (``max_attempts`` worker deaths, hangs or
exceptions) raises a typed :class:`~repro.runner.executor.
WorkerCrashError` carrying the unit's content key, attempt count and the
last heartbeat age — never a raw traceback from worker internals.

Results travel over one shared ``SimpleQueue``.  Observability rides the
same wire: a worker clears the process :data:`repro.obs.REGISTRY` before
each unit and ships its contribution back next to the outcome
(:func:`repro.obs.capture_payload`); the conductor folds payloads in
associatively, so counters, histograms and (under ``REPRO_OBS=trace``)
spans carry the totals a serial run reports.  Payloads are always
shipped, because the demand-kernel counters behind the CLI
``--pipeline`` diagnostics must keep working with ``REPRO_OBS`` off.
Worker deaths injected for testing go through :mod:`repro.runner.
faults`, which SIGKILLs or hangs a worker mid-shard — after it journals
its claim, before the outcome.

**One fleet per process.**  Workers outlive a sweep: a campaign is
dozens of sweeps, and forking fresh workers for each one cost a fork,
a cold first shard and a join per worker per sweep.  The process keeps
one idle :class:`WorkerFleet`; a backend borrows it in ``as_completed``
and hands it back in ``shutdown``.  A fleet is forked lazily, at the
first pending unit, and only reused while nothing a forked worker froze
has changed: the worker count, the heartbeat interval and the
:func:`fork_state` (demand kernel, obs recorder and mode, every
``REPRO_*`` variable).  Any mismatch closes it and forks a new one.  A
sweep that ends in a :class:`~repro.runner.executor.WorkerCrashError`,
an exception in the consumer or an interrupt closes the fleet too, so
the next sweep starts on fresh workers.  :func:`close_workers` (also
run ``atexit``) closes the idle fleet, and a worker whose parent is gone
exits on its own within a quarter heartbeat interval.

Since workers are not forked per sweep, nothing reaches them by fork
inheritance: a dispatch is ``(seq, pos, unit, samples)`` on the worker's
task pipe.  ``seq`` is numbered across the fleet's life, so a late
report from an earlier sweep is recognized and dropped.  ``samples``
carries the task-set samples the parent retains (see
:func:`repro.experiments.acceptance.retain_sample`) that the worker does
not hold yet — or tells it to drop what it holds first, after the parent
evicted them.  Workers ship the samples they retain back next to the
obs payload, so sibling service levels of a degradation figure generate
their shared sample once, whichever worker runs them.
"""

from __future__ import annotations

import atexit
import heapq
import multiprocessing
import os
import threading
import time
import traceback
import weakref
from collections import deque
from typing import Iterator, Sequence

from repro import obs
from repro.analysis import dbf
from repro.experiments.acceptance import (
    BucketOutcome,
    clear_samples,
    retain_sample,
    retained_samples,
    take_new_samples,
)
from repro.obs import clock
from repro.obs.forensics import (
    assemble_postmortem,
    describe_postmortem,
    write_postmortem,
)
from repro.obs.journal import active_journal
from repro.runner import faults
from repro.runner.executor import (
    ExecutorBackend,
    FabricObserver,
    UnitResult,
    WorkerCrashError,
    timed_unit,
)
from repro.runner.store import unit_key
from repro.runner.units import WorkUnit
from repro.util.env import (
    heartbeat_interval_from_env,
    journal_flush_interval_from_env,
    lease_timeout_from_env,
)

__all__ = ["ClusterBackend", "close_workers", "worker_pids"]

#: Cap on the exponential re-dispatch backoff (seconds).
BACKOFF_CAP = 2.0


def worker_context() -> multiprocessing.context.BaseContext:
    # fork lets workers inherit the parent's imports and caches.  Start-up
    # is not negligible even so: measured, a worker forked from a cold
    # parent spent 15-25 ms of CPU before its first shard ran warm, as
    # long as a small shard takes, so ``as_completed`` warms the parent
    # first.  Fall back to spawn where fork does not exist (Windows).
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def run_unit_observed(unit: WorkUnit, backend: str) -> tuple[BucketOutcome, dict]:
    """Worker entry point: the outcome plus this unit's obs payload.

    Clearing first makes the payload exactly the unit's contribution, so
    the parent can absorb payloads in any completion order without double
    counting (registry merge is associative and commutative).
    """
    obs.clear()
    outcome = timed_unit(unit, backend)
    return outcome, obs.capture_payload()


def payload_busy_seconds(payload: dict | None) -> float:
    """Worker-side shard seconds carried by one obs payload (0.0 when the
    worker recorded none, i.e. recording is off)."""
    if not payload:
        return 0.0
    histograms = payload.get("registry", {}).get("histograms", {})
    state = histograms.get("runner.shard-seconds")
    return float(state["total"]) if state else 0.0


def _cluster_worker_main(
    slot: int,
    parent: int,
    tasks,
    result_q,
    heartbeats,
    beat_every: float,
) -> None:
    """Worker entry point: receive, run, report — until the parent stops us.

    Units arrive one at a time on this worker's own ``tasks`` pipe as
    ``(seq, pos, unit, samples)``; the worker reports each on the shared
    result queue and then waits for the next.  The heartbeat thread also
    watches for the parent (pid ``parent``) to go away: a worker must
    not outlive its conductor, and blocked in ``recv`` it would never
    notice: the fork copied the write end of its own task pipe (and of
    every pipe made before it), so the pipe never reaches EOF.

    With ``REPRO_OBS_JOURNAL`` set (inherited from the conductor's
    environment), the worker also journals each claim and a heartbeat
    stamp every journal-flush interval — the durable trail crash
    forensics reconstructs a SIGKILLed worker from, since everything in
    this process's memory dies with it.
    """
    heartbeats[slot] = clock.monotonic()
    # Samples arrive over the pipe; what the fork copied is not tracked.
    clear_samples()
    stop = threading.Event()
    flush_every = journal_flush_interval_from_env()

    def beat() -> None:
        journal = active_journal()
        if journal is not None:
            journal.emit("heartbeat", slot=slot)
        last_emit = clock.monotonic()
        while not stop.wait(beat_every):
            if os.getppid() != parent:
                os._exit(0)
            now = clock.monotonic()
            heartbeats[slot] = now
            if journal is not None and now - last_emit >= flush_every:
                journal.emit("heartbeat", slot=slot)
                last_emit = now

    threading.Thread(target=beat, daemon=True).start()
    try:
        while True:
            try:
                seq, pos, unit, samples = tasks.recv()
            except EOFError:
                return
            if samples is not None:
                reset, pairs = samples
                if reset:
                    clear_samples()
                for key, arrays in pairs:
                    retain_sample(key, arrays)
                take_new_samples()  # the parent's, not ours to ship back
            journal = active_journal()
            if journal is not None:
                journal.emit(
                    "claim",
                    key=unit_key(unit),
                    label=unit.config.label,
                    m=unit.config.m,
                    bucket=unit.bucket,
                    slot=slot,
                    seq=seq,
                )
            try:
                faults.maybe_inject(unit)
                outcome, payload = run_unit_observed(unit, "cluster")
            except Exception:
                result_q.put(("error", slot, seq, pos, traceback.format_exc()))
                continue
            result_q.put(
                ("done", slot, seq, pos, outcome, payload, take_new_samples())
            )
    finally:
        stop.set()


# -- the process's worker fleet -------------------------------------------------
def fork_state() -> tuple:
    """What a forked worker froze that a reused one must still match.

    The demand kernel, the obs recorder (by identity, with its mode) and
    every ``REPRO_*`` environment variable.  The recorder is held weakly,
    so a fleet never keeps a replaced recorder's spans alive, and a dead
    reference equals no live one.
    """
    return (
        dbf.demand_kernel(),
        weakref.ref(obs.get_recorder()),
        obs.mode(),
        tuple(sorted(
            (name, value) for name, value in os.environ.items()
            if name.startswith("REPRO_")
        )),
    )


class WorkerFleet:
    """Worker processes, their task pipes and the shared result channel.

    A fleet lives across sweeps; :class:`ClusterBackend` borrows it for
    one.  ``key`` is what it was forked under (see :func:`fork_state`);
    ``seq`` numbers dispatches over the fleet's whole life; and
    ``held[slot]`` is the set of sample keys that slot's worker holds,
    mirrored from what was sent and shipped back.
    """

    def __init__(self, workers: int, heartbeat_interval: float, key: tuple):
        self.key = key
        self.heartbeat_interval = heartbeat_interval
        self.ctx = worker_context()
        self.procs: list = [None] * workers
        self.pipes: list = [None] * workers  # slot -> (read end, write end)
        self.held: list[set] = [set() for _ in range(workers)]
        self.result_q = self.ctx.SimpleQueue()
        self.heartbeats = self.ctx.Array("d", workers, lock=False)
        self.seq = 0

    def spawn(self, slot: int, now: float) -> None:
        """Fork a fresh worker into ``slot`` (reaping any previous one)."""
        # The parent keeps the read end open too, so a unit sent to a
        # worker that has just died sits in the pipe instead of raising;
        # the next reap reclaims it from the backend's ``_held``.
        old = self.procs[slot]
        if old is not None:
            old.join(timeout=2.0)
        self._close_pipe(slot)
        self.pipes[slot] = self.ctx.Pipe(duplex=False)
        self.held[slot] = set()
        self.heartbeats[slot] = now
        proc = self.ctx.Process(
            target=_cluster_worker_main,
            args=(
                slot,
                os.getpid(),
                self.pipes[slot][0],
                self.result_q,
                self.heartbeats,
                self.heartbeat_interval / 4.0,
            ),
            daemon=True,
        )
        proc.start()
        self.procs[slot] = proc

    def dispatch(self, slot: int, pos: int, unit: WorkUnit) -> int:
        """Send ``unit`` to ``slot`` with the samples it lacks; its seq."""
        seq = self.seq
        self.seq += 1
        self.pipes[slot][1].send((seq, pos, unit, self._samples_for(slot)))
        return seq

    def _samples_for(self, slot: int):
        """``None``, or ``(reset, pairs)``: drop everything first when the
        worker holds a sample the parent has evicted, then take ``pairs``."""
        held = self.held[slot]
        retained = retained_samples()
        reset = not held <= retained.keys()
        if reset:
            held.clear()
        pairs = [(key, arrays) for key, arrays in retained.items() if key not in held]
        if not reset and not pairs:
            return None
        held.update(key for key, _ in pairs)
        return reset, pairs

    def absorb_samples(self, pairs, slot: int | None) -> None:
        """Retain the samples a worker shipped back, and note that the
        worker in ``slot`` holds them (``None``: the sender was replaced).

        A shipped sample of a new group evicted the old one in the worker
        as it does here, so what it holds is what the parent still has.
        """
        for key, arrays in pairs:
            retain_sample(key, arrays)
        if slot is not None and pairs:
            held = self.held[slot]
            held.intersection_update(retained_samples().keys())
            held.update(key for key, _ in pairs)

    def pids(self) -> list[int]:
        return [proc.pid for proc in self.procs if proc is not None]

    def close(self) -> None:
        """Stop every worker and release the pipes."""
        for proc in self.procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
        for proc in self.procs:
            if proc is not None:
                proc.join(timeout=2.0)
                if proc.is_alive():  # pragma: no cover - stuck in kernel
                    proc.kill()
                    proc.join(timeout=2.0)
        self.procs = [None] * len(self.procs)
        for slot in range(len(self.pipes)):
            self._close_pipe(slot)
        self.result_q.close()

    def _close_pipe(self, slot: int) -> None:
        pipe, self.pipes[slot] = self.pipes[slot], None
        if pipe is not None:
            for end in pipe:
                end.close()


#: The process's idle fleet: ``None`` before the first parallel sweep,
#: after :func:`close_workers`, and while a backend has it borrowed.
_FLEET: WorkerFleet | None = None


def _borrow_fleet(workers: int, heartbeat_interval: float) -> WorkerFleet:
    """The idle fleet if it was forked under today's state, else a new one."""
    global _FLEET
    fleet, _FLEET = _FLEET, None
    key = (workers, heartbeat_interval, fork_state())
    if fleet is not None and fleet.key == key:
        return fleet
    if fleet is not None:
        fleet.close()
    return WorkerFleet(workers, heartbeat_interval, key)


def _return_fleet(fleet: WorkerFleet) -> None:
    global _FLEET
    if _FLEET is not None:  # another backend returned one meanwhile
        _FLEET.close()
    _FLEET = fleet


def close_workers() -> None:
    """Close the idle fleet, if any; the next parallel sweep forks anew."""
    global _FLEET
    fleet, _FLEET = _FLEET, None
    if fleet is not None:
        fleet.close()


def worker_pids() -> list[int]:
    """Process ids of the idle fleet's workers (empty without one)."""
    return [] if _FLEET is None else _FLEET.pids()


atexit.register(close_workers)


class ClusterBackend(ExecutorBackend):
    """Parent-assigned units over independent, expendable worker processes."""

    name = "cluster"

    def __init__(
        self,
        workers: int,
        *,
        heartbeat_interval: float | None = None,
        lease_timeout: float | None = None,
        backoff_base: float = 0.05,
        max_attempts: int = 5,
        poll_interval: float = 0.02,
        observer: FabricObserver | None = None,
    ):
        self.workers = max(1, workers)
        self.heartbeat_interval = (
            heartbeat_interval
            if heartbeat_interval is not None
            else heartbeat_interval_from_env()
        )
        #: wall-clock budget per held unit; ``None`` means no budget.
        self.lease_timeout = (
            lease_timeout if lease_timeout is not None else lease_timeout_from_env()
        )
        self.backoff_base = backoff_base
        self.max_attempts = max(1, max_attempts)
        self.poll_interval = poll_interval
        self.observer = observer or FabricObserver()
        #: always-on fabric accounting (tests and reports read this;
        #: the obs counters mirror it only while recording is active).
        self.stats = {
            "retries": 0,
            "lost_workers": 0,
            "duplicates": 0,
            "worker_errors": 0,
            "spawns": 0,
        }
        self._units: list[WorkUnit] = []
        self._fleet: WorkerFleet | None = None
        self._shutdown = False
        self._clean = False  # every unit merged: the fleet may be kept
        # dispatch bookkeeping (all parent-side, all per-run)
        self._first_seq = 0  # fleet seqs below this belong to earlier runs
        self._held: dict[int, tuple[int, int, float]] = {}  # slot -> (seq, pos, t)
        self._ready: deque[int] = deque()  # positions awaiting an idle worker
        self._attempts: dict[int, int] = {}  # pos -> dispatch count
        self._redispatch: list[tuple[float, int]] = []  # (due, pos) heap
        self._done: set[int] = set()

    # -- protocol ---------------------------------------------------------------
    def submit(self, units: Sequence[WorkUnit]) -> None:
        self._units = list(units)
        self.workers = min(self.workers, max(1, len(self._units)))

    def as_completed(self) -> Iterator[UnitResult]:
        if not self._units:
            return
        # numpy 2 imports numpy.random lazily, at ~10 ms of CPU: load it
        # before the first fork so every worker inherits it.
        import numpy.random  # noqa: F401

        fleet = self._fleet = _borrow_fleet(self.workers, self.heartbeat_interval)
        self._first_seq = fleet.seq
        now = clock.monotonic()
        for slot, proc in enumerate(fleet.procs):
            if proc is None or not proc.is_alive():
                self._spawn(slot, now)
        self.observer.workers_changed(self.workers, self.workers)
        self._attempts = dict.fromkeys(range(len(self._units)), 1)
        self._ready.extend(range(len(self._units)))

        busy = 0.0
        started = now
        while len(self._done) < len(self._units):
            now = clock.monotonic()
            self._reap_lost_workers(now)
            if self.lease_timeout is not None:
                self._expire_leases(now)
            self._flush_redispatch(now)
            self._assign(now)
            message = self._poll_result(self.poll_interval)
            if message is None:
                continue
            kind, slot, seq, pos = message[0], message[1], message[2], message[3]
            if seq < self._first_seq:
                continue  # a straggler's report from an earlier run
            # A report from a worker already declared lost finds its slot
            # re-assigned (or empty); its unit was re-dispatched then.
            held = self._held.get(slot)
            current = held is not None and held[0] == seq
            if kind == "done":
                # Idempotent, so a duplicate's samples fold in harmlessly.
                # Folded before the worker's next dispatch, whose samples
                # must account for what it just retained.
                fleet.absorb_samples(message[6], slot if current else None)
            if current:
                # Hand the freed worker its next unit before the caller
                # spends time on this one's outcome.
                del self._held[slot]
                self._assign(clock.monotonic())
            if kind == "done":
                if pos in self._done:
                    self.stats["duplicates"] += 1
                    continue
                self._done.add(pos)
                busy += payload_busy_seconds(message[5])
                yield UnitResult(pos, message[4], message[5])
            elif current:
                self.stats["worker_errors"] += 1
                self._retry_or_fail(pos, detail=message[4])
        self._clean = True

        if obs.active():
            wall = clock.monotonic() - started
            if wall > 0:
                obs.REGISTRY.set_gauge(
                    "runner.worker-utilization",
                    min(1.0, busy / (self.workers * wall)),
                )

    def shutdown(self) -> None:
        """Hand the fleet back after a clean run; close it after any other.

        A crash, a consumer exception or an interrupt may leave workers
        mid-unit or the shared channel half-read, so those runs never
        pass their workers on.
        """
        if self._shutdown:
            return
        self._shutdown = True
        fleet, self._fleet = self._fleet, None
        if fleet is not None:
            if self._clean:
                _return_fleet(fleet)
            else:
                fleet.close()
        self.observer.workers_changed(0, self.workers)

    # -- worker lifecycle -------------------------------------------------------
    def _spawn(self, slot: int, now: float) -> None:
        self._fleet.spawn(slot, now)
        self.stats["spawns"] += 1
        if obs.active():
            obs.REGISTRY.add("runner.spawns")

    def _reap_lost_workers(self, now: float) -> None:
        """Declare dead/stale workers lost; re-dispatch their units fast."""
        fleet = self._fleet
        max_age = 0.0
        for slot, proc in enumerate(fleet.procs):
            age = now - fleet.heartbeats[slot]
            max_age = max(max_age, age)
            if proc.is_alive() and age <= 2.0 * self.heartbeat_interval:
                continue
            self._lose_worker(slot, age, now)
        self.observer.heartbeat_age(max_age)

    def _lose_worker(self, slot: int, heartbeat_age: float, now: float) -> None:
        procs = self._fleet.procs
        proc = procs[slot]
        self.stats["lost_workers"] += 1
        self.observer.worker_lost(slot, heartbeat_age)
        if proc.is_alive():  # stale heartbeat on a live process: put it down
            proc.kill()
        proc.join(timeout=2.0)
        self.observer.workers_changed(
            sum(1 for p in procs if p.is_alive()), self.workers
        )
        held = self._held.pop(slot, None)
        if held is not None and held[1] not in self._done:
            pos = held[1]
            self.observer.unit_reclaimed(self._units[pos], slot, heartbeat_age)
            self._retry_or_fail(pos, heartbeat_age=heartbeat_age)
        self._spawn(slot, now)
        self.observer.workers_changed(
            sum(1 for p in procs if p.is_alive()), self.workers
        )

    # -- dispatch / retry -------------------------------------------------------
    def _assign(self, now: float) -> None:
        """Send the next ready unit to every idle worker."""
        for slot in range(self.workers):
            if slot in self._held:
                continue
            while self._ready and self._ready[0] in self._done:
                self._ready.popleft()
            if not self._ready:
                return
            pos = self._ready.popleft()
            seq = self._fleet.dispatch(slot, pos, self._units[pos])
            self._held[slot] = (seq, pos, now)

    def _expire_leases(self, now: float) -> None:
        """Put down every worker holding one unit past the lease.

        A heartbeating worker that overstays is presumed hung; it is
        lost like any other, which re-dispatches the unit it held.
        """
        for slot, (_, pos, since) in list(self._held.items()):
            if now - since > self.lease_timeout:
                self.observer.lease_expired(self._units[pos], slot)
                self._lose_worker(slot, now - self._fleet.heartbeats[slot], now)

    def _retry_or_fail(
        self,
        pos: int,
        *,
        detail: str = "",
        heartbeat_age: float | None = None,
    ) -> None:
        attempts = self._attempts[pos]
        if attempts >= self.max_attempts:
            unit = self._units[pos]
            detail = detail or "worker lost (killed, hung or unreachable)"
            postmortem = None
            journal = active_journal()
            if journal is not None:
                # Stamp the give-up first so the bundle's reference time
                # is the moment the conductor acted, then assemble the
                # forensics from the durable record and dump them next
                # to the journal.
                key = unit_key(unit)
                journal.emit("crash", key=key, attempts=attempts, detail=detail)
                postmortem = assemble_postmortem(str(journal.path), key)
                path = write_postmortem(postmortem, journal.path.parent)
                detail += "\n" + describe_postmortem(postmortem, path)
                if heartbeat_age is None:
                    heartbeat_age = postmortem.get("last_heartbeat_age")
            raise WorkerCrashError(
                unit,
                attempts=attempts,
                heartbeat_age=heartbeat_age,
                detail=detail,
                postmortem=postmortem,
            )
        self._attempts[pos] = attempts + 1
        self.stats["retries"] += 1
        self.observer.unit_retried(self._units[pos], attempts + 1)
        backoff = min(self.backoff_base * (2.0 ** (attempts - 1)), BACKOFF_CAP)
        heapq.heappush(self._redispatch, (clock.monotonic() + backoff, pos))

    def _flush_redispatch(self, now: float) -> None:
        while self._redispatch and self._redispatch[0][0] <= now:
            _, pos = heapq.heappop(self._redispatch)
            if pos not in self._done:
                self._ready.append(pos)

    # -- result intake ----------------------------------------------------------
    def _poll_result(self, timeout: float):
        """One message from the result channel, or ``None`` after ``timeout``.

        ``SimpleQueue`` has no timed ``get``; its reader connection does.
        """
        result_q = self._fleet.result_q
        reader = getattr(result_q, "_reader", None)
        if reader is not None:
            if not reader.poll(timeout):
                return None
        elif result_q.empty():  # pragma: no cover - exotic platforms
            time.sleep(timeout)
            return None
        return result_q.get()
