"""Bounded, multi-tenant priority queue feeding the job runner.

Admission control is the backpressure half of the service contract: a full
queue refuses new work *at submission time* with :class:`QueueFull` — the
HTTP layer turns that into ``429 Too Many Requests`` plus a
``Retry-After`` estimate — instead of accepting unbounded work and melting
down later.  ``max_per_client`` additionally caps any single tenant's
queued jobs so one noisy client cannot monopolize the backlog.

Scheduling order is ``(priority, submission seq)``: lower priority numbers
run sooner, ties run first-come-first-served.  The retry estimate is the
backlog depth times an exponential moving average of recent job durations
(the runner feeds completions back via :meth:`note_duration`), clamped to
at least one second.
"""

from __future__ import annotations

import heapq
import threading

from repro.errors import ReproError
from repro.serve.store import Job


class QueueFull(ReproError):
    """Submission refused by backpressure; carries the retry estimate."""

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class JobQueue:
    """Thread-safe bounded priority queue of :class:`Job` objects."""

    def __init__(
        self,
        limit: int = 16,
        max_per_client: int = 0,
        initial_job_s: float = 30.0,
    ) -> None:
        if limit < 1:
            raise ValueError(f"queue limit must be >= 1, got {limit}")
        self.limit = limit
        self.max_per_client = max_per_client  #: 0 = no per-client cap
        self._cond = threading.Condition()
        self._heap: list[tuple[int, int, str]] = []  # (priority, seq, id)
        self._jobs: dict[str, Job] = {}
        self._avg_job_s = initial_job_s

    def __len__(self) -> int:
        with self._cond:
            return len(self._jobs)

    # -- backpressure ----------------------------------------------------------
    def retry_after_s(self) -> float:
        """Seconds a refused client should wait before resubmitting."""
        with self._cond:
            return max(1.0, round(len(self._jobs) * self._avg_job_s, 1))

    def ensure_capacity(self, client: str) -> None:
        """Raise :class:`QueueFull` if a submission by ``client`` must wait.

        Checked *before* the job record is persisted, so a refused job
        leaves no trace.  The check and the later :meth:`push` are not one
        atomic step — concurrent submitters can overshoot the limit by at
        most the number of in-flight HTTP threads, which is the usual
        bounded-queue tolerance.
        """
        with self._cond:
            if len(self._jobs) >= self.limit:
                raise QueueFull(
                    f"queue is full ({len(self._jobs)}/{self.limit} jobs)",
                    self.retry_after_s(),
                )
            if self.max_per_client:
                mine = sum(
                    1 for j in self._jobs.values() if j.client == client
                )
                if mine >= self.max_per_client:
                    raise QueueFull(
                        f"client {client!r} already has {mine} queued job(s) "
                        f"(per-client cap {self.max_per_client})",
                        self.retry_after_s(),
                    )

    def note_duration(self, seconds: float) -> None:
        """Fold one completed job's wall time into the retry estimate."""
        with self._cond:
            self._avg_job_s = 0.7 * self._avg_job_s + 0.3 * max(seconds, 0.0)

    # -- queue operations ------------------------------------------------------
    def push(self, job: Job, force: bool = False) -> None:
        """Enqueue ``job``; ``force`` bypasses capacity (recovery, requeues).

        Recovered and requeued jobs were already admitted once — dropping
        them at restart because fresh traffic filled the queue would turn
        a crash into data loss, so they always fit.
        """
        with self._cond:
            if not force and len(self._jobs) >= self.limit:
                raise QueueFull(
                    f"queue is full ({len(self._jobs)}/{self.limit} jobs)",
                    self.retry_after_s(),
                )
            if job.id in self._jobs:
                return  # idempotent re-push
            self._jobs[job.id] = job
            heapq.heappush(self._heap, (job.priority, job.seq, job.id))
            self._cond.notify()

    def pop(self, timeout: float | None = None) -> Job | None:
        """Dequeue the best job, waiting up to ``timeout`` for one."""
        with self._cond:
            job = self._pop_locked()
            if job is not None or timeout is None:
                return job
            self._cond.wait(timeout)
            return self._pop_locked()

    def _pop_locked(self) -> Job | None:
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            job = self._jobs.pop(job_id, None)
            if job is not None:  # stale entries = jobs removed (cancelled)
                return job
        return None

    def remove(self, job_id: str) -> Job | None:
        """Withdraw a queued job (cancellation); ``None`` if already gone.

        Lazy deletion: the heap entry stays behind and is skipped by
        :meth:`pop` — cheaper than re-heapifying, and correct because
        ``_jobs`` is the membership authority.
        """
        with self._cond:
            return self._jobs.pop(job_id, None)
