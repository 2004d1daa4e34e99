"""Job bookkeeping for the mining service daemon.

A :class:`Job` is one submitted :class:`~repro.core.request.MiningRequest`
moving through ``queued → running → done | failed``; the
:class:`JobStore` hands out deterministic ids (``job-000001``, ...) and
bounds its own memory by pruning the oldest *finished* jobs once the
store exceeds ``max_jobs``.  In-flight jobs are never pruned.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.request import MiningRequest
from repro.exceptions import ParameterError

__all__ = ["Job", "JobStore"]

#: The job lifecycle, in order.
JOB_STATES = ("queued", "running", "done", "failed")


@dataclass
class Job:
    """One submitted mining job and everything it produced."""

    id: str
    request: MiningRequest
    status: str = "queued"
    cache: Optional[str] = None
    seconds: Optional[float] = None
    patterns_found: Optional[int] = None
    error: Optional[str] = None
    patterns_tsv: Optional[str] = None

    def as_status(self) -> Dict[str, object]:
        """The ``GET /jobs/{id}`` body."""
        return {
            "id": self.id,
            "status": self.status,
            "cache": self.cache,
            "seconds": self.seconds,
            "patterns_found": self.patterns_found,
            "error": self.error,
        }

    def as_result(self) -> Dict[str, object]:
        """The ``GET /jobs/{id}/result`` body (job must be done)."""
        return {
            "id": self.id,
            "status": self.status,
            "cache": self.cache,
            "seconds": self.seconds,
            "patterns_found": self.patterns_found,
            "patterns_tsv": self.patterns_tsv,
        }


class JobStore:
    """Thread-safe store of every job the daemon has accepted."""

    def __init__(self, max_jobs: int = 1024):
        if isinstance(max_jobs, bool) or not isinstance(
            max_jobs, int
        ) or max_jobs < 1:
            raise ParameterError(
                f"max_jobs must be a positive int, got {max_jobs!r}"
            )
        self.max_jobs = max_jobs
        self._lock = threading.Lock()
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._ids = itertools.count(1)

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def create(self, request: MiningRequest) -> Job:
        """Accept a request: assign an id, prune finished overflow."""
        with self._lock:
            job = Job(id=f"job-{next(self._ids):06d}", request=request)
            self._jobs[job.id] = job
            if len(self._jobs) > self.max_jobs:
                for job_id in list(self._jobs):
                    if len(self._jobs) <= self.max_jobs:
                        break
                    candidate = self._jobs[job_id]
                    if candidate.status in ("done", "failed"):
                        del self._jobs[job_id]
            return job

    def get(self, job_id: str) -> Optional[Job]:
        """The job with ``job_id``, or ``None``."""
        with self._lock:
            return self._jobs.get(job_id)
