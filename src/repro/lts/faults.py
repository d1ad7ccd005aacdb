"""Fault injection for distributed sweeps.

The paper generated its larger LTSs on an eight-node cluster — an
environment where worker loss is routine. The fault tolerance of the
partitioned backend (:mod:`repro.lts.distributed`) is therefore a
first-class, *testable* property: this module provides the injection
harness that makes worker crashes reproducible on demand.

A :class:`FaultPlan` names, per worker, one of three misbehaviours:

``kill:W@N``
    Worker ``W`` hard-exits (``os._exit``) on the next expansion
    quantum it gathers after having acknowledged ``N`` quanta — the
    gathered but unacknowledged input is lost to it, exactly like a
    machine crash.
``raise:W@N``
    Worker ``W`` raises :class:`FaultInjection` from inside the
    successor function while expanding its ``N``-th quantum (0-based);
    the exception escapes the worker loop and the process dies with a
    nonzero exit code, like any model bug would make it.
``delay:W@SECONDS``
    Worker ``W`` sleeps before expanding every quantum — no crash, but
    the coordinator's timed poll keeps expiring, which exercises the
    liveness-check path without any worker actually being dead.

Plans are wired through ``distributed_explore(faults=...)`` and the
``repro bench --inject-fault`` flag; recovery is observable through
``DistributedStats.worker_deaths`` / ``redispatched_batches`` /
``recovered``. Recovery must reproduce exact serial totals for every
system, with or without a codec (``tests/lts/test_faults.py``,
``tests/lts/test_shm_transport.py``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Hashable

from repro.errors import ReproError


def _count(text: str) -> int:
    """A non-negative quantum count (negatives are parse errors)."""
    n = int(text)
    if n < 0:
        raise ValueError(text)
    return n


def _seconds(text: str) -> float:
    """A non-negative, finite delay — ``time.sleep`` rejects negatives
    inside the worker, which would turn a typo into a fake crash."""
    d = float(text)
    if not (0.0 <= d < float("inf")):  # also rejects NaN
        raise ValueError(text)
    return d


class FaultInjection(RuntimeError):
    """A deliberately injected worker failure.

    Deliberately *not* a :class:`~repro.errors.ReproError`: it stands
    in for an arbitrary crash inside a worker process, so nothing in
    the library is allowed to catch it and carry on.
    """


@dataclass(frozen=True)
class WorkerFault:
    """The faults of one worker (see :class:`FaultPlan` for semantics)."""

    kill_after: int | None = None
    raise_at: int | None = None
    delay: float = 0.0

    def raising_successors(self, wid: int) -> Callable:
        """A successor function that fails immediately (``raise`` mode)."""

        def _raise(_state: Hashable):
            raise FaultInjection(
                f"injected successor fault in worker {wid}"
            )

        return _raise


@dataclass
class FaultPlan:
    """Per-worker fault assignments for one distributed sweep.

    Attributes
    ----------
    kill:
        worker id -> die on the next quantum after this many
        acknowledged quanta.
    raise_in:
        worker id -> raise inside ``successors`` while expanding this
        quantum (0-based count of acknowledged quanta).
    delay:
        worker id -> seconds slept before expanding every quantum.
    """

    kill: dict[int, int] = field(default_factory=dict)
    raise_in: dict[int, int] = field(default_factory=dict)
    delay: dict[int, float] = field(default_factory=dict)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a comma-separated CLI spec, e.g. ``"kill:0@2,delay:1@0.05"``.

        Each clause is ``kind:worker@arg`` with ``kind`` one of
        ``kill``, ``raise``, ``delay``. Raises
        :class:`~repro.errors.ReproError` on malformed input so the
        CLI reports it as a parameter error (exit code 2).
        """
        plan = cls()
        for clause in filter(None, (c.strip() for c in spec.split(","))):
            try:
                kind, _, rest = clause.partition(":")
                wid_text, _, arg = rest.partition("@")
                wid = int(wid_text)
                if wid < 0:
                    raise ValueError(wid)
                if kind == "kill":
                    plan.kill[wid] = _count(arg)
                elif kind == "raise":
                    plan.raise_in[wid] = _count(arg)
                elif kind == "delay":
                    plan.delay[wid] = _seconds(arg)
                else:
                    raise ValueError(kind)
            except ValueError as exc:
                raise ReproError(
                    f"bad fault spec {clause!r}: expected kill:W@N, "
                    f"raise:W@N or delay:W@SECONDS"
                ) from exc
        return plan

    def for_worker(self, wid: int) -> WorkerFault | None:
        """The merged fault of worker ``wid`` (``None`` when unaffected)."""
        if (
            wid not in self.kill
            and wid not in self.raise_in
            and wid not in self.delay
        ):
            return None
        return WorkerFault(
            kill_after=self.kill.get(wid),
            raise_at=self.raise_in.get(wid),
            delay=self.delay.get(wid, 0.0),
        )


def crash_process(outbox) -> None:
    """Hard-exit the current worker process (``kill`` mode).

    Messages already handed to ``outbox`` are flushed first: a real
    crash loses whole messages, not message fragments, and a torn
    frame would desynchronise the coordinator's queue rather than
    simulate a worker death.
    """
    try:
        outbox.close()
        outbox.join_thread()
    except (OSError, ValueError, AttributeError):  # pragma: no cover
        pass
    os._exit(1)
