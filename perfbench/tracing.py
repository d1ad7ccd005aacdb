"""Spans, timing proxies and /proc memory readers for the benchmark.

Everything here measures the program from outside: spans wrap calls
into its public functions, :class:`TimedSuccessors` wraps the system
handed to a sweep, and :func:`patched` swaps a module attribute for a
timing wrapper for the duration of a traced pipeline. No file of the
program is changed.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager


class Spans:
    """In-memory span log: name, start, end and parent of each span.

    Spans nest by call structure; :meth:`records` is written out once,
    when the traced job ends.
    """

    def __init__(self):
        self._records: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self._records),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.monotonic(),
            "end": None,
            **attrs,
        }
        self._records.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic()
            self._open.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(
            r["end"] - r["start"] for r in self._records if r["name"] == name
        )

    def records(self, origin: float) -> list[dict]:
        """The spans with times in seconds since ``origin``."""
        return [
            {**r, "start": r["start"] - origin, "end": r["end"] - origin}
            for r in self._records
        ]


class TimedSuccessors:
    """A transition system whose successor calls are timed and counted.

    The engine expands whatever ``successors_fast`` the system it is
    handed exposes; this proxy puts a clock around that call and
    forwards every other attribute (``initial_state``, ``codec``,
    ``config``, the reduction counters, ...) to the wrapped system.
    """

    def __init__(self, system):
        self.system = system
        self._succ = getattr(system, "successors_fast", None) or system.successors
        self.calls = 0
        self.moves = 0
        self.seconds = 0.0

    def successors_fast(self, state):
        t = time.perf_counter()
        out = self._succ(state)
        self.seconds += time.perf_counter() - t
        self.calls += 1
        self.moves += len(out)
        return out

    def __getattr__(self, name):
        if name == "system":  # not yet set during construction
            raise AttributeError(name)
        return getattr(self.system, name)


@contextmanager
def patched(module, attr: str, make_wrapper):
    """Replace ``module.attr`` by ``make_wrapper(original)`` in the block."""
    original = getattr(module, attr)
    setattr(module, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def status_kb(pid, field: str) -> int:
    """A ``kB`` field of ``/proc/<pid>/status`` (0 once the process is gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


def rss_mb() -> float:
    """Current resident set of this process, in MiB."""
    return status_kb("self", "VmRSS") / 1024


def hwm_mb() -> float:
    """High-water resident set of this process, in MiB."""
    return status_kb("self", "VmHWM") / 1024


class ChildPeakRss:
    """Samples the ``VmHWM`` of this process's live children.

    Worker processes exit before their parent can read their status, so
    a thread polls ``/proc/self/task/*/children`` while the block runs
    and keeps each child's last high-water mark; the sweep's live set
    only grows until the workers are told to stop, so the last sample
    is their peak.
    """

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.peaks_kb: dict[str, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _children(self) -> list[str]:
        pids: list[str] = []
        for tid in os.listdir("/proc/self/task"):
            try:
                with open(f"/proc/self/task/{tid}/children") as fh:
                    pids.extend(fh.read().split())
            except FileNotFoundError:
                continue
        return pids

    def _sample(self) -> None:
        for pid in self._children():
            kb = status_kb(pid, "VmHWM")
            if kb > self.peaks_kb.get(pid, 0):
                self.peaks_kb[pid] = kb

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "ChildPeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def total_mb(self) -> float:
        return sum(self.peaks_kb.values()) / 1024
