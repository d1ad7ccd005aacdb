"""The sweep lifecycle every explorer reports through.

The serial reference, the engine and both distributed backends keep
their own inner loops; the flight-recorder frame around those loops is
:class:`SweepRecorder` — the ``sweep_start`` / ``wave`` / ``sweep_end``
events, the ``repro_sweep*`` and ``repro_reduce_*`` metrics, the
successor clock and the per-wave memory and progress heartbeats.
:mod:`repro.obs.report` reads the same schema back
(``docs/observability.md`` documents it). Disabled instrumentation
costs the caller one ``if rec.enabled`` branch per wave.
"""

from __future__ import annotations

import time

from repro.obs.core import current

#: cumulative counters of a reducing wrapper
#: (:class:`~repro.lts.certreduce.ReducedSystem`)
_REDUCTION_COUNTERS = ("canonical_hits", "ample_prunes", "slice_hits")


class SweepRecorder:
    """One sweep's flight-recorder frame.

    Resolves the ambient instrumentation when ``obs`` is ``None``,
    snapshots the reduction counters of ``system`` (cumulative on a
    possibly reused wrapper, so the sweep reports its own delta) and,
    when recording, emits ``sweep_start`` with ``start_fields``. Build
    it where the sweep loop begins: the first wave is timed from here.
    """

    __slots__ = ("obs", "enabled", "backend", "succ_s", "_system", "_red0",
                 "_t0", "_wave_t0", "_wave_succ0", "_transitions")

    def __init__(self, backend: str, system=None, obs=None, **start_fields):
        self.obs = obs if obs is not None else current()
        self.enabled = self.obs.enabled
        self.backend = backend
        self.succ_s = 0.0  # seconds inside :meth:`timed` successors
        has_counters = hasattr(system, _REDUCTION_COUNTERS[0])
        self._system = system if has_counters else None
        self._red0 = self._counts()
        self._transitions = 0
        self._wave_succ0 = 0.0
        self._t0 = self._wave_t0 = time.perf_counter()
        if self.enabled:
            self.obs.tracer.emit("sweep_start", backend=backend, **start_fields)

    def _counts(self):
        if self._system is None:
            return None
        return [getattr(self._system, c) for c in _REDUCTION_COUNTERS]

    def timed(self, succ):
        """``succ`` on the successor clock (``succ`` itself when not
        recording). The successors are materialised inside the clock,
        so a generator-based system is charged in full."""
        if not self.enabled:
            return succ
        clock = time.perf_counter

        def timed_succ(state):
            t = clock()
            out = list(succ(state))
            self.succ_s += clock() - t
            return out

        return timed_succ

    def wave(self, depth: int, states: int, frontier: int,
             transitions: int, visited_bytes: int) -> None:
        """Report one finished BFS level; call only when ``enabled``.

        ``states``/``transitions`` are the sweep's totals so far (the
        event carries the level's own transitions), ``frontier`` is the
        next level's size, ``visited_bytes`` the visited index's size.
        """
        obs = self.obs
        now = time.perf_counter()
        wave_s = now - self._wave_t0
        succ_s = self.succ_s - self._wave_succ0
        obs.tracer.emit(
            "wave", depth=depth, states=states, frontier=frontier,
            transitions=transitions - self._transitions,
            wave_s=round(wave_s, 6), succ_s=round(succ_s, 6),
            dedup_s=round(max(wave_s - succ_s, 0.0), 6),
        )
        obs.memwatch.note("visited_index", visited_bytes)
        obs.memwatch.sample()
        elapsed = now - self._t0
        obs.progress.maybe(
            states=states, sps=states / elapsed if elapsed > 0 else 0.0,
            frontier=frontier, depth=depth,
        )
        self._transitions = transitions
        self._wave_succ0 = self.succ_s
        # the heartbeats above are charged to no wave
        self._wave_t0 = time.perf_counter()

    def end(self, outcome: str, stats, visited_bytes: int | None = None,
            **fields) -> None:
        """``sweep_end`` plus the sweep metrics (no-op when not recording).

        ``stats`` supplies ``states``, ``transitions`` and ``seconds``;
        ``fields`` are the backend's own ``sweep_end`` fields.
        """
        if not self.enabled:
            return
        obs = self.obs
        memwatch = obs.memwatch
        if visited_bytes is not None:
            memwatch.note("visited_index", visited_bytes)
        memwatch.sample(force=True)
        red1 = self._counts()
        reduction = None if red1 is None else {
            name: after - before
            for name, after, before in zip(_REDUCTION_COUNTERS, red1, self._red0)
        }
        seconds = round(stats.seconds, 6)
        sps = round(
            stats.states / stats.seconds if stats.seconds > 0 else 0.0, 1
        )
        obs.tracer.emit(
            "sweep_end", backend=self.backend, outcome=outcome,
            states=stats.states, transitions=stats.transitions,
            seconds=seconds, states_per_second=sps, **fields,
            reduction=reduction,
            max_rss_bytes=memwatch.max_rss_bytes,
            mem_pressure_events=memwatch.pressure_events,
        )
        m = obs.metrics
        m.counter("repro_sweeps_total", backend=self.backend,
                  outcome=outcome).inc()
        m.counter("repro_sweep_states_total").inc(stats.states)
        m.counter("repro_sweep_transitions_total").inc(stats.transitions)
        m.gauge("repro_sweep_seconds", backend=self.backend).set(seconds)
        m.gauge("repro_sweep_states_per_second", backend=self.backend).set(sps)
        for name, delta in (reduction or {}).items():
            m.counter(f"repro_reduce_{name}_total").inc(delta)
