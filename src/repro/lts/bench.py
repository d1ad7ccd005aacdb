"""Exploration benchmark harness.

One entry point, :func:`bench_explore`, runs the same transition system
through the exploration backends — the reference serial explorer, the
fast engine (tuple-keyed and packed), and the partitioned backend — and
cross-checks that every path reports identical state, transition and
deadlock counts before any throughput number is reported. A benchmark
that silently explores a different LTS is worse than no benchmark.

The resulting report is a plain dict so the CLI can dump it as
``BENCH_explore.json``:

``system``
    states / transitions / deadlocks (identical across backends).
``backends``
    per-backend ``seconds``, ``states_per_second``, ``max_frontier``
    (serial paths), and for the distributed backend the transport,
    the worker-pool ``spawn_s`` (a fixed per-run cost excluded from
    ``states_per_second``) and the partition balance
    (``per_worker_states``, ``per_worker_batches``, ``imbalance``,
    ``batches``).
``speedup``
    each backend's throughput relative to the serial reference.
``phases``
    per-phase seconds (successor generation / dedup / transport) from
    one extra instrumented engine pass — the timed runs themselves stay
    un-instrumented.
``phases_distributed``
    the same breakdown from one instrumented distributed pass, whose
    ``transport_s`` is the shm data-plane cost (ring writes/reads plus
    control-plane handling).
``metrics``
    the metrics snapshot of that pass, plus the distributed backend's
    recovery counters (worker deaths, re-dispatched batches) when it
    ran.
``backends.<name>.max_rss_bytes`` / ``backends.<name>.mem``
    memory telemetry from the instrumented passes (serial, engine and
    the distributed coordinator): the RSS high-watermark, the bounded
    watermark series, per-structure byte notes and the count of
    ``mem_pressure`` events. The passes share one process and run in
    order, so each backend's watermark is its *observed* ceiling in
    that context — exactly what :func:`rss_gate` regresses against, not
    an isolated-process measurement.
``reduction``
    present when a reduction certificate was supplied: unreduced vs
    reduced visited counts, the reduction ``factor``, the same sweep
    with the certified field slice disabled
    (``states_canonical_only``/``factor_canonical_only`` — what the
    cone-of-influence projection buys over canonical+ample alone), and
    the canonicalization/pruning/slice counters of one reduced sweep.
"""

from __future__ import annotations

import cProfile
import io
import os
import pstats
import sys

from repro.errors import ExplorationLimitError
from repro.lts.distributed import distributed_explore
from repro.lts.engine import explore_fast
from repro.lts.explore import ExplorationStats, TransitionSystem, explore
from repro.obs import (
    Instrumentation,
    MemWatch,
    MetricsRegistry,
    Tracer,
    phase_breakdown,
)

#: backends in report order
BACKENDS = ("serial", "engine", "engine-packed", "distributed")

#: states explored by the untimed distributed warm-up pass
_WARMUP_STATES = 4096


def machine_workers() -> int:
    """Distributed worker count sized to this machine.

    The CPUs actually available to the process (the affinity mask under
    cgroup/container limits, not the host count). On a single-CPU box
    this is 1 — the partitioned sweep then runs as one pipelined worker
    plus a control-plane coordinator, which is the only shape that can
    match serial throughput without parallel hardware.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


class BenchMismatchError(AssertionError):
    """Backends disagreed on the explored system — timings are void."""


def _deadlocks(lts) -> int:
    return len(lts.deadlock_states())


def bench_explore(
    system: TransitionSystem,
    *,
    backends: tuple[str, ...] = BACKENDS,
    n_workers: int | None = None,
    repeats: int = 1,
    profile: bool = False,
    faults=None,
    batch_size: int | None = None,
    certificate=None,
) -> dict:
    """Benchmark exploration backends on ``system`` and cross-check them.

    Parameters
    ----------
    backends:
        Subset of :data:`BACKENDS` to run (``"serial"`` is always run —
        it is the correctness reference and the speedup denominator).
    n_workers:
        Partition count for the distributed backend; default
        :func:`machine_workers` (the process's CPU affinity count).
    repeats:
        Timed runs per backend; the best (minimum-time) run is
        reported, the standard guard against scheduler noise.
    profile:
        Additionally run the engine under :mod:`cProfile` and include
        the top functions by cumulative time in the report.
    faults:
        Optional :class:`~repro.lts.faults.FaultPlan` injected into the
        distributed backend's workers. The cross-check then doubles as
        a recovery test: a crashed worker's sweep must still report the
        serial reference counts exactly.
    batch_size:
        Initial distributed expansion quantum in states (default 256;
        the adaptive controller resizes later quanta).
    certificate:
        Optional :class:`~repro.staticcheck.certificates.ReductionCertificate`.
        When given, every backend sweeps the certificate-validated
        reduced view (:class:`~repro.lts.certreduce.ReducedSystem`) —
        the cross-check then covers the reduced system — and the
        report gains a ``reduction`` block comparing one unreduced
        engine pass against the reduced sweep (``factor`` is the
        visited-state ratio).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if n_workers is None:
        n_workers = machine_workers()
    base_system = system
    if certificate is not None:
        from repro.lts.certreduce import ReducedSystem

        system = ReducedSystem(base_system, certificate)
    report: dict = {"backends": {}, "speedup": {}}

    # build the per-round run list; rounds interleave the backends so
    # background load perturbs all of them equally, and the best
    # (minimum-time) round per backend is reported
    runs = [("serial", lambda s: explore(system, stats=s))]
    if "engine" in backends:
        runs.append(("engine", lambda s: explore_fast(system, stats=s)))
    if "engine-packed" in backends and getattr(system, "codec", None):
        runs.append(
            ("engine-packed",
             lambda s: explore_fast(system, stats=s, packed=True))
        )
    best: dict = {}
    results: dict = {}
    best_dist = None
    if "distributed" in backends:
        # one bounded, untimed warm-up sweep: the first distributed run
        # in a process pays one-off costs (shm segment machinery,
        # allocator and bytecode warm-up in the freshly forked workers)
        # that would otherwise land entirely on the first timed round
        try:
            distributed_explore(
                system, n_workers=n_workers, backend="process",
                batch_size=batch_size, max_states=_WARMUP_STATES,
            )
        except ExplorationLimitError:
            pass
    for _ in range(repeats):
        for name, run in runs:
            st = ExplorationStats()
            lts = run(st)
            if name not in best or st.seconds < best[name].seconds:
                best[name], results[name] = st, lts
        if "distributed" in backends:
            _lts, dstats = distributed_explore(
                system, n_workers=n_workers, backend="process",
                faults=faults, batch_size=batch_size,
            )
            # rank rounds by sweep time alone — worker spawn is a
            # per-run fixed cost reported separately (spawn_s)
            if best_dist is None or (
                dstats.seconds - dstats.spawn_s
                < best_dist.seconds - best_dist.spawn_s
            ):
                best_dist = dstats

    ref = results["serial"]
    counts = (ref.n_states, ref.n_transitions, _deadlocks(ref))
    report["system"] = {
        "states": counts[0],
        "transitions": counts[1],
        "deadlocks": counts[2],
    }

    def _check(name, states, transitions, deadlocks):
        if (states, transitions, deadlocks) != counts:
            raise BenchMismatchError(
                f"backend {name!r} explored ({states}, {transitions}, "
                f"{deadlocks}); serial reference found {counts}"
            )

    for name, _run in runs:
        st, lts = best[name], results[name]
        _check(name, lts.n_states, lts.n_transitions, _deadlocks(lts))
        report["backends"][name] = {
            "seconds": st.seconds,
            "states_per_second": st.states_per_second(),
            "max_frontier": st.max_frontier,
        }
    serial_sps = report["backends"]["serial"]["states_per_second"]

    if best_dist is not None:
        _check("distributed", best_dist.states, best_dist.transitions,
               best_dist.deadlocks)
        sweep_s = best_dist.seconds - best_dist.spawn_s
        report["backends"]["distributed"] = {
            "seconds": best_dist.seconds,
            # throughput over the sweep alone: spawning the worker pool
            # is a fixed per-run cost (reported as spawn_s), and folding
            # it into the rate dooms any small-config comparison
            "states_per_second": (
                best_dist.states / sweep_s if sweep_s > 0 else 0.0
            ),
            "spawn_s": best_dist.spawn_s,
            "transport": best_dist.transport,
            "n_workers": n_workers,
            "per_worker_states": best_dist.per_worker_states,
            "per_worker_batches": best_dist.per_worker_batches,
            "imbalance": best_dist.imbalance(),
            "batches": best_dist.batches,
            "worker_deaths": best_dist.worker_deaths,
            "redispatched_batches": best_dist.redispatched_batches,
            "recovered": best_dist.recovered,
        }

    for name, row in report["backends"].items():
        report["speedup"][name] = (
            row["states_per_second"] / serial_sps if serial_sps else 0.0
        )

    if certificate is not None:
        from repro.lts.certreduce import ReducedSystem

        # one unreduced reference pass + one clean reduced pass (the
        # timed wrapper's counters accumulated across repeats) so the
        # reported factor and counters describe a single sweep each
        unreduced = explore_fast(base_system)
        hits0 = (
            system.canonical_hits, system.ample_prunes, system.slice_hits
        )
        reduced = explore_fast(system)
        # same reduction minus the slice, to isolate what the certified
        # cone-of-influence projection buys over canonical+ample alone
        unsliced_system = ReducedSystem(
            base_system, certificate, slice_fields=(), _validated=True
        )
        unsliced = explore_fast(unsliced_system)
        report["reduction"] = {
            "unreduced_states": unreduced.n_states,
            "unreduced_transitions": unreduced.n_transitions,
            "states": reduced.n_states,
            "transitions": reduced.n_transitions,
            "factor": (
                unreduced.n_states / reduced.n_states
                if reduced.n_states else 0.0
            ),
            "states_canonical_only": unsliced.n_states,
            "factor_canonical_only": (
                unreduced.n_states / unsliced.n_states
                if unsliced.n_states else 0.0
            ),
            "canonical_hits": system.canonical_hits - hits0[0],
            "ample_prunes": system.ample_prunes - hits0[1],
            "slice_hits": system.slice_hits - hits0[2],
        }

    def _recorded(name: str, run):
        # one extra instrumented pass per backend feeds the phase
        # breakdown, metrics snapshot and memory watermarks — never the
        # timed runs above, so the throughput numbers stay
        # un-instrumented
        registry, tracer = MetricsRegistry(), Tracer()
        mw = MemWatch(metrics=registry)
        with Instrumentation(metrics=registry, tracer=tracer,
                             memwatch=mw) as inst:
            run(inst)
        row = report["backends"].get(name)
        if row is not None:
            row["max_rss_bytes"] = mw.max_rss_bytes
            row["mem"] = mw.summary()
        return phase_breakdown(tracer.events()), registry

    engine_name = next(
        (n for n in ("engine", "engine-packed") if n in report["backends"]),
        "engine",
    )
    report["phases"], registry = _recorded(
        engine_name, lambda inst: explore_fast(system, obs=inst)
    )
    # the serial reference is the out-of-core tier's memory baseline
    _recorded("serial", lambda inst: explore(system, obs=inst))
    if best_dist is not None:
        # the data-plane share of the sweep and the coordinator's
        # memory watermark
        report["phases_distributed"], _ = _recorded(
            "distributed", lambda inst: distributed_explore(
                system, n_workers=n_workers, backend="process",
                batch_size=batch_size, obs=inst,
            )
        )
    metrics = registry.snapshot()
    if best_dist is not None:
        metrics["repro_dist_worker_deaths_total"] = best_dist.worker_deaths
        metrics["repro_dist_redispatched_batches_total"] = (
            best_dist.redispatched_batches
        )
        metrics["repro_dist_recovered"] = int(best_dist.recovered)
    report["metrics"] = metrics

    if profile:
        prof = cProfile.Profile()
        prof.enable()
        explore_fast(system)
        prof.disable()
        buf = io.StringIO()
        pstats.Stats(prof, stream=buf).sort_stats("cumulative").print_stats(15)
        report["profile"] = buf.getvalue()

    report["environment"] = {
        "python": sys.version.split()[0],
        "platform": sys.platform,
    }
    return report


def rss_gate(report: dict, max_rss_bytes: int) -> list[str]:
    """Backends whose observed RSS watermark exceeds ``max_rss_bytes``.

    The memory analogue of the overhead gate: a refactor that keeps
    throughput flat while doubling the visited set's footprint should
    fail the benchmark, not slip through. Returns the offending backend
    names (empty means the gate passes); backends without memory
    telemetry are skipped, not failed.
    """
    if max_rss_bytes <= 0:
        raise ValueError("max_rss_bytes must be positive")
    over = []
    for name, row in report.get("backends", {}).items():
        rss = row.get("max_rss_bytes")
        if rss is not None and rss > max_rss_bytes:
            over.append(name)
    return over


def format_bench(report: dict) -> str:
    """Render a :func:`bench_explore` report as an aligned text table."""
    sysrow = report["system"]
    lines = [
        f"system: {sysrow['states']} states, {sysrow['transitions']} "
        f"transitions, {sysrow['deadlocks']} deadlocks",
        f"{'backend':<15} {'seconds':>9} {'states/s':>12} {'speedup':>9}",
    ]
    for name, row in report["backends"].items():
        lines.append(
            f"{name:<15} {row['seconds']:>9.3f} "
            f"{row['states_per_second']:>12.0f} "
            f"{report['speedup'][name]:>8.2f}x"
        )
    red = report.get("reduction")
    if red:
        lines.append(
            f"reduction: {red['unreduced_states']} -> {red['states']} "
            f"states (factor {red['factor']:.2f}x, "
            f"canonical_hits={red['canonical_hits']}, "
            f"ample_prunes={red['ample_prunes']}, "
            f"slice_hits={red.get('slice_hits', 0)})"
        )
        if "states_canonical_only" in red:
            lines.append(
                f"  without slice: {red['states_canonical_only']} states "
                f"(factor {red['factor_canonical_only']:.2f}x) — slicing "
                f"saves {red['states_canonical_only'] - red['states']} "
                "states"
            )
    dist = report["backends"].get("distributed")
    if dist:
        lines.append(
            f"distributed transport: {dist.get('transport', 'shm')} "
            f"workers={dist.get('n_workers', '?')} "
            f"spawn_s={dist.get('spawn_s', 0.0):.3f} "
            "(excluded from states/s)"
        )
        lines.append(
            f"distributed balance: imbalance={dist['imbalance']:.3f} "
            f"states/worker={dist['per_worker_states']} "
            f"batches/worker={dist['per_worker_batches']}"
        )
        dp = report.get("phases_distributed")
        if dp:
            lines.append(
                f"distributed transport seconds: {dp['transport_s']:.3f}s"
            )
        if dist.get("worker_deaths"):
            lines.append(
                f"distributed recovery: "
                f"worker_deaths={dist['worker_deaths']} "
                f"redispatched_batches={dist['redispatched_batches']} "
                f"recovered={dist['recovered']}"
            )
    mem_rows = [
        (name, row["max_rss_bytes"], row.get("mem", {}))
        for name, row in report["backends"].items()
        if row.get("max_rss_bytes") is not None
    ]
    if mem_rows:
        lines.append(
            "memory (RSS watermark): "
            + "  ".join(
                f"{name}={rss / (1024 * 1024):.1f}MiB"
                + (
                    f" (pressure={mem.get('pressure_events')})"
                    if mem.get("pressure_events")
                    else ""
                )
                for name, rss, mem in mem_rows
            )
        )
    return "\n".join(lines)
