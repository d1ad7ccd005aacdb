"""One benchmark job, run by ``run.py`` in a fresh interpreter.

    python3 perfbench/job.py --workload verify-c2 --mode job \\
        --launched <time.monotonic() at launch>

Each job runs in its own process, so its memory high-water mark, CPU
time and set-up time are its own, not inflated by earlier jobs or by
codec memo tables another job warmed. Modes:

``setup``
    only the workload's set-up, then exit (``run.py`` repeats it to
    report a median set-up time);
``job``
    set-up, then the workload's timed call with tracing off;
``trace``
    set-up, then the same work as a pipeline with a span around each
    layer's public call, plus counters at the same boundaries.

The last line on stdout is one JSON object: ``setup_s`` (``setup`` and
``job``), the ``outcome`` that ``run.py`` checks against
``reference.json`` and ``wall_s`` (``job`` and ``trace``),
``peak_rss_mb`` (``job``), and ``layers`` (per-layer metrics) and
``spans`` (``trace``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

from tracing import (
    ChildPeakRss,
    Spans,
    TimedSuccessors,
    hwm_mb,
    patched,
    rss_mb,
)

#: ring size of the flight recorder the traced distributed sweep turns on
_FLIGHT_RECORDER_EVENTS = 1 << 14


def _workers() -> int:
    return min(len(os.sched_getaffinity(0)), 2)


# ---------------------------------------------------------------------------
# the two Table-8-row-2 workloads: verify-c2 and reduced-c2
# ---------------------------------------------------------------------------


def _c2_setup(args, spans: Spans):
    """Imports and the instance; on reduced-c2 also certify + validate."""
    from dataclasses import replace

    from repro.jackal.params import CONFIG_2, ProtocolVariant
    import repro.jackal.requirements  # noqa: F401 - import cost is set-up

    cfg = replace(CONFIG_2, rounds=2)
    variant = ProtocolVariant.fixed()
    cert = None
    if args.workload == "reduced-c2":
        from repro.staticcheck.certificates import validate
        from repro.staticcheck.symmetry import certify

        with spans.span("staticcheck.certify"):
            cert, findings = certify(cfg, variant)
        if cert is None:
            raise RuntimeError(f"certification refused: {findings}")
        with spans.span("staticcheck.validate"):
            refusals = validate(cert, cfg, variant)
        if refusals:
            raise RuntimeError(f"certificate does not validate: {refusals}")
    return cfg, variant, cert


def _c2_outcome(reports) -> dict:
    plain, probe = reports["1"], reports["3.1"]
    return {
        "checks": {k: [r.requirement, r.holds] for k, r in reports.items()},
        "plain": [plain.lts_states, plain.lts_transitions],
        "probe": [probe.lts_states, probe.lts_transitions],
    }


def _c2_job(args, launched: float) -> dict:
    from repro.jackal.requirements import check_all_requirements

    cfg, variant, cert = _c2_setup(args, Spans())
    t0 = time.monotonic()
    reports = check_all_requirements(cfg, variant, certificate=cert)
    t1 = time.monotonic()
    return {
        "setup_s": t0 - launched,
        "wall_s": t1 - t0,
        "peak_rss_mb": hwm_mb(),
        "outcome": _c2_outcome(reports),
    }


def _c2_trace(args, launched: float) -> dict:
    """``check_all_requirements`` rebuilt as build_model -> explore_fast
    -> check_requirement_*(lts=...), so every layer gets its own span."""
    import repro.jackal.requirements as req
    import repro.lts.certreduce as certreduce
    from repro.lts.engine import explore_fast
    from repro.staticcheck.formulasym import licenses_full_quotient

    spans = Spans()
    with spans.span("setup"):
        cfg, variant, cert = _c2_setup(args, spans)
    holds_states: list[int] = []

    def timed_holds(holds):
        def wrapper(lts, formula):
            holds_states.append(lts.n_states)
            with spans.span("mucalc.holds"):
                return holds(lts, formula)
        return wrapper

    def timed_find(find_deadlocks):
        def wrapper(lts, **kw):
            with spans.span("lts.deadlock.find"):
                return find_deadlocks(lts, **kw)
        return wrapper

    unfolded: list[int] = []

    def timed_unfold(unfold):
        def wrapper(system, certificate, **kw):
            with spans.span("lts.certreduce.unfold"):
                out = unfold(system, certificate, **kw)
            unfolded.append(out.n_states)
            return out
        return wrapper

    sweeps = []  # (jackal proxy, reduced proxy or None, rss growth)

    def sweep(probes: bool):
        model = req.build_model(cfg, variant, probes=probes)
        jackal = system = TimedSuccessors(model)
        reduced = None
        if cert is not None:
            # the view build_lts would construct, with a clock on each side
            with spans.span("lts.certreduce.init"):
                reduced = system = TimedSuccessors(
                    certreduce.ReducedSystem(
                        jackal,
                        cert,
                        canonical=probes or licenses_full_quotient(cert),
                    )
                )
        rss0 = rss_mb()
        with spans.span("lts.engine"):
            lts = explore_fast(system, keep_states=not probes)
        sweeps.append((jackal, reduced, rss_mb() - rss0))
        return model, lts

    with patched(req, "holds", timed_holds), \
            patched(req, "find_deadlocks", timed_find), \
            patched(certreduce, "unfold_full_quotient", timed_unfold):
        with spans.span("pipeline"):
            plain_model, plain = sweep(False)
            reports = {}
            with spans.span("req.1"):
                reports["1"] = req.check_requirement_1(
                    cfg, variant, lts=plain, model=plain_model
                )
            with spans.span("req.2"):
                reports["2"] = req.check_requirement_2(cfg, variant, lts=plain)
            _probe_model, probe = sweep(True)
            with spans.span("req.3"):
                reports["3.1"] = req.check_requirement_3_1(
                    cfg, variant, lts=probe
                )
                reports["3.2"] = req.check_requirement_3_2(
                    cfg, variant, lts=probe
                )
            with spans.span("req.4"):
                reports["4"] = req.check_requirement_4(
                    cfg, variant, lts=plain, certificate=cert
                )

    records = spans.records(launched)
    by_id = {r["id"]: r for r in records}

    def holds_under(req_span: str) -> float:
        return sum(
            r["end"] - r["start"]
            for r in records
            if r["name"] == "mucalc.holds"
            and by_id[r["parent"]]["name"] == req_span
        )

    jackal_s = sum(j.seconds for j, _r, _m in sweeps)
    canon_self_s = sum(r.seconds - j.seconds for j, r, _m in sweeps if r)
    engine_s = spans.total("lts.engine")
    wall = spans.total("pipeline")
    layers = {
        "jackal.successor_calls": sum(j.calls for j, _r, _m in sweeps),
        "jackal.transitions": sum(j.moves for j, _r, _m in sweeps),
        "jackal.successors_s": jackal_s,
        "lts.engine.sweep_s": engine_s,
        "lts.engine.self_s": engine_s - jackal_s - canon_self_s,
        "lts.engine.states": plain.n_states + probe.n_states,
        "lts.engine.transitions": plain.n_transitions + probe.n_transitions,
        "lts.engine.rss_delta_mb": sum(m for _j, _r, m in sweeps),
        "mucalc.holds_s": spans.total("mucalc.holds"),
        "mucalc.holds_calls": len(holds_states),
        "mucalc.req3_s": holds_under("req.3"),
        "mucalc.req4_s": holds_under("req.4"),
        "mucalc.state_formula_evals": sum(holds_states),
        "lts.deadlock.find_s": spans.total("lts.deadlock.find"),
        "staticcheck.certify_s": spans.total("staticcheck.certify"),
        "staticcheck.validate_s": spans.total("staticcheck.validate"),
        "trace.wall_s": wall,
    }
    if cert is not None:
        layers.update({
            "lts.certreduce.canonical_hits": sum(
                r.canonical_hits for _j, r, _m in sweeps
            ),
            "lts.certreduce.ample_prunes": sum(
                r.ample_prunes for _j, r, _m in sweeps
            ),
            "lts.certreduce.slice_hits": sum(
                r.slice_hits for _j, r, _m in sweeps
            ),
            "lts.certreduce.canon_self_s": canon_self_s,
            "lts.certreduce.unfold_s": spans.total("lts.certreduce.unfold"),
            "lts.certreduce.unfold_states": sum(unfolded),
            "lts.certreduce.reduced_states": plain.n_states,
        })
    # the engine span holds the jackal and canonicalization self times
    attributed = (
        engine_s
        + layers["mucalc.holds_s"]
        + layers["lts.deadlock.find_s"]
        + spans.total("lts.certreduce.unfold")
        + spans.total("lts.certreduce.init")
    )
    layers["trace.layer_share"] = attributed / wall
    return {
        "wall_s": wall,
        "outcome": _c2_outcome(reports),
        "layers": layers,
        "spans": records,
    }


# ---------------------------------------------------------------------------
# sweep-p4: the distributed sweep of a 4-processor instance
# ---------------------------------------------------------------------------


def _p4_setup():
    from repro.jackal.model import JackalModel
    from repro.jackal.params import Config, ProtocolVariant
    import repro.lts.distributed  # noqa: F401 - import cost is set-up

    cfg = Config(
        threads_per_processor=(1, 1, 1, 1), rounds=1, with_probes=False
    )
    model = JackalModel(cfg, ProtocolVariant.fixed())
    model.codec()
    return model


def _p4_sweep(model, **kw):
    from repro.lts.distributed import distributed_explore

    return distributed_explore(
        model, backend="process", transport="shm", n_workers=_workers(), **kw
    )


def _p4_outcome(stats) -> dict:
    return {
        "states": stats.states,
        "transitions": stats.transitions,
        "terminal_states": stats.deadlocks,
    }


def _p4_setup_only(args, launched: float) -> dict:
    """Set-up including worker spawn and shm ring creation: a sweep
    stopped by a one-state limit right after the workers said hello."""
    from repro.errors import ExplorationLimitError

    model = _p4_setup()
    t0 = time.monotonic()
    try:
        _p4_sweep(model, max_states=1)
    except ExplorationLimitError as exc:
        return {"setup_s": t0 - launched + exc.stats.spawn_s}
    raise RuntimeError("a one-state limit did not stop the sweep")


def _p4_job(args, launched: float) -> dict:
    model = _p4_setup()
    t0 = time.monotonic()
    with ChildPeakRss() as workers:
        _lts, stats = _p4_sweep(model)
    t1 = time.monotonic()
    return {
        "setup_s": t0 - launched + stats.spawn_s,
        "wall_s": t1 - t0 - stats.spawn_s,
        "peak_rss_mb": hwm_mb() + workers.total_mb,
        "outcome": _p4_outcome(stats),
    }


def _p4_trace(args, launched: float) -> dict:
    """The distributed sweep with the program's flight recorder on, then
    one ``explore_fast`` pass over the same instance as the serial
    baseline that speedup and efficiency are measured against."""
    from repro.lts.engine import explore_fast
    from repro.obs.core import Instrumentation
    from repro.obs.tracer import Tracer

    spans = Spans()
    with spans.span("setup"):
        model = _p4_setup()
    recorder = Instrumentation(tracer=Tracer(ring=_FLIGHT_RECORDER_EVENTS))
    with spans.span("pipeline"):
        with spans.span("lts.distributed"):
            _lts, stats = _p4_sweep(model, obs=recorder)
    with spans.span("baseline"):
        jackal = TimedSuccessors(model)
        rss0 = rss_mb()
        with spans.span("lts.engine"):
            base = explore_fast(jackal)
        rss_delta = rss_mb() - rss0
    outcome = _p4_outcome(stats)
    if [base.n_states, base.n_transitions] != [stats.states, stats.transitions]:
        raise RuntimeError(
            f"serial baseline {base.n_states}/{base.n_transitions} disagrees "
            f"with the distributed sweep {stats.states}/{stats.transitions}"
        )
    engine_s = spans.total("lts.engine")
    dist_s = spans.total("lts.distributed") - stats.spawn_s
    speedup = engine_s / dist_s
    n = _workers()
    layers = {
        "jackal.successor_calls": jackal.calls,
        "jackal.transitions": jackal.moves,
        "jackal.successors_s": jackal.seconds,
        "lts.engine.sweep_s": engine_s,
        "lts.engine.self_s": engine_s - jackal.seconds,
        "lts.engine.states": base.n_states,
        "lts.engine.transitions": base.n_transitions,
        "lts.engine.rss_delta_mb": rss_delta,
        "lts.distributed.sweep_s": dist_s,
        "lts.distributed.spawn_s": stats.spawn_s,
        "lts.distributed.workers": n,
        "lts.distributed.batches": stats.batches,
        "lts.distributed.relayed_batches": stats.relayed_batches,
        "lts.distributed.imbalance": stats.imbalance(),
        "lts.distributed.worker_deaths": stats.worker_deaths,
        "lts.distributed.redispatched_batches": stats.redispatched_batches,
        "lts.distributed.worker_succ_s": stats.worker_succ_s,
        "lts.distributed.coord_idle_s": stats.coord_idle_s,
        "lts.distributed.speedup_vs_engine": speedup,
        "lts.distributed.efficiency": speedup / n,
        "trace.wall_s": dist_s,
    }
    return {
        "wall_s": dist_s,
        "outcome": outcome,
        "layers": layers,
        "spans": spans.records(launched),
    }


def _c2_setup_only(args, launched: float) -> dict:
    _c2_setup(args, Spans())
    return {"setup_s": time.monotonic() - launched}


MODES = {
    "verify-c2": {
        "setup": _c2_setup_only,
        "job": _c2_job,
        "trace": _c2_trace,
    },
    "reduced-c2": {
        "setup": _c2_setup_only,
        "job": _c2_job,
        "trace": _c2_trace,
    },
    "sweep-p4": {
        "setup": _p4_setup_only,
        "job": _p4_job,
        "trace": _p4_trace,
    },
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(MODES))
    ap.add_argument("--mode", required=True, choices=("setup", "job", "trace"))
    ap.add_argument("--launched", type=float, required=True)
    args = ap.parse_args(argv)
    try:
        result = MODES[args.workload][args.mode](args, args.launched)
    except Exception as exc:  # reported to run.py as a failed attempt
        traceback.print_exc()
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
