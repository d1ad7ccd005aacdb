"""Render a flight-recorder trace into a human-readable timeline.

The consumer side of :mod:`repro.obs.tracer`: ``repro report
trace.jsonl`` loads the JSONL events back and prints, per sweep, the
depth waves, the per-phase timing breakdown (successor generation vs
dedup vs transport), the distributed worker timeline (deaths,
re-dispatches, fault injections), and the mu-calculus fixpoint
and requirement-check summaries.

``repro report`` also accepts a ``--trace-dir`` directory (or several
files): the per-process streams are merged into one causal timeline
(:mod:`repro.obs.merge`) and each sweep additionally renders
**per-worker lanes** — one row per worker stream with its quantum
count, busy/idle split and utilization — plus the **pickup-to-ack
batch latency** distribution across the control plane, the two numbers
multi-worker scaling work on real hardware is diagnosed with.

:func:`phase_breakdown` is also used directly by the bench harness to
embed the same breakdown into ``BENCH_explore.json``.
"""

from __future__ import annotations

from repro.obs.tracer import read_trace

#: maximum depth-wave rows rendered before eliding the middle
_MAX_WAVE_ROWS = 40


def phase_breakdown(events: list[dict]) -> dict:
    """Aggregate per-phase seconds over every sweep in ``events``.

    Serial/engine sweeps contribute through their ``wave`` events
    (``succ_s`` / ``dedup_s``); distributed sweeps through the
    worker/coordinator totals on ``sweep_end``. ``other_s`` is the
    unattributed remainder of the sweeps' wall time.
    """
    succ = dedup = transport = total = 0.0
    for e in events:
        ev = e.get("ev")
        if ev == "wave":
            succ += e.get("succ_s", 0.0)
            dedup += e.get("dedup_s", 0.0)
        elif ev == "sweep_end":
            total += e.get("seconds", 0.0)
            ws = e.get("worker_succ_s", 0.0)
            succ += ws
            dedup += max(e.get("worker_expand_s", 0.0) - ws, 0.0)
            # ring writes/reads (workers) + the control-plane handling
            transport += (
                e.get("coord_handle_s", 0.0)
                + e.get("ring_put_s", 0.0)
                + e.get("ring_get_s", 0.0)
            )
    return {
        "successors_s": round(succ, 6),
        "dedup_s": round(dedup, 6),
        "transport_s": round(transport, 6),
        "other_s": round(max(total - succ - dedup - transport, 0.0), 6),
        "total_s": round(total, 6),
    }


def _pct(part: float, total: float) -> str:
    return f"{100.0 * part / total:.1f}%" if total > 0 else "-"


def _fmt_phase_line(phases: dict) -> str:
    total = phases["total_s"]
    parts = [
        f"successors {_pct(phases['successors_s'], total)} "
        f"({phases['successors_s']:.3f} s)",
        f"dedup {_pct(phases['dedup_s'], total)} "
        f"({phases['dedup_s']:.3f} s)",
        f"transport {_pct(phases['transport_s'], total)} "
        f"({phases['transport_s']:.3f} s)",
        f"other {_pct(phases['other_s'], total)}",
    ]
    return "phase breakdown: " + " | ".join(parts)


def _split_sweeps(events: list[dict]):
    """``(sweep_event_lists, leftovers)`` — sweeps delimited by
    sweep_start/sweep_end, everything outside any sweep in leftovers."""
    sweeps: list[list[dict]] = []
    leftovers: list[dict] = []
    cur: list[dict] | None = None
    for e in events:
        ev = e.get("ev")
        if ev == "sweep_start":
            if cur is not None:
                sweeps.append(cur)  # unterminated (crashed) sweep
            cur = [e]
        elif cur is not None:
            cur.append(e)
            if ev == "sweep_end":
                sweeps.append(cur)
                cur = None
        else:
            leftovers.append(e)
    if cur is not None:
        sweeps.append(cur)
    return sweeps, leftovers


def _wave_table(waves: list[dict]) -> list[str]:
    timed = any("succ_s" in w for w in waves)
    header = f"  {'depth':>7} {'states':>10} {'frontier':>10} {'wave ms':>9}"
    if timed:
        header += f" {'succ ms':>9} {'dedup ms':>9}"
    lines = [header]

    def row(w):
        line = (
            f"  {w.get('depth', '?'):>7} {w.get('states', 0):>10,} "
            f"{w.get('frontier', 0):>10,} "
            f"{1000 * w.get('wave_s', 0.0):>9.1f}"
        )
        if timed:
            line += (
                f" {1000 * w.get('succ_s', 0.0):>9.1f}"
                f" {1000 * w.get('dedup_s', 0.0):>9.1f}"
            )
        return line

    if len(waves) <= _MAX_WAVE_ROWS:
        lines.extend(row(w) for w in waves)
    else:
        head = _MAX_WAVE_ROWS // 2
        lines.extend(row(w) for w in waves[:head])
        lines.append(f"  ... {len(waves) - 2 * head} waves elided ...")
        lines.extend(row(w) for w in waves[-head:])
    return lines


_TIMELINE_EVENTS = (
    "fault_plan", "worker_death", "redispatch", "gc_suspend", "gc_resume",
    "limit", "coord_sample", "mem_pressure", "worker_start",
)

#: event whose (worker, seq) stamp opens a batch's latency window
_BATCH_OPEN_EVENT = "ring_get"


def _has_lanes(events: list[dict]) -> bool:
    return any("lane" in e for e in events)


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024.0
    return f"{n:.1f} GiB"  # pragma: no cover - loop always returns


def _batch_latencies(events: list[dict]) -> list[float]:
    """Pickup-to-ack seconds per correlated ``(worker, seq)`` batch.

    A batch opens at the worker's ``ring_get`` quantum pickup and
    closes at the coordinator-side ``ack`` carrying the same
    correlation id — the full work-plus-control round trip. (The
    rendered line keeps its historical ``dispatch->ack`` label.)
    """
    opened: dict[tuple, float] = {}
    out: list[float] = []
    for e in events:
        key = (e.get("worker"), e.get("seq"))
        if key[0] is None or key[1] is None:
            continue
        ev = e.get("ev")
        if ev == _BATCH_OPEN_EVENT:
            opened.setdefault(key, e.get("t", 0.0))
        elif ev == "ack" and e.get("lane", "coordinator") == "coordinator":
            t0 = opened.pop(key, None)
            if t0 is not None:
                out.append(max(e.get("t", 0.0) - t0, 0.0))
    return out


def _lane_rows(events: list[dict]) -> dict[str, dict]:
    """Per-worker-lane activity aggregates of one sweep."""
    rows: dict[str, dict] = {}
    for e in events:
        lane = e.get("lane")
        if lane is None or not lane.startswith("worker"):
            continue
        row = rows.setdefault(
            lane,
            {"events": 0, "quanta": 0, "states": 0, "busy_s": 0.0,
             "first_t": e.get("t", 0.0), "last_t": e.get("t", 0.0)},
        )
        row["events"] += 1
        row["last_t"] = e.get("t", row["last_t"])
        ev = e.get("ev")
        if ev == "ack":
            row["quanta"] += 1
            row["states"] = e.get("visited", row["states"])
            row["busy_s"] += (
                e.get("expand_s", 0.0)
                + e.get("ring_put_s", 0.0) + e.get("ring_get_s", 0.0)
            )
        elif ev in ("ring_put", "ring_get"):
            row["busy_s"] += e.get("seconds", 0.0)
    return rows


def _render_lanes(events: list[dict]) -> list[str]:
    """The per-worker lane table + latency line of one merged sweep."""
    rows = _lane_rows(events)
    if not rows:
        return []
    ts = [e.get("t", 0.0) for e in events]
    span = max(ts) - min(ts) if ts else 0.0
    end = next((e for e in events if e.get("ev") == "sweep_end"), None)
    if end is not None and end.get("seconds", 0.0) > 0:
        span = end["seconds"]
    lines = ["  worker lanes:"]
    lines.append(
        f"  {'lane':>10} {'events':>8} {'quanta':>8} {'states':>10} "
        f"{'busy s':>8} {'idle s':>8} {'util':>6}"
    )

    def _wid(lane):
        try:
            return int(lane.replace("worker", ""))
        except ValueError:  # pragma: no cover - lane names are generated
            return -1

    for lane in sorted(rows, key=_wid):
        row = rows[lane]
        busy = row["busy_s"]
        idle = max(span - busy, 0.0)
        util = 100.0 * busy / span if span > 0 else 0.0
        lines.append(
            f"  {lane:>10} {row['events']:>8,} {row['quanta']:>8,} "
            f"{row['states']:>10,} {busy:>8.3f} {idle:>8.3f} "
            f"{util:>5.1f}%"
        )
    lat = _batch_latencies(events)
    if lat:
        lat.sort()
        p95 = lat[min(int(0.95 * len(lat)), len(lat) - 1)]
        lines.append(
            f"  dispatch->ack latency: n={len(lat)} "
            f"min {1000 * lat[0]:.1f} ms  "
            f"mean {1000 * sum(lat) / len(lat):.1f} ms  "
            f"p95 {1000 * p95:.1f} ms  max {1000 * lat[-1]:.1f} ms"
        )
    return lines


def _render_sweep(i: int, events: list[dict]) -> list[str]:
    start = events[0] if events[0].get("ev") == "sweep_start" else {}
    end = next(
        (e for e in events if e.get("ev") == "sweep_end"), None
    )
    backend = start.get("backend", "?")
    extras = []
    if start.get("packed") is not None:
        extras.append(f"packed={'yes' if start['packed'] else 'no'}")
    if start.get("n_workers"):
        extras.append(f"workers={start['n_workers']}")
    head = f"sweep {i}: {backend}"
    if extras:
        head += f" ({', '.join(extras)})"
    head += f" — {end.get('outcome', 'unterminated') if end else 'unterminated'}"
    lines = [head]

    if end:
        lines.append(
            f"  states {end.get('states', 0):,}  "
            f"transitions {end.get('transitions', 0):,}  "
            f"seconds {end.get('seconds', 0.0):.3f}  "
            f"states/s {end.get('states_per_second', 0.0):,.0f}"
            + (f"  depth {end['depth']}" if "depth" in end else "")
            + (
                f"  max frontier {end['max_frontier']:,}"
                if "max_frontier" in end
                else ""
            )
        )
        red = end.get("reduction")
        if red:
            lines.append(
                "  reduction: "
                f"canonical_hits={red.get('canonical_hits', 0):,} "
                f"ample_prunes={red.get('ample_prunes', 0):,} "
                f"slice_hits={red.get('slice_hits', 0):,}"
            )
        if end.get("worker_deaths"):
            lines.append(
                f"  recovery: worker_deaths={end['worker_deaths']} "
                f"redispatched_batches={end.get('redispatched_batches', 0)} "
                f"recovered={'yes' if end.get('recovered') else 'no'}"
            )
        if end.get("max_rss_bytes"):
            mem = f"  memory: max RSS {_fmt_bytes(end['max_rss_bytes'])}"
            if end.get("mem_pressure_events"):
                mem += (
                    f"  pressure events {end['mem_pressure_events']}"
                )
            lines.append(mem)

    waves = [e for e in events if e.get("ev") == "wave"]
    if waves:
        lines.append("  depth waves:")
        lines.extend("  " + ln for ln in _wave_table(waves))

    lanes_present = _has_lanes(events)
    acks: dict[int, dict] = {}
    for e in events:
        if e.get("ev") == "ack":
            # in merged traces each ack exists on the coordinator lane
            # and on its worker's lane — count the coordinator copy only
            if lanes_present and e.get("lane") != "coordinator":
                continue
            w = e.get("worker", -1)
            agg = acks.setdefault(
                w, {"batches": 0, "states": 0, "expand_s": 0.0}
            )
            agg["batches"] += 1
            agg["states"] = e.get("visited", agg["states"])
            agg["expand_s"] += e.get("expand_s", 0.0)
    if acks:
        lines.append(
            f"  {'worker':>8} {'batches':>9} {'states':>10} "
            f"{'busy s':>8} {'states/busy-s':>14}"
        )
        for w in sorted(acks):
            agg = acks[w]
            busy = agg["expand_s"]
            lines.append(
                f"  {w:>8} {agg['batches']:>9,} {agg['states']:>10,} "
                f"{busy:>8.3f} "
                f"{agg['states'] / busy if busy > 0 else 0.0:>14,.0f}"
            )

    if lanes_present:
        lines.extend(_render_lanes(events))

    timeline = [
        e for e in events if e.get("ev") in _TIMELINE_EVENTS
    ]
    if timeline:
        lines.append("  events:")
        for e in timeline:
            detail = " ".join(
                f"{k}={v}"
                for k, v in e.items()
                if k not in ("t", "ev", "lane", "t0")
            )
            lane = f"[{e['lane']}] " if "lane" in e else ""
            lines.append(
                f"    {e.get('t', 0.0):>9.3f} s  {lane}{e['ev']}  {detail}"
            )

    phases = phase_breakdown(events)
    if phases["total_s"] > 0:
        lines.append("  " + _fmt_phase_line(phases))
    return lines


def render_report(events: list[dict]) -> str:
    """The full human-readable report for a trace (see module docstring)."""
    sweeps, _leftovers = _split_sweeps(events)
    span = events[-1].get("t", 0.0) if events else 0.0
    head = (
        f"flight recorder report — {len(sweeps)} sweep(s), "
        f"{len(events)} events, {span:.3f} s of recording"
    )
    if _has_lanes(events):
        names = sorted(
            {e["lane"] for e in events if "lane" in e},
            key=lambda s: (0, -1) if s == "coordinator"
            else (1, int(s.replace("worker", "") or -1)),
        )
        head += f", {len(names)} stream(s): {', '.join(names)}"
    lines = [head]
    for i, sweep in enumerate(sweeps, 1):
        lines.append("")
        lines.extend(_render_sweep(i, sweep))

    fixpoints = [e for e in events if e.get("ev") == "fixpoint"]
    if fixpoints:
        by_mode: dict[str, int] = {}
        iters = 0
        for e in fixpoints:
            by_mode[e.get("mode", "?")] = by_mode.get(e.get("mode", "?"), 0) + 1
            iters += e.get("iterations", 0)
        modes = ", ".join(f"{n} {m}" for m, n in sorted(by_mode.items()))
        lines.append("")
        lines.append(
            f"fixpoints: {len(fixpoints)} solved ({modes}; "
            f"{iters} Kleene iterations)"
        )

    products = [e for e in events if e.get("ev") == "product_end"]
    if products:
        lines.append("")
        for e in products:
            lines.append(
                f"on-the-fly product: {e.get('product_states', 0):,} states, "
                f"{'witness found' if e.get('found') else 'no witness'} "
                f"({e.get('seconds', 0.0):.3f} s)"
            )

    checks = [e for e in events if e.get("ev") == "check"]
    if checks:
        lines.append("")
        lines.append("requirement checks:")
        for e in checks:
            lines.append(
                f"  {e.get('requirement', '?'):<34} "
                f"{'HOLDS' if e.get('holds') else 'VIOLATED':<9} "
                f"{e.get('states', 0):>10,} states  "
                f"{e.get('seconds', 0.0):>7.3f} s"
            )

    total_phases = phase_breakdown(events)
    if len(sweeps) > 1 and total_phases["total_s"] > 0:
        lines.append("")
        lines.append("overall " + _fmt_phase_line(total_phases))
    return "\n".join(lines)


def report_from_file(path, *, lenient: bool = False) -> str:
    """Load ``path`` (one JSONL trace) and render it.

    Strict by default — a malformed line raises, which the CLI turns
    into a clean ``error:`` exit rather than a silent partial report.
    ``lenient=True`` instead skips unparseable lines (the crash-artifact
    mode: a stream whose writer was killed mid-line still renders
    everything before the torn tail).
    """
    return render_report(read_trace(path, lenient=lenient))


def report_from_paths(paths) -> str:
    """Render trace files and/or trace directories as one merged report.

    Directories expand to their per-process streams (see
    :func:`repro.obs.merge.merge_traces`); a single plain file renders
    exactly like :func:`report_from_file`.
    """
    from repro.obs.merge import merge_traces

    return render_report(merge_traces(list(paths)))
