"""Merge per-process trace streams into one causal timeline.

The distributed flight recorder writes one JSONL stream per process
into a ``--trace-dir``: ``trace.coordinator.jsonl`` for the control
plane and ``trace.worker<N>.jsonl`` for each worker's data plane. The
streams share no file handle (concurrent writers would tear lines),
but they do share a *timebase*: at spawn each worker performs a clock
handshake — its first event, ``worker_start``, carries
``clock_offset``, the worker tracer's ``perf_counter`` epoch minus the
coordinator's (both read the same system-wide monotonic clock on
Linux; the offset is the fork-to-first-event latency, recorded rather
than assumed zero). Adding a stream's offset to its local ``t`` values
maps every event onto the coordinator's clock, which makes the merged
order causal: a worker's ``ring_get`` quantum pickup precedes the
coordinator's ``ack`` for the same ``(worker, seq)``, a ``ring_put``
precedes the consuming ``ring_get``.

:func:`merge_traces` does exactly that — load (leniently: crashed
workers end mid-line), shift, tag each event with its ``lane``, and
merge-sort. The result feeds :func:`repro.obs.report.render_report`,
which renders per-worker lanes, busy/idle utilization and
pickup-to-ack batch latency when lanes are present.
"""

from __future__ import annotations

import os
import re

from repro.obs.tracer import read_trace

#: stream file names: trace.coordinator.jsonl / trace.worker<N>.jsonl
COORDINATOR_STREAM = "trace.coordinator.jsonl"
_WORKER_RE = re.compile(r"worker(\d+)")


def worker_stream_name(wid: int) -> str:
    """File name of worker ``wid``'s trace stream inside a trace dir."""
    return f"trace.worker{wid}.jsonl"


def lane_of(path) -> str:
    """The lane name a stream file contributes to.

    ``trace.worker3.jsonl`` -> ``worker3``; the coordinator stream (or
    any unrecognised single file, e.g. a plain ``--trace`` output) ->
    ``coordinator``.
    """
    stem = os.path.basename(str(path))
    m = _WORKER_RE.search(stem)
    if m is not None:
        return f"worker{int(m.group(1))}"
    return "coordinator"


def _lane_sort_key(lane: str):
    m = _WORKER_RE.fullmatch(lane)
    return (1, int(m.group(1))) if m else (0, -1)


def trace_files(trace_dir) -> list[str]:
    """The stream files of a trace directory, coordinator first."""
    try:
        names = sorted(os.listdir(trace_dir))
    except NotADirectoryError:
        return [str(trace_dir)]
    paths = [
        os.path.join(str(trace_dir), n)
        for n in names
        if n.endswith(".jsonl")
    ]
    return sorted(paths, key=lambda p: _lane_sort_key(lane_of(p)))


def load_stream(path) -> tuple[str, list[dict]]:
    """``(lane, events)`` of one stream file, clock-shifted and tagged.

    Reading is lenient (a crashed writer's torn tail is dropped, not
    fatal). The stream's ``clock_offset`` — from its first
    ``worker_start`` event — is added to every ``t``, so returned
    timestamps are in the coordinator's timebase; events keep a ``t0``
    field with the original local timestamp.
    """
    lane = lane_of(path)
    events = read_trace(path, lenient=True)
    offset = 0.0
    for e in events:
        if e.get("ev") == "worker_start":
            offset = float(e.get("clock_offset", 0.0))
            break
    out = []
    for e in events:
        e = dict(e)
        e["lane"] = lane
        if "t" in e:
            e["t0"] = e["t"]
            e["t"] = round(e["t"] + offset, 6)
        out.append(e)
    return lane, out


def merge_streams(streams: dict[str, list[dict]]) -> list[dict]:
    """Merge lane-tagged, clock-aligned streams into one sorted timeline.

    The sort is stable on ``(t, lane-order)`` with the coordinator
    ordered first at equal timestamps, so seeding events precede the
    worker activity they caused even at clock resolution.
    """
    merged: list[dict] = []
    for lane in sorted(streams, key=_lane_sort_key):
        merged.extend(streams[lane])
    merged.sort(
        key=lambda e: (e.get("t", 0.0), _lane_sort_key(e.get("lane", "")))
    )
    return merged


def merge_traces(paths) -> list[dict]:
    """Merge trace files and/or directories into one causal timeline.

    ``paths`` may mix JSONL files and trace directories (directories
    expand to their ``*.jsonl`` streams). A single plain file merges to
    itself — ``repro report`` calls this unconditionally.
    """
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            files.extend(trace_files(p))
        else:
            files.append(str(p))
    if not files:
        raise FileNotFoundError(
            f"no .jsonl trace streams found in {', '.join(map(str, paths))}"
        )
    streams: dict[str, list[dict]] = {}
    for f in files:
        lane, events = load_stream(f)
        streams.setdefault(lane, []).extend(events)
    if len(streams) == 1 and "coordinator" in streams:
        # single-stream traces render exactly as before: no lane tags
        events = streams["coordinator"]
        for e in events:
            e.pop("lane", None)
            e.pop("t0", None)
        events.sort(key=lambda e: e.get("t", 0.0))
        return events
    return merge_streams(streams)


def lanes(events: list[dict]) -> list[str]:
    """The distinct lanes present, coordinator first, workers by id."""
    seen = {e["lane"] for e in events if "lane" in e}
    return sorted(seen, key=_lane_sort_key)
