"""Trace rendering: phase breakdown math and the timeline report."""

from __future__ import annotations

from repro import obs
from repro.lts.engine import explore_fast
from repro.obs.report import phase_breakdown, render_report, report_from_file


def test_phase_breakdown_from_wave_events():
    events = [
        {"t": 0.0, "ev": "sweep_start", "backend": "engine"},
        {"t": 0.1, "ev": "wave", "succ_s": 0.04, "dedup_s": 0.02},
        {"t": 0.2, "ev": "wave", "succ_s": 0.03, "dedup_s": 0.01},
        {"t": 0.3, "ev": "sweep_end", "seconds": 0.2},
    ]
    phases = phase_breakdown(events)
    assert phases["successors_s"] == 0.07
    assert phases["dedup_s"] == 0.03
    assert phases["transport_s"] == 0.0
    assert phases["other_s"] == 0.1
    assert phases["total_s"] == 0.2


def test_phase_breakdown_from_distributed_end():
    events = [
        {"ev": "sweep_end", "seconds": 1.0, "worker_succ_s": 0.3,
         "worker_expand_s": 0.5, "ring_put_s": 0.1, "coord_handle_s": 0.1},
    ]
    phases = phase_breakdown(events)
    assert phases["successors_s"] == 0.3
    assert phases["dedup_s"] == 0.2  # expand minus succ
    assert phases["transport_s"] == 0.2
    assert phases["other_s"] == 0.3
    assert phases["total_s"] == 1.0


def test_phase_breakdown_empty():
    phases = phase_breakdown([])
    assert phases["total_s"] == 0.0
    assert phases["other_s"] == 0.0


def test_render_report_on_recorded_sweep(chain_system):
    tracer = obs.Tracer(ring=10_000)
    with obs.Instrumentation(tracer=tracer) as inst:
        explore_fast(chain_system, obs=inst)
    text = render_report(tracer.events())
    assert "flight recorder report" in text
    assert "sweep 1: engine" in text
    assert "depth waves:" in text
    assert "phase breakdown:" in text
    assert "gc_suspend" in text


def test_render_report_recovery_and_timeline():
    events = [
        {"t": 0.0, "ev": "sweep_start", "backend": "distributed-process",
         "n_workers": 2, "packed": False},
        {"t": 0.01, "ev": "fault_plan", "kind": "kill", "worker": 0,
         "arg": 2},
        {"t": 0.05, "ev": "ack", "worker": 1, "visited": 40,
         "expand_s": 0.01},
        {"t": 0.10, "ev": "worker_death", "worker": 0, "inflight": 2,
         "pending": 1, "alive": 1, "visited": 12},
        {"t": 0.11, "ev": "redispatch", "worker": 0, "batches": 2},
        {"t": 0.30, "ev": "sweep_end", "outcome": "ok", "states": 52,
         "transitions": 80, "seconds": 0.3, "states_per_second": 173.0,
         "worker_deaths": 1, "redispatched_batches": 2, "recovered": True},
    ]
    text = render_report(events)
    assert "workers=2" in text
    assert "worker_death" in text
    assert "redispatch" in text
    assert "recovery: worker_deaths=1 redispatched_batches=2 recovered=yes" in text
    # the per-worker ack table
    assert "states/busy-s" in text


def test_render_report_wave_elision():
    waves = [
        {"t": i * 0.001, "ev": "wave", "depth": i, "states": i,
         "frontier": 1, "wave_s": 0.001}
        for i in range(1, 101)
    ]
    text = render_report(
        [{"t": 0.0, "ev": "sweep_start", "backend": "engine"}] + waves
    )
    assert "waves elided" in text


def test_render_report_checks_and_fixpoints():
    events = [
        {"t": 0.1, "ev": "fixpoint", "var": "X", "op": "mu",
         "mode": "kleene", "iterations": 4, "states": 10, "seconds": 0.01},
        {"t": 0.2, "ev": "check", "requirement": "1 (deadlock freeness)",
         "holds": True, "states": 288, "seconds": 0.05},
        {"t": 0.3, "ev": "product_end", "found": False,
         "product_states": 77, "seconds": 0.02},
    ]
    text = render_report(events)
    assert "fixpoints: 1 solved (1 kleene; 4 Kleene iterations)" in text
    assert "requirement checks:" in text
    assert "HOLDS" in text
    assert text.count("on-the-fly product: 77 states") == 1


def test_report_from_file_round_trip(tmp_path, chain_system):
    path = tmp_path / "sweep.jsonl"
    with obs.Instrumentation(tracer=obs.Tracer(path)) as inst:
        explore_fast(chain_system, obs=inst)
    text = report_from_file(path)
    assert "sweep 1: engine" in text


def test_report_on_empty_trace(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    text = report_from_file(path)
    assert "0 sweep(s), 0 events" in text


def test_report_on_truncated_trace(tmp_path):
    """A trace torn mid-line: strict reading raises, lenient renders."""
    import json

    path = tmp_path / "torn.jsonl"
    path.write_text(
        '{"t": 0.0, "ev": "sweep_start", "backend": "engine"}\n'
        '{"t": 0.1, "ev": "sweep_end", "outcome": "ok", "states": 3'
    )
    import pytest

    with pytest.raises(json.JSONDecodeError):
        report_from_file(path)
    text = report_from_file(path, lenient=True)
    assert "sweep 1: engine" in text  # open sweep, end line was torn


def test_report_on_interleaved_multi_sweep_trace():
    """Two sweeps back to back render as two numbered sections."""
    events = [
        {"t": 0.0, "ev": "sweep_start", "backend": "engine"},
        {"t": 0.1, "ev": "wave", "depth": 1, "states": 2, "wave_s": 0.1},
        {"t": 0.2, "ev": "sweep_end", "outcome": "ok", "states": 2,
         "transitions": 1, "seconds": 0.2},
        {"t": 0.3, "ev": "sweep_start", "backend": "serial"},
        {"t": 0.4, "ev": "sweep_end", "outcome": "limit", "states": 9,
         "transitions": 9, "seconds": 0.1},
    ]
    text = render_report(events)
    assert "2 sweep(s)" in text
    assert "sweep 1: engine — ok" in text
    assert "sweep 2: serial — limit" in text


def test_render_lanes_and_batch_latency():
    """Lane-tagged merged events render per-worker utilization and the
    cross-worker pickup-to-ack latency distribution."""
    events = [
        {"t": 0.0, "ev": "sweep_start", "backend": "distributed-process",
         "n_workers": 2, "lane": "coordinator"},
        {"t": 0.001, "ev": "worker_start", "worker": 0, "clock_offset": 0.0,
         "lane": "worker0"},
        {"t": 0.001, "ev": "worker_start", "worker": 1, "clock_offset": 0.0,
         "lane": "worker1"},
        {"t": 0.01, "ev": "ring_get", "worker": 0, "seq": 1,
         "lane": "worker0"},
        {"t": 0.02, "ev": "ack", "worker": 0, "seq": 1, "states": 5,
         "visited": 5, "expand_s": 0.004, "lane": "worker0"},
        {"t": 0.03, "ev": "ack", "worker": 0, "seq": 1, "states": 5,
         "visited": 5, "expand_s": 0.004, "lane": "coordinator"},
        {"t": 0.05, "ev": "sweep_end", "outcome": "ok", "states": 5,
         "transitions": 4, "seconds": 0.05, "max_rss_bytes": 1048576,
         "mem_pressure_events": 0, "lane": "coordinator"},
    ]
    text = render_report(events)
    assert "3 stream(s): coordinator, worker0, worker1" in text
    assert "worker lanes:" in text
    assert "worker0" in text and "worker1" in text
    assert "util" in text and "idle s" in text
    # the 0.01 -> 0.03 pickup->ack window: 20ms
    assert "dispatch->ack latency: n=1 min 20.0 ms" in text
    assert "memory: max RSS 1.0 MiB" in text


def test_lane_prefix_in_timeline_and_ack_dedup():
    """Merged acks appear on both lanes; the table counts one of them."""
    from repro.obs.report import _render_sweep  # noqa: F401 - smoke import

    events = [
        {"t": 0.0, "ev": "sweep_start", "backend": "distributed-process",
         "n_workers": 1, "lane": "coordinator"},
        {"t": 0.01, "ev": "ack", "worker": 0, "seq": 1, "visited": 7,
         "expand_s": 0.002, "lane": "worker0"},
        {"t": 0.02, "ev": "ack", "worker": 0, "seq": 1, "visited": 7,
         "expand_s": 0.002, "lane": "coordinator"},
        {"t": 0.03, "ev": "sweep_end", "outcome": "ok", "states": 7,
         "transitions": 6, "seconds": 0.03, "lane": "coordinator"},
    ]
    text = render_report(events)
    # one ack batch in the per-worker table, not two
    line = next(ln for ln in text.splitlines() if ln.strip().startswith("0 "))
    assert line.split()[1] == "1"
