"""End-to-end flight recording of a distributed sweep under fault injection.

The ISSUE acceptance scenario: a process-backend sweep with a
``kill:0@N`` plan must leave a trace containing the fault plan, the
worker death, the batch re-dispatch, and a sweep_end that reports the
recovery — and the recorded totals must match the fault-free counts.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.lts.distributed import distributed_explore
from repro.lts.explore import explore
from repro.lts.faults import FaultPlan


class Diamond:
    """A diamond lattice of given width — branches recombine."""

    def __init__(self, width=5):
        self.width = width

    def initial_state(self):
        return (0, 0)

    def successors(self, s):
        level, pos = s
        if level >= self.width:
            return []
        return [("l", (level + 1, pos)), ("r", (level + 1, pos + 1))]


def _bundle():
    return obs.Instrumentation(
        metrics=obs.MetricsRegistry(), tracer=obs.Tracer(ring=100_000)
    )


def _events(inst, ev):
    return [e for e in inst.tracer.events() if e["ev"] == ev]


def test_inline_sweep_trace():
    inst = _bundle()
    _lts, stats = distributed_explore(
        Diamond(8), n_workers=2, backend="inline", obs=inst
    )
    start = _events(inst, "sweep_start")[0]
    assert start["backend"] == "distributed-inline"
    assert start["n_workers"] == 2
    end = _events(inst, "sweep_end")[0]
    assert end["outcome"] == "ok"
    assert end["states"] == stats.states
    assert end["seconds"] > 0
    assert _events(inst, "wave")


@pytest.mark.slow
def test_kill_recovery_recorded_end_to_end():
    sys_ = Diamond(24)
    exact = explore(sys_)
    inst = _bundle()
    _lts, stats = distributed_explore(
        sys_, n_workers=2, backend="process",
        faults=FaultPlan.parse("kill:0@2"),
        batch_size=8, poll_interval=0.05, obs=inst,
    )
    # recovery really happened and the totals are exact
    assert stats.worker_deaths == 1
    assert stats.states == exact.n_states

    plan = _events(inst, "fault_plan")
    assert any(p["kind"] == "kill" and p["worker"] == 0 for p in plan)
    deaths = _events(inst, "worker_death")
    assert len(deaths) == 1 and deaths[0]["worker"] == 0
    redispatches = _events(inst, "redispatch")
    assert redispatches and redispatches[0]["batches"] >= 1
    assert sum(r["batches"] for r in redispatches) == stats.redispatched_batches

    end = _events(inst, "sweep_end")[0]
    assert end["outcome"] == "ok"
    assert end["worker_deaths"] == 1
    assert end["recovered"] is True
    assert end["states"] == exact.n_states

    # the coordinator recorded every quantum's ack (quanta open at the
    # workers' ring_get, which lives in the per-worker streams)
    acks = _events(inst, "ack")
    assert len(acks) == stats.batches
    assert stats.transport == "shm"

    snap = inst.metrics.snapshot()
    assert snap["repro_dist_worker_deaths_total"] == 1
    assert snap["repro_dist_redispatched_batches_total"] == stats.redispatched_batches
    assert snap["repro_dist_recovered"] == 1
    assert snap["repro_dist_workers"] == 2

    # worker/coordinator phase timings were reported by the workers
    assert stats.worker_expand_s > 0
    assert stats.worker_expand_s >= stats.worker_succ_s


@pytest.mark.slow
def test_per_worker_streams_and_merged_report(tmp_path):
    """The tentpole acceptance path: a process sweep with a trace dir
    leaves one stream per worker plus the coordinator's, and the merged
    report renders every worker's lane."""
    from repro.obs.merge import (
        COORDINATOR_STREAM,
        lanes,
        merge_traces,
        worker_stream_name,
    )
    from repro.obs.report import report_from_paths

    td = tmp_path / "td"
    td.mkdir()
    inst = obs.Instrumentation(
        metrics=obs.MetricsRegistry(),
        tracer=obs.Tracer(td / COORDINATOR_STREAM),
        memwatch=obs.MemWatch(),
        trace_dir=str(td),
    )
    with inst:
        _lts, stats = distributed_explore(
            Diamond(16), n_workers=2, backend="process", batch_size=8,
            obs=inst,
        )
    for name in (COORDINATOR_STREAM, worker_stream_name(0),
                 worker_stream_name(1)):
        assert (td / name).exists(), name

    merged = merge_traces([td])
    assert lanes(merged) == ["coordinator", "worker0", "worker1"]
    starts = [e for e in merged if e["ev"] == "worker_start"]
    assert {e["worker"] for e in starts} == {0, 1}
    assert all("clock_offset" in e for e in starts)
    # worker-lane acks carry the (worker, seq) correlation id
    wacks = [e for e in merged if e["ev"] == "ack"
             and e["lane"].startswith("worker")]
    assert wacks and all("seq" in e for e in wacks)
    # batches open at the workers' ring_get quantum pickups, correlated
    # with the coordinator's acks by (worker, seq)
    gets = {(e["worker"], e["seq"]) for e in merged
            if e["ev"] == "ring_get"}
    cacks = {(e["worker"], e["seq"]) for e in merged
             if e["ev"] == "ack" and e["lane"] == "coordinator"}
    assert cacks and cacks <= gets

    text = report_from_paths([str(td)])
    assert "worker lanes:" in text
    assert "worker0" in text and "worker1" in text
    assert "dispatch->ack latency:" in text
    # memory telemetry rode along on the coordinator's sweep_end
    end = [e for e in merged if e["ev"] == "sweep_end"][-1]
    assert end["max_rss_bytes"] > 0
    assert stats.states == explore(Diamond(16)).n_states


@pytest.mark.slow
def test_fault_free_process_trace_has_timings():
    inst = _bundle()
    _lts, stats = distributed_explore(
        Diamond(16), n_workers=2, backend="process", batch_size=8,
        obs=inst,
    )
    end = _events(inst, "sweep_end")[0]
    assert end["outcome"] == "ok"
    assert end["worker_deaths"] == 0
    assert end["seconds"] > 0
    # uninstrumented runs skip worker timing; instrumented ones report it
    assert stats.worker_expand_s > 0
