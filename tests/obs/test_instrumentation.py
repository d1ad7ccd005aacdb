"""End-to-end instrumentation: sweeps, fixpoints, checks, stats gaps.

The contract under test: instrumented runs emit the documented event
stream AND explore exactly the same system as un-instrumented runs;
every exit path (normal, limit error) reports complete timing.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import ExplorationLimitError
from repro.jackal.params import CONFIG_1, ProtocolVariant
from repro.jackal.requirements import build_model, check_requirement_1
from repro.lts.distributed import distributed_explore
from repro.lts.engine import explore_fast
from repro.lts.explore import ExplorationStats, explore
from repro.mucalc.checker import holds
from repro.mucalc.onthefly import check_reachable
from repro.mucalc.parser import parse_formula


def _bundle():
    registry = obs.MetricsRegistry()
    tracer = obs.Tracer(ring=100_000)
    return obs.Instrumentation(metrics=registry, tracer=tracer)


def _events(inst, ev=None):
    out = inst.tracer.events()
    return [e for e in out if ev is None or e["ev"] == ev]


@pytest.fixture
def model():
    return build_model(CONFIG_1, ProtocolVariant.fixed(), probes=False)


def test_serial_sweep_events(chain_system):
    inst = _bundle()
    explore(chain_system, obs=inst)
    starts = _events(inst, "sweep_start")
    ends = _events(inst, "sweep_end")
    waves = _events(inst, "wave")
    assert len(starts) == len(ends) == 1
    assert starts[0]["backend"] == "serial"
    assert ends[0]["outcome"] == "ok"
    assert ends[0]["states"] == 4
    assert ends[0]["transitions"] == 4
    assert ends[0]["seconds"] > 0
    assert waves, "each BFS depth emits a wave event"
    assert waves[-1]["states"] == 4
    # wave phase split is self-consistent
    for w in waves:
        assert w["succ_s"] >= 0 and w["dedup_s"] >= 0
        assert w["succ_s"] + w["dedup_s"] <= w["wave_s"] + 1e-6


def test_engine_sweep_events_and_gc_window(chain_system):
    inst = _bundle()
    explore_fast(chain_system, obs=inst)
    assert _events(inst, "sweep_start")[0]["backend"] == "engine"
    assert _events(inst, "gc_suspend")
    resume = _events(inst, "gc_resume")
    assert resume and resume[0]["suspended_s"] >= 0
    assert _events(inst, "sweep_end")[0]["outcome"] == "ok"


def test_instrumented_run_explores_the_same_lts(model):
    plain = explore_fast(model)
    inst = _bundle()
    traced = explore_fast(model, obs=inst)
    assert traced.n_states == plain.n_states
    assert traced.n_transitions == plain.n_transitions
    end = _events(inst, "sweep_end")[0]
    assert end["states"] == plain.n_states
    assert end["transitions"] == plain.n_transitions


def test_metrics_snapshot_after_engine_sweep(model):
    inst = _bundle()
    lts = explore_fast(model, obs=inst)
    snap = inst.metrics.snapshot()
    assert snap["repro_sweeps_total{backend=engine,outcome=ok}"] == 1
    assert snap["repro_sweep_states_total"] == lts.n_states
    assert snap["repro_sweep_transitions_total"] == lts.n_transitions
    assert snap["repro_sweep_seconds{backend=engine}"] > 0
    # every transition probes the visited index once; discoveries miss
    assert (
        snap["repro_visited_probe_hits_total"]
        == lts.n_transitions - lts.n_states
    )


@pytest.mark.parametrize("explorer", [explore, explore_fast])
def test_limit_error_carries_complete_stats(model, explorer):
    with pytest.raises(ExplorationLimitError) as exc:
        explorer(model, max_states=50)
    st = exc.value.stats
    assert st is not None
    assert st.states >= 50
    assert st.seconds > 0
    assert st.states_per_second() > 0


def _distributed(backend):
    def run(system, **kw):
        return distributed_explore(
            system, n_workers=2, backend=backend, **kw
        )

    return run


@pytest.mark.parametrize(
    "explorer, backend",
    [
        (explore, "serial"),
        (explore_fast, "engine"),
        (_distributed("process"), "distributed-process"),
    ],
    ids=["explore", "explore_fast", "distributed-process"],
)
def test_limit_event_emitted(model, explorer, backend):
    inst = _bundle()
    with pytest.raises(ExplorationLimitError):
        explorer(model, max_states=50, obs=inst)
    end = _events(inst, "sweep_end")[0]
    assert end["outcome"] == "limit"
    assert end["states"] >= 50
    assert end["seconds"] > 0
    snap = inst.metrics.snapshot()
    assert snap[f"repro_sweeps_total{{backend={backend},outcome=limit}}"] == 1
    assert snap["repro_sweep_states_total"] == end["states"]


def test_passed_stats_object_still_filled(model):
    st = ExplorationStats()
    explore_fast(model, stats=st)
    assert st.states > 0 and st.seconds > 0


def test_fixpoint_events_from_checker(small_lts):
    inst = _bundle()
    with obs.activate(inst):
        assert holds(small_lts, parse_formula("mu X. (<d>T \\/ <T>X)"))
    fps = _events(inst, "fixpoint")
    assert fps, "mu-calculus fixpoints emit events"
    assert fps[0]["op"] == "mu"
    assert fps[0]["states"] == small_lts.n_states
    snap = inst.metrics.snapshot()
    assert sum(
        v for k, v in snap.items() if k.startswith("repro_fixpoints_total")
    ) == len(fps)


def test_fixpoint_events_carry_levels_and_edges():
    from repro.lts.lts import LTS
    from repro.mucalc.checker import check

    # a chain 0 -a-> 1 -a-> ... -a-> 9 -d-> 10: one frontier pass per link
    chain = LTS(0)
    for s in range(9):
        chain.add_transition(s, "a", s + 1)
    chain.add_transition(9, "d", 10)
    inst = _bundle()
    with obs.activate(inst):
        v = check(chain, parse_formula("mu X. (<d>T \\/ <T>X)"))
        # a second occurrence of X forces Kleene iteration
        check(chain, parse_formula("mu X. (<d>T \\/ (<T>X /\\ <T>X))"))
    assert v[:10].all() and not v[10]
    worklist, kleene = _events(inst, "fixpoint")
    assert worklist["mode"] == "worklist-diamond"
    # frontiers {9}, {8}, ..., {0}, then a pass that gathers nothing
    assert worklist["levels"] == 10
    assert worklist["edges"] == 10
    assert kleene["mode"] == "kleene"
    assert kleene["levels"] is None and kleene["edges"] is None


def test_onthefly_product_events(chain_system):
    inst = _bundle()
    with obs.activate(inst):
        found, witness = check_reachable(
            chain_system, parse_formula("<T*.c> T").reg
        )
    assert found and witness is not None
    ends = _events(inst, "product_end")
    assert len(ends) == 1
    assert ends[0]["found"] is True
    assert ends[0]["product_states"] > 0
    snap = inst.metrics.snapshot()
    assert snap["repro_product_searches_total{outcome=witness}"] == 1


def test_requirement_check_event():
    inst = _bundle()
    with obs.activate(inst):
        rep = check_requirement_1(CONFIG_1)
    checks = _events(inst, "check")
    assert len(checks) == 1
    assert checks[0]["requirement"] == rep.requirement
    assert checks[0]["holds"] is True
    assert checks[0]["states"] == rep.lts_states
    assert checks[0]["seconds"] > 0
    snap = inst.metrics.snapshot()
    assert snap["repro_checks_total{verdict=holds}"] == 1


def test_ambient_activation_reaches_engine(chain_system):
    inst = _bundle()
    with obs.activate(inst):
        explore_fast(chain_system)
    assert _events(inst, "sweep_end")
    assert obs.current() is obs.NULL  # restored afterwards
