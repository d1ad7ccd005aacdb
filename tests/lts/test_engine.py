"""Tests for the fast exploration engine.

The engine promises *exact* equivalence with the reference explorer —
same BFS numbering, same LTS, same stats, same limit semantics — so
most tests here are differential: run both, compare everything.
"""

import pytest

from repro.errors import ExplorationLimitError
from repro.jackal import Config, JackalModel, ProtocolVariant
from repro.lts.engine import explore_fast
from repro.lts.explore import ExplorationStats, explore


class Grid:
    """A w x h grid walked right/down; (w-1, h-1) is terminal."""

    def __init__(self, w=4, h=3):
        self.w, self.h = w, h

    def initial_state(self):
        return (0, 0)

    def successors(self, s):
        x, y = s
        out = []
        if x + 1 < self.w:
            out.append(("right", (x + 1, y)))
        if y + 1 < self.h:
            out.append(("down", (x, y + 1)))
        return out


def _assert_identical(system, **kwargs):
    st_ref, st_fast = ExplorationStats(), ExplorationStats()
    ref = explore(system, stats=st_ref, **kwargs)
    fast = explore_fast(system, stats=st_fast, **kwargs)
    # not merely bisimilar: numbering and transition order must agree
    assert fast.n_states == ref.n_states
    assert fast.n_transitions == ref.n_transitions
    assert list(fast.transitions()) == list(ref.transitions())
    assert fast == ref
    assert st_fast.states == st_ref.states
    assert st_fast.transitions == st_ref.transitions
    assert st_fast.max_frontier == st_ref.max_frontier
    assert st_fast.depth == st_ref.depth
    assert st_fast.level_sizes == st_ref.level_sizes
    return ref, fast


def test_matches_reference_on_grid():
    _assert_identical(Grid(6, 5))


def test_matches_reference_on_chain(chain_system):
    _assert_identical(chain_system)


@pytest.mark.parametrize(
    "tpp,variant",
    [
        ((1, 1), ProtocolVariant.fixed()),
        ((2,), ProtocolVariant.fixed()),
        ((1, 1), ProtocolVariant.error1()),
    ],
)
def test_matches_reference_on_jackal(tpp, variant):
    cfg = Config(threads_per_processor=tpp, rounds=1, with_probes=False)
    _assert_identical(JackalModel(cfg, variant))


def test_matches_reference_with_probes():
    cfg = Config(threads_per_processor=(1, 1), rounds=1, with_probes=True)
    _assert_identical(JackalModel(cfg, ProtocolVariant.fixed()))


def test_keep_states(chain_system):
    ref = explore(chain_system, keep_states=True)
    fast = explore_fast(chain_system, keep_states=True)
    assert fast.state_meta == ref.state_meta


def test_max_depth():
    _assert_identical(Grid(10, 10), max_depth=3)


def test_limit_semantics_match_reference():
    st_ref, st_fast = ExplorationStats(), ExplorationStats()
    with pytest.raises(ExplorationLimitError) as ref_exc:
        explore(Grid(50, 50), max_states=10, stats=st_ref)
    with pytest.raises(ExplorationLimitError) as fast_exc:
        explore_fast(Grid(50, 50), max_states=10, stats=st_fast)
    assert fast_exc.value.partial == ref_exc.value.partial
    assert st_fast.states == st_ref.states
    assert st_fast.transitions == st_ref.transitions
    assert st_fast.max_frontier == st_ref.max_frontier > 0


def test_packed_visited_set_matches():
    cfg = Config(threads_per_processor=(1, 1), rounds=1, with_probes=False)
    model = JackalModel(cfg)
    plain = explore_fast(model)
    packed = explore_fast(model, packed=True)
    assert packed == plain
    assert list(packed.transitions()) == list(plain.transitions())


def test_packed_needs_codec():
    with pytest.raises(ValueError):
        explore_fast(Grid(3, 3), packed=True)


def test_uses_fast_successor_path():
    cfg = Config(threads_per_processor=(1, 1), rounds=1, with_probes=False)
    model = JackalModel(cfg)
    calls = {"fast": 0}
    orig = model.successors_fast

    def counting(state):
        calls["fast"] += 1
        return orig(state)

    model.successors_fast = counting
    explore_fast(model)
    assert calls["fast"] > 0
