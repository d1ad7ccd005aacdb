"""Tests for partitioned (distributed) state-space generation."""

import pytest

from repro.errors import ExplorationLimitError
from repro.lts.distributed import distributed_explore
from repro.lts.explore import explore
from repro.lts.reduction import minimize_strong


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


@pytest.mark.slow
def test_process_limit_fills_stats_and_attaches():
    with pytest.raises(ExplorationLimitError) as ei:
        distributed_explore(
            Diamond(60), n_workers=2, backend="process", max_states=100,
            batch_size=8,
        )
    stats = ei.value.stats
    assert stats is not None
    assert stats.transport == "shm"
    assert stats.states > 100
    assert stats.seconds > 0.0


class GeneratorDiamond(Diamond):
    """Diamond whose ``successors`` is a generator, not a sequence.

    The :class:`~repro.lts.explore.TransitionSystem` protocol only
    promises an Iterable; ``_expand_batch`` used to call ``len()`` on
    the result and silently dropped every transition of such systems.
    """

    def successors(self, s):
        yield from Diamond.successors(self, s)


@pytest.mark.slow
def test_generator_successors_process_backend():
    sys_ = GeneratorDiamond(6)
    exact = explore(sys_)
    _lts, stats = distributed_explore(sys_, n_workers=2, backend="process")
    assert stats.transport == "shm"
    assert stats.states == exact.n_states
    assert stats.transitions == exact.n_transitions


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


@pytest.mark.slow
@pytest.mark.parametrize("name", ["diamond", "grid", "chain", "chain-solo"])
def test_process_backend_equals_explore_on_codecless_fixtures(
    name, chain_system
):
    sys_, n_workers = {
        "diamond": (Diamond(9), 2), "grid": (Grid(7, 5), 2),
        "chain": (chain_system, 2), "chain-solo": (chain_system, 1),
    }[name]
    lts, stats = distributed_explore(
        sys_, n_workers=n_workers, backend="process", collect=True
    )
    assert stats.transport == "shm"
    assert sum(stats.per_worker_states) == stats.states
    exact = explore(sys_)
    assert (stats.states, stats.transitions, stats.deadlocks) == (
        exact.n_states, exact.n_transitions, len(exact.deadlock_states())
    )
    assert lts == exact


def test_bad_arguments(chain_system):
    with pytest.raises(ValueError):
        distributed_explore(chain_system, n_workers=0)
    with pytest.raises(ValueError):
        distributed_explore(chain_system, backend="carrier-pigeon")
    # the in-process rendition is gone, and says so
    with pytest.raises(ValueError, match="removed"):
        distributed_explore(chain_system, backend="inline")


@pytest.mark.slow
def test_process_backend_matches_serial():
    sys = Diamond(7)
    exact = explore(sys)
    lts, stats = distributed_explore(
        sys, n_workers=2, backend="process", collect=True
    )
    assert stats.transport == "shm"
    assert stats.states == exact.n_states
    assert stats.transitions == exact.n_transitions
    assert lts == exact


def test_imbalance_metric():
    from repro.lts.distributed import DistributedStats

    s = DistributedStats(states=100, per_worker_states=[50, 50])
    assert s.imbalance() == 1.0
    s2 = DistributedStats(states=100, per_worker_states=[75, 25])
    assert s2.imbalance() == 1.5
    assert DistributedStats().imbalance() == 1.0


def test_imbalance_excludes_workers_that_never_held_states():
    """Regression: a worker that crashed before holding any states must
    not dilute the mean — [100, 0, 50] is a 1.33 skew over the two
    holders, not 2.0 over three partitions."""
    from repro.lts.distributed import DistributedStats

    s = DistributedStats(
        states=150, per_worker_states=[100, 0, 50], worker_deaths=1
    )
    assert s.imbalance() == pytest.approx(100 / 75)
    # all-dead edge case: no holders, no skew to report
    assert DistributedStats(per_worker_states=[0, 0]).imbalance() == 1.0


def _partition_imbalance(keys, n, owner_of):
    counts = [0] * n
    for k in keys:
        counts[owner_of(k, n)] += 1
    return max(counts) / (sum(counts) / n)


def test_owner_mixing_improves_imbalance():
    """The splitmix64-mixed owner beats raw ``hash(state) % n``.

    Packed codec keys are the worst case for the raw scheme: every
    ordinary key carries a tag bit (always-odd integers), so
    ``hash(k) % 2**m`` abandons whole partitions. The mixed owner must
    spread the same keys almost evenly.
    """
    from repro.jackal import Config, JackalModel
    from repro.lts.statehash import key_owner

    model = JackalModel(
        Config(threads_per_processor=(1, 1), rounds=1, with_probes=False)
    )
    codec = model.codec()
    states = explore(model, keep_states=True).state_meta.values()
    keys = [codec.encode(s) for s in states]

    def raw_owner(k, n):
        return hash(k) % n

    for n in (2, 4):
        raw = _partition_imbalance(keys, n, raw_owner)
        mixed = _partition_imbalance(keys, n, key_owner)
        assert mixed < raw  # the mixer strictly improves the partition
        assert mixed < 1.25
        assert raw > 1.5  # raw hashing really is pathological here


class _NoCodec:
    """A view of a system that hides its codec: its states themselves
    travel between workers, pickled."""

    def __init__(self, system):
        self._system = system

    def initial_state(self):
        return self._system.initial_state()

    def successors(self, state):
        return self._system.successors_fast(state)


@pytest.mark.slow
@pytest.mark.parametrize(
    "packed,tpp,rounds,n_workers",
    [
        pytest.param(True, (1, 1), 1, 2, id="True"),
        pytest.param(False, (1, 1), 1, 2, id="False"),
        pytest.param(True, (1, 1), 1, 3, id="tpp11-1"),
        pytest.param(True, (2,), 1, 3, id="tpp2-1"),
        pytest.param(True, (1, 1), 2, 3, id="tpp11-2"),
    ],
)
def test_process_backend_matches_serial_on_jackal(
    packed, tpp, rounds, n_workers
):
    from repro.jackal import Config, JackalModel

    model = JackalModel(
        Config(threads_per_processor=tpp, rounds=rounds, with_probes=False)
    )
    exact = explore(model)
    _lts, stats = distributed_explore(
        model if packed else _NoCodec(model),
        n_workers=n_workers,
        backend="process",
    )
    assert stats.transport == "shm"
    assert stats.states == exact.n_states
    assert stats.transitions == exact.n_transitions
    assert stats.deadlocks == len(exact.deadlock_states())
    assert sum(stats.per_worker_batches) == stats.batches > 0


def test_packed_auto_detection(chain_system):
    from repro.jackal import Config, JackalModel

    # systems without a codec ship their states themselves
    _lts, stats = distributed_explore(
        chain_system, n_workers=2, backend="process"
    )
    assert stats.states == 4
    # Jackal models pick up their codec automatically
    model = JackalModel(
        Config(threads_per_processor=(2,), rounds=1, with_probes=False)
    )
    lts, _stats = distributed_explore(
        model, n_workers=2, backend="process", collect=True
    )
    exact = explore(model)
    assert lts.n_states == exact.n_states
    assert minimize_strong(lts) == minimize_strong(exact)
