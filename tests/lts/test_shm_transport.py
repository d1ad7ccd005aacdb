"""Tests for the shared-memory ring transport.

Three layers: the SPSC ring primitive and the key formats
(:mod:`repro.lts.shmring`), the adaptive quantum controller, and the
full process-backend sweep — which must explore exactly the same LTS as
the serial reference for every system, with a codec or without, with
and without injected worker faults, because a transport that changes
counts is not a transport but a bug.
"""

import multiprocessing
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jackal import Config, JackalModel
from repro.lts.distributed import distributed_explore
from repro.lts.explore import explore
from repro.lts.faults import FaultPlan
from repro.lts.reduction import minimize_strong
from repro.lts.shmring import (
    AdaptiveBatch,
    KeyFormat,
    RingBuffer,
    pack_keys,
    unpack_keys,
)
from repro.lts.statehash import key_owner


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


class RebuiltStates:
    """A codec-less grid whose equal states are distinct objects.

    A state is ``(name, cells)``: ``name`` is a string assembled at run
    time (never interned, so equal names are different objects) and
    ``cells`` a nested tuple whose subtrees are shared when the state is
    reached along an ``i`` edge and rebuilt when reached along a ``j``
    edge. The same state therefore pickles to different bytes depending
    on the path that generated it — deduplication must compare states,
    not their serialisations.
    """

    def __init__(self, n=12):
        self.n = n

    def _state(self, i, j, shared):
        name = "-".join(["s", str(i), str(j)])
        leaf = (i % 3, (j % 2, "x" * (i % 2)))
        cells = (leaf, leaf) if shared else (
            leaf, (i % 3, (j % 2, "x" * (i % 2)))
        )
        return (name, cells)

    def initial_state(self):
        return self._state(0, 0, True)

    def successors(self, s):
        _s, i, j = s[0].split("-")
        i, j = int(i), int(j)
        out = []
        if i < self.n:
            out.append(("i", self._state(i + 1, j, True)))
        if j < self.n:
            out.append(("j", self._state(i, j + 1, False)))
        if i == j == self.n:
            out.append(("back", self.initial_state()))
        return out


def _jackal(tpp):
    return JackalModel(
        Config(threads_per_processor=tpp, rounds=1, with_probes=False)
    )


# -- RingBuffer -------------------------------------------------------------


def test_ring_roundtrip_and_counters():
    ring = RingBuffer.create(256)
    try:
        assert ring.try_write(3, b"abc")
        assert ring.try_write(4, b"defg")
        assert ring.counters()[2] == 2  # wr_recs
        depth, payload, cur = ring.peek(ring.rd_bytes)
        assert (depth, payload) == (3, b"abc")
        depth, payload, cur2 = ring.peek(cur)
        assert (depth, payload) == (4, b"defg")
        assert ring.peek(cur2) is None
        ring.commit(cur2 - ring.rd_bytes, 2)
        assert ring.rd_bytes == ring.wr_bytes
        assert ring.rd_recs == 2
    finally:
        ring.close()
        ring.unlink()


def test_ring_wraps_without_corruption():
    ring = RingBuffer.create(64)
    try:
        # payloads sized so records straddle the wrap point repeatedly
        for i in range(200):
            payload = bytes([i % 251]) * (7 + i % 11)
            assert ring.try_write(i % 9, payload)
            rec = ring.peek(ring.rd_bytes)
            assert rec is not None
            depth, got, cur = rec
            assert depth == i % 9
            assert got == payload
            ring.commit(cur - ring.rd_bytes, 1)
        assert ring.rd_recs == 200
    finally:
        ring.close()
        ring.unlink()


def test_ring_rejects_when_full_and_oversized():
    ring = RingBuffer.create(64)
    try:
        # never too big for an empty ring, but fills up un-consumed
        wrote = 0
        while ring.try_write(0, b"x" * 10):
            wrote += 1
        assert wrote >= 2
        assert not ring.try_write(0, b"x" * 10)
        # a payload that cannot fit even in an empty ring is rejected
        assert not ring.try_write(0, b"y" * 100)
        # consuming frees space again
        depth, payload, cur = ring.peek(ring.rd_bytes)
        ring.commit(cur - ring.rd_bytes, 1)
        assert ring.try_write(1, b"z" * 10)
    finally:
        ring.close()
        ring.unlink()


def test_ring_drain_unconsumed_recovers_pending_records():
    ring = RingBuffer.create(256)
    try:
        for i in range(3):
            assert ring.try_write(i, bytes([i]) * 4)
        # consume (peek + commit) only the first record
        _depth, _payload, cur = ring.peek(ring.rd_bytes)
        ring.commit(cur - ring.rd_bytes, 1)
        drained = ring.drain_unconsumed()
        assert drained == [(1, b"\x01" * 4), (2, b"\x02" * 4)]
        # the drain marks everything consumed
        assert ring.rd_bytes == ring.wr_bytes
        assert ring.drain_unconsumed() == []
    finally:
        ring.close()
        ring.unlink()


def test_ring_capacity_validation():
    with pytest.raises(ValueError):
        RingBuffer.create(8)


def test_pack_unpack_keys_roundtrip():
    keys = [0, 1, 255, 256, 2**31, 2**64 - 1]
    blob = pack_keys(keys, 9)
    assert len(blob) == 9 * len(keys)
    assert unpack_keys(blob, 9) == keys


def test_key_formats_roundtrip():
    codec_fmt = KeyFormat(9)
    assert codec_fmt.packed
    keys = [0, 255, 2**64 - 1]
    assert codec_fmt.pack(keys) == pack_keys(keys, 9)
    assert codec_fmt.unpack(codec_fmt.pack(keys)) == keys

    state_fmt = KeyFormat(None)
    assert not state_fmt.packed
    sys_ = RebuiltStates(3)
    # the same state reached along two edges: equal, but its pickles
    # differ — the format must hand back equal states regardless
    via_i = sys_.successors(sys_._state(0, 1, False))[0][1]
    via_j = sys_.successors(sys_._state(1, 0, True))[1][1]
    assert via_i == via_j
    assert pickle.dumps(via_i) != pickle.dumps(via_j)
    got = state_fmt.unpack(state_fmt.pack([via_i, via_j]))
    assert got == [via_i, via_j]
    assert len(set(got)) == 1
    with pytest.raises(ValueError):
        KeyFormat(0)


# -- AdaptiveBatch ----------------------------------------------------------


def test_adaptive_batch_validation():
    with pytest.raises(ValueError):
        AdaptiveBatch(lo=0)
    with pytest.raises(ValueError):
        AdaptiveBatch(lo=10, hi=5)
    with pytest.raises(ValueError):
        AdaptiveBatch(target_s=0.0)
    with pytest.raises(ValueError):
        AdaptiveBatch(alpha=0.0)


def test_adaptive_batch_converges_under_constant_rate():
    ab = AdaptiveBatch(initial=256, lo=32, hi=8192, target_s=0.01)
    # constant 50k keys/s: the EMA converges to rate * target = 500
    for _ in range(40):
        size = ab.update(500, 0.01)
    assert size == 500
    # degenerate observations leave the estimate untouched
    assert ab.update(0, 0.01) == 500
    assert ab.update(500, 0.0) == 500


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10**6),
            st.floats(
                min_value=0.0, max_value=10.0,
                allow_nan=False, allow_infinity=False,
            ),
        ),
        max_size=50,
    )
)
def test_adaptive_batch_stays_within_bounds(observations):
    ab = AdaptiveBatch(initial=256, lo=32, hi=8192, target_s=0.004)
    for n_keys, seconds in observations:
        size = ab.update(n_keys, seconds)
        assert 32 <= size <= 8192
        assert ab.size == size


# -- owner routing ----------------------------------------------------------


def test_worker_inlined_owner_mix_matches_key_owner():
    # the shm worker inlines the splitmix64 finaliser of key_owner();
    # the two must agree for every key or partitions would depend on
    # the code path that routed the state. Systems without a codec
    # route their states themselves, so tuples and strings — including
    # ones whose hash() is negative — must agree as well.
    m64 = (1 << 64) - 1
    states = [("s", i) for i in range(64)] + [f"state-{i}" for i in range(64)]
    states += [(-i, (i, "x")) for i in range(64)]
    negative = [s for s in states if hash(s) < 0]
    assert any(isinstance(s, str) for s in negative)
    assert any(isinstance(s, tuple) for s in negative)
    for n_workers in (1, 2, 3, 7):
        for key in list(range(64)) + [2**31 - 1, 2**64 - 1, 2**199 + 17,
                                      -1, -(2**70)] + negative:
            h = hash(key) & m64
            h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & m64
            h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & m64
            inlined = ((h ^ (h >> 31))) % n_workers
            assert inlined == key_owner(key, n_workers)


# -- backend equivalence: process backend vs serial -------------------------


@pytest.mark.slow
@pytest.mark.parametrize("transport", ["auto", "shm"])
def test_transport_matches_serial_on_jackal_config1(transport):
    # both accepted spellings run the one data plane
    model = _jackal((1, 1))
    exact = explore(model)
    _lts, stats = distributed_explore(
        model, n_workers=2, backend="process", transport=transport,
        batch_size=64,
    )
    assert stats.transport == "shm"
    assert stats.states == exact.n_states
    assert stats.transitions == exact.n_transitions
    assert stats.deadlocks == len(exact.deadlock_states())
    assert sum(stats.per_worker_states) == stats.states


@pytest.mark.slow
def test_transports_match_serial_on_jackal_config2():
    model = _jackal((2, 1))
    exact = explore(model)
    _lts, stats = distributed_explore(model, n_workers=2, backend="process")
    assert stats.transport == "shm"
    assert (stats.states, stats.transitions, stats.deadlocks) == (
        exact.n_states,
        exact.n_transitions,
        len(exact.deadlock_states()),
    )


@pytest.mark.slow
def test_shm_single_worker_matches_serial():
    # the machine-sized pool on a single-CPU host: one pipelined worker
    model = _jackal((1, 1))
    exact = explore(model)
    _lts, stats = distributed_explore(
        model, n_workers=1, backend="process", transport="shm",
    )
    assert stats.states == exact.n_states
    assert stats.transitions == exact.n_transitions
    assert stats.deadlocks == len(exact.deadlock_states())


@pytest.mark.slow
def test_shm_collect_builds_equivalent_lts():
    model = _jackal((1, 1))
    exact = explore(model)
    lts, _stats = distributed_explore(
        model, n_workers=2, backend="process", transport="shm",
        collect=True, batch_size=64,
    )
    assert lts.n_states == exact.n_states
    assert lts.n_transitions == exact.n_transitions
    # BFS renumbering may differ; compare modulo strong bisimulation
    assert minimize_strong(lts) == minimize_strong(exact)


@pytest.mark.slow
def test_shm_spawn_time_reported_separately():
    model = _jackal((1, 1))
    _lts, stats = distributed_explore(
        model, n_workers=2, backend="process", transport="shm",
    )
    assert stats.spawn_s > 0.0
    assert stats.spawn_s < stats.seconds


def test_transport_validation():
    with pytest.raises(ValueError, match="unknown transport"):
        distributed_explore(Diamond(3), transport="carrier-pigeon")
    # the pickled-queue transport is gone, and says so
    with pytest.raises(ValueError, match="removed"):
        distributed_explore(Diamond(3), transport="queue")
    # a codec-less system runs over the rings like any other
    _lts, stats = distributed_explore(
        Diamond(3), n_workers=2, backend="process", transport="shm"
    )
    assert stats.transport == "shm"
    assert stats.states == explore(Diamond(3)).n_states


def test_process_backend_without_fork_names_inline(monkeypatch):
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )
    with pytest.raises(ValueError, match="backend='inline'"):
        distributed_explore(Diamond(3), n_workers=2, backend="process")
    # the inline backend needs no worker processes at all
    _lts, stats = distributed_explore(
        Diamond(3), n_workers=2, backend="inline"
    )
    assert stats.states == explore(Diamond(3)).n_states


# -- systems without a codec -------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("n_workers", [1, 3])
def test_codecless_system_counts_match_serial(n_workers):
    sys_ = RebuiltStates(14)
    exact = explore(sys_)
    _lts, stats = distributed_explore(
        sys_, n_workers=n_workers, backend="process", batch_size=8,
    )
    assert stats.transport == "shm"
    assert stats.states == exact.n_states
    assert stats.transitions == exact.n_transitions
    assert stats.deadlocks == len(exact.deadlock_states())
    assert sum(stats.per_worker_states) == stats.states


@pytest.mark.slow
def test_codecless_system_collect_equals_explore():
    sys_ = RebuiltStates(10)
    lts, stats = distributed_explore(
        sys_, n_workers=2, backend="process", collect=True, batch_size=8,
    )
    assert stats.transport == "shm"
    assert lts == explore(sys_)


@pytest.mark.slow
def test_codecless_system_kill_recovers_exact_counts():
    sys_ = RebuiltStates(30)
    exact = explore(sys_)
    _lts, stats = distributed_explore(
        sys_, n_workers=2, backend="process",
        faults=FaultPlan.parse("kill:0@2"),
        batch_size=8, poll_interval=0.05,
    )
    assert stats.transport == "shm"
    assert stats.states == exact.n_states
    assert stats.transitions == exact.n_transitions
    assert stats.deadlocks == len(exact.deadlock_states())
    assert stats.worker_deaths == 1
    assert stats.recovered
    assert sum(stats.per_worker_states) == stats.states


# -- fault injection over the shm transport ---------------------------------


@pytest.mark.slow
def test_shm_kill_recovers_exact_counts():
    model = _jackal((1, 1))
    exact = explore(model)
    _lts, stats = distributed_explore(
        model, n_workers=2, backend="process", transport="shm",
        faults=FaultPlan.parse("kill:1@2"),
        batch_size=32, poll_interval=0.05,
    )
    assert stats.states == exact.n_states
    assert stats.transitions == exact.n_transitions
    assert stats.deadlocks == len(exact.deadlock_states())
    assert stats.worker_deaths == 1
    assert stats.recovered


@pytest.mark.slow
def test_shm_raise_recovers_exact_counts():
    model = _jackal((1, 1))
    exact = explore(model)
    _lts, stats = distributed_explore(
        model, n_workers=2, backend="process", transport="shm",
        faults=FaultPlan.parse("raise:0@2"),
        batch_size=32, poll_interval=0.05,
    )
    assert stats.states == exact.n_states
    assert stats.transitions == exact.n_transitions
    assert stats.worker_deaths == 1
    assert stats.recovered


@pytest.mark.slow
def test_shm_delay_injection_no_deaths():
    model = _jackal((1, 1))
    exact = explore(model)
    _lts, stats = distributed_explore(
        model, n_workers=2, backend="process", transport="shm",
        faults=FaultPlan.parse("delay:0@0.02"),
        batch_size=64, poll_interval=0.05,
    )
    assert stats.states == exact.n_states
    assert stats.worker_deaths == 0
    assert not stats.recovered
