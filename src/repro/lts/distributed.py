"""Distributed (partitioned) state-space generation.

The paper generated its larger LTSs with the muCRL *distributed* LTS
generation tool on an eight-node cluster at CWI; the technique is
hash-based state ownership: every node owns the states that hash into
its partition, keeps a local visited set for them, and forwards newly
discovered states to their owners.

This module reproduces that architecture at laptop scale with
``multiprocessing`` workers (one OS process per cluster node). Two
backends are provided:

``"process"``
    Real worker processes in a **pipelined** schedule over the
    shared-memory ring data plane. Each ordered worker pair owns a
    single-producer single-consumer ring buffer in
    :mod:`multiprocessing.shared_memory` (:mod:`repro.lts.shmring`);
    workers write successor blocks straight into the ring of each
    successor's owner, gather adaptive wall-clock-targeted quanta out
    of their inbound rings, and the coordinator is off the steady-state
    path entirely — it carries only control traffic (per-quantum
    acknowledgements with the counts and the recovery ledger, relays
    for blocks a full ring rejected, membership changes, termination).
    Termination is a double-scan balance check over the ring counters
    plus the ack and inject ledgers. There is no per-level barrier: a
    fast partition keeps expanding while a slow one catches up.

    Every system runs over the rings; only the key format differs
    (:class:`~repro.lts.shmring.KeyFormat`, chosen once per sweep). A
    system with a :meth:`codec` (as
    :class:`~repro.jackal.model.JackalModel` has) ships fixed-width
    packed codec keys — a ~20-byte integer per state instead of a
    pickled tuple tree, with the encode/decode cost carried by the
    workers, in parallel. A system without one ships its states
    themselves as pickled lists and is deduplicated by state equality.
    Workers are forked: they inherit the rings and the parent's hash
    seed, which ownership of string-bearing states depends on, so this
    backend needs the ``fork`` start method.

``"inline"``
    The same partitioned algorithm run sequentially in-process in the
    classical bulk-synchronous level order (deterministic, and the
    backend for platforms without ``fork``).

Both backends, like the engine, are tested against the serial
reference :func:`repro.lts.explore.explore` (equal counts, and an equal
LTS when collected).

The ``"process"`` coordinator is **fault tolerant**: eight-node-cluster
sweeps die with their weakest node, so worker loss is treated as an
expected event, not a hang. The control-queue wait is a timed poll
backed by worker ``exitcode`` checks (a dead worker is detected within
the poll interval). A quantum's states and transitions are counted iff
its acknowledgement reaches the coordinator, and a worker releases its
ring input only after acknowledging it, so a crashed worker's
unacknowledged input is still in its inbound rings or in the
coordinator's inject ledger. That input is re-partitioned over the
surviving workers (:func:`repro.lts.statehash.live_owner`, rendezvous
hashing: the assignment is stable under *further* crashes, so a key
re-routed to one survivor never silently migrates to — and gets
re-counted by — another when a second worker dies later). The crashed
worker's visited set dies with it, but every acknowledgement carries
the keys its quantum newly expanded, so the coordinator reconstructs
that visited set exactly and drops re-routed states that were already
expanded instead of expanding them twice: a sweep that loses workers
still reports exact state/transition totals. The acknowledged-key
ledger (:class:`_AckLedger`) is compact for codec keys — a fixed-width
byte buffer per worker, roughly the key width per state rather than a
duplicate Python set. Recovery is observable through
:class:`DistributedStats` (``worker_deaths``, ``redispatched_batches``,
``recovered``) and reproducible on demand through the fault-injection
harness in :mod:`repro.lts.faults`. Only when *every* worker dies does
the sweep give up, raising :class:`~repro.errors.WorkerFailureError`
within one poll interval.

Ownership hashes are routed through the splitmix64 finaliser
(:func:`repro.lts.statehash.mix64`): protocol states are nested tuples
of small ints whose raw ``hash()`` clusters badly modulo a small worker
count, and a skewed partition turns one worker into the whole sweep's
critical path (see ``DistributedStats.imbalance``).

For exact LTS construction the transitions can be collected
(``collect=True``; :func:`~repro.lts.explore.explore` numbers them);
for large sweeps the default is a count-only run, which is what the
paper's Table 8 numbers require.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from queue import Empty
from typing import Hashable

from repro.errors import ExplorationLimitError, WorkerFailureError
from repro.lts.explore import TransitionSystem, explore
from repro.lts.faults import FaultPlan, WorkerFault, crash_process
from repro.lts.lts import LTS
from repro.lts.shmring import (
    DEFAULT_RING_BYTES,
    AdaptiveBatch,
    KeyFormat,
    RingBuffer,
)
from repro.lts.statehash import key_owner, live_owner
from repro.obs.core import NULL
from repro.obs.memwatch import MemWatch
from repro.obs.merge import worker_stream_name
from repro.obs.sweep import SweepRecorder
from repro.obs.tracer import Tracer

#: initial expansion quantum, in states (the adaptive controller
#: resizes every later quantum from the measured expansion rate)
_BATCH = 256
#: default coordinator poll interval: a control-queue wait never blocks
#: longer than this before worker liveness is re-checked
_POLL = 0.25
#: control messages handled between opportunistic liveness checks,
#: bounding crash detection latency while the control queue stays busy
_CRASH_CHECK_EVERY = 64
#: wall-clock target for one expansion quantum (the adaptive batch
#: controller sizes quanta to roughly this long; a parameter sweep put
#: the knee at 10 ms — enough work per ack to amortise the control
#: round trip without starving peers)
_QUANTUM_TARGET_S = 0.01
#: adaptive quantum bounds
_QUANTUM_LO = 32
_QUANTUM_HI = 8192
#: longest idle-poll backoff of a starved worker (kept short — on an
#: oversubscribed host a long sleep here serialises the pipeline, since
#: the peer that would refill the ring runs next)
_IDLE_BACKOFF_MAX = 0.002
#: worker-process startup deadline (spawn barrier; generous — covers
#: a cold ``fork`` + codec construction on a loaded machine)
_SPAWN_DEADLINE = 60.0
#: 64-bit mask for the worker-loop-inlined splitmix64 finaliser
_M64 = (1 << 64) - 1
#: entry cap on the worker-local ship memo and shipped-key filter;
#: both are pure caches whose clearing costs only repeated work
#: (re-encodes, duplicate ships the consumer dedups), so capping them
#: bounds worker memory without touching exactness
_SHIP_CACHE_MAX = 200_000


@dataclass
class DistributedStats:
    """Result of a partitioned sweep.

    Attributes
    ----------
    states / transitions:
        Exact totals (hash partitioning does not lose states, unlike
        bitstate hashing — each owner keeps an exact visited set).
        Exactness survives worker crashes: lost input is re-expanded
        and already-expanded keys are filtered at the coordinator.
    deadlocks:
        Terminal states encountered.
    per_worker_states:
        Visited-set size per worker; the balance of this vector is the
        classical health metric of hash partitioning. For a crashed
        worker this is the size its visited set had reached when it
        died (the count carried by its last acknowledged quantum).
    per_worker_batches:
        Expansion quanta each worker acknowledged (pipelined backend
        only); measures scheduling balance as opposed to storage
        balance.
    levels:
        Bulk-synchronous backend: BFS levels processed. Pipelined
        backend: the maximum routing depth, an upper bound on the BFS
        depth.
    batches:
        Total expansion quanta acknowledged (pipelined backend only).
    worker_deaths:
        Worker processes that died mid-sweep (pipelined backend only).
    redispatched_batches:
        Key blocks whose expansion was lost to a crash — unacknowledged
        injects of, or unconsumed ring records addressed to, a dead
        worker — and were re-partitioned over the survivors.
    recovered:
        True when at least one worker died and the sweep nevertheless
        ran to its normal end on the survivors.
    seconds:
        Wall-clock duration, worker spawn excluded (see ``spawn_s``).
    spawn_s:
        Seconds from starting the worker processes to the last worker's
        hello message (``"process"`` backend). Reported separately so
        throughput comparisons against in-process backends measure the
        sweep, not ``fork``+interpreter warm-up — the fixed cost that
        used to doom small-config speedup numbers.
    transport:
        ``"shm"`` for the ``"process"`` backend, ``"local"`` otherwise.
    relayed_batches:
        Successor blocks that could not be written to a ring (full, or
        the destination was dead) and fell back to a coordinator relay.
        A persistently high share means the rings are undersized for
        the model.
    worker_succ_s / worker_expand_s:
        Summed worker-side seconds spent generating successors /
        expanding whole quanta (dedup + successor generation). Filled
        only on instrumented sweeps (the flight recorder active);
        0.0 otherwise — worker-side timing is off the hot path by
        default.
    coord_handle_s / coord_idle_s:
        Coordinator-side seconds spent handling control messages /
        blocked in timed control-queue waits that expired.
        Instrumented sweeps only.
    ring_put_s / ring_get_s:
        Instrumented sweeps only: summed worker-side seconds spent
        writing successor blocks into / gathering quanta out of the
        shared-memory rings — the data-plane cost.
    """

    states: int = 0
    transitions: int = 0
    deadlocks: int = 0
    per_worker_states: list[int] = field(default_factory=list)
    per_worker_batches: list[int] = field(default_factory=list)
    levels: int = 0
    batches: int = 0
    worker_deaths: int = 0
    redispatched_batches: int = 0
    recovered: bool = False
    seconds: float = 0.0
    spawn_s: float = 0.0
    transport: str = "local"
    relayed_batches: int = 0
    worker_succ_s: float = 0.0
    worker_expand_s: float = 0.0
    coord_handle_s: float = 0.0
    coord_idle_s: float = 0.0
    ring_put_s: float = 0.0
    ring_get_s: float = 0.0

    def imbalance(self) -> float:
        """max/mean ratio over partitions that actually held states.

        Workers that died before owning anything (or were never routed
        a state) are excluded from the mean: averaging their zeros in
        understates the survivors' skew precisely after the recoveries
        this metric is meant to diagnose. 1.0 = perfectly even.
        """
        held = [c for c in self.per_worker_states if c > 0]
        if not held:
            return 1.0
        mean = sum(held) / len(held)
        return max(held) / mean if mean else 1.0


#: the :class:`DistributedStats` fields every distributed ``sweep_end``
#: carries besides the common ones
_END_FIELDS = (
    "transport", "spawn_s", "relayed_batches", "worker_deaths",
    "redispatched_batches", "recovered", "worker_succ_s", "worker_expand_s",
    "coord_handle_s", "coord_idle_s", "ring_put_s", "ring_get_s",
)


def _owner(state: Hashable, n: int) -> int:
    """The worker owning ``state`` (stable within one run).

    ``state`` may equally be a packed codec key. Delegates to
    :func:`repro.lts.statehash.key_owner` — the single routing function
    of the inline backend and the process coordinator, which the ring
    workers inline — so ownership never depends on the code path that
    routed the key.
    """
    return key_owner(state, n)


def _same(key):
    """The identity key mapping of systems without a codec."""
    return key


class _AckLedger:
    """Compact per-worker record of acknowledged keys.

    A worker adds every key of a quantum to its visited set before
    acknowledging it, so the union of its acknowledged keys *is* its
    visited set — the record that lets the coordinator drop re-routed
    keys a dead worker had already expanded (and counted). Holding that
    union as a Python set would duplicate every worker's visited set at
    the coordinator and defeat the memory-scaling point of hash
    partitioning, so for codec keys the acknowledged blocks — already
    in the :class:`~repro.lts.shmring.KeyFormat` wire format — are
    appended to one byte buffer, roughly the key width per state, and
    only materialised into a set on the (rare) crash path. States of a
    system without a codec have no compact form: that format keeps a
    set. The mode is fixed at construction by the sweep's key format.
    """

    __slots__ = ("_fmt", "_buf", "_set")

    def __init__(self, fmt: KeyFormat):
        self._fmt = fmt
        self._buf = bytearray()
        self._set: set | None = None if fmt.packed else set()

    def add_bytes(self, blob: bytes) -> None:
        """Record one acknowledged block (``fmt``'s wire format)."""
        if self._set is None:
            self._buf += blob
        else:
            self._set.update(self._fmt.unpack(blob))

    def to_set(self) -> set:
        """The acknowledged-key union as a set (the crash path)."""
        if self._set is not None:
            return set(self._set)
        return set(self._fmt.unpack(self._buf))

    @property
    def nbytes(self) -> int:
        """Approximate coordinator memory held by this ledger."""
        if self._set is not None:
            return sys.getsizeof(self._set)
        return len(self._buf)

    def clear(self) -> None:
        self._buf = bytearray()
        if self._set is not None:
            self._set = set()


def _worker_obs(trace_dir, wid, clock_origin):
    """Per-worker flight recorder: own trace stream + memory watcher.

    Workers are separate processes, so they cannot share the
    coordinator's tracer (concurrent writers would tear JSONL lines).
    Each worker instead opens its own line-buffered stream in
    ``trace_dir`` and performs the clock handshake: its first event,
    ``worker_start``, records ``clock_offset`` — this tracer's
    ``perf_counter`` epoch minus the coordinator's — which
    :mod:`repro.obs.merge` adds to the stream's timestamps to map them
    onto the coordinator's timebase (``perf_counter`` is system-wide
    monotonic on Linux, so fork children share the underlying clock).

    Returns ``(tracer, memwatch)``, both ``None`` when no ``trace_dir``
    is configured — callers branch once per quantum, never per state.
    """
    if trace_dir is None:
        return None, None
    tracer = Tracer(os.path.join(trace_dir, worker_stream_name(wid)))
    tracer.emit(
        "worker_start", worker=wid, pid=os.getpid(),
        clock_offset=round(tracer.epoch - clock_origin, 6),
    )
    return tracer, MemWatch(tracer=tracer)


def _inline_sweep(system, n_workers, collect, max_states, stats, codec,
                  rec):
    """The partitioned algorithm run sequentially in-process.

    Bulk-synchronous by construction: each iteration of the outer loop
    is one BFS level, which keeps the backend deterministic and its
    ``levels`` statistic exact. Within a level each owner dedups its
    batch (packed keys when there is a codec) against its own visited
    set and expands the new states. ``rec`` is the sweep's
    :class:`~repro.obs.sweep.SweepRecorder` (one wave event per level).
    """
    succ = getattr(system, "successors_fast", None) or system.successors
    succ = rec.timed(succ)
    decode = codec.decode if codec else None
    encode = codec.encode if codec else None
    visited: list[set] = [set() for _ in range(n_workers)]
    init = system.initial_state()
    init_item = init if encode is None else encode(init)
    frontier = [init]
    transitions = []
    n_trans = 0
    n_dead = 0
    levels = 0
    while frontier:
        batches: list[list] = [[] for _ in range(n_workers)]
        for s in frontier:
            key = s if encode is None else encode(s)
            batches[_owner(key, n_workers)].append(key)
        frontier = []
        for w in range(n_workers):
            seen = visited[w]
            for item in batches[w]:
                if item in seen:
                    continue
                seen.add(item)
                state = item if decode is None else decode(item)
                # the TransitionSystem protocol only promises an
                # Iterable, so materialize before measuring
                # (generator-based systems)
                succs = list(succ(state))
                n_trans += len(succs)
                if not succs:
                    n_dead += 1
                for label, nxt in succs:
                    frontier.append(nxt)
                    if collect:
                        transitions.append((
                            item, label,
                            nxt if encode is None else encode(nxt),
                        ))
        levels += 1
        total = sum(len(v) for v in visited)
        if rec.enabled:
            rec.wave(
                levels, total, len(frontier), n_trans,
                sum(sys.getsizeof(v) for v in visited),
            )
        if max_states is not None and total > max_states:
            break
    stats.states = sum(len(v) for v in visited)
    stats.transitions = n_trans
    stats.deadlocks = n_dead
    stats.per_worker_states = [len(v) for v in visited]
    stats.levels = levels
    if max_states is not None and stats.states > max_states:
        # an aborted sweep still reports how far it got
        raise ExplorationLimitError(
            f"state limit {max_states} exceeded", stats=stats
        )
    return transitions, init_item


def _shm_worker_main(
    system, n_workers, wid, ctrl_in, ctrl_out, rings_in, rings_out,
    collect, codec, fmt: KeyFormat, batch_size,
    fault: WorkerFault | None = None,
    instrument: bool = False,
    trace_dir=None,
    clock_origin: float = 0.0,
):
    """Worker loop of the process backend.

    The data plane is the ring matrix: ``rings_in[p]`` carries key
    blocks (in the sweep's ``fmt``) from producer ``p`` to this worker,
    ``rings_out[q]`` from this worker to owner ``q`` (including the
    self-ring ``wid -> wid``, so *every* expansion input is recoverable
    from shared memory after a crash). A key is the packed ``codec``
    integer of a state, or the state itself when ``codec`` is ``None``;
    this one loop serves both. The control plane is a queue pair with
    the coordinator: inbound ``("inject", seq, depth, payload)`` blocks
    (seeding, relays and crash re-dispatches), ``("dead", w)``
    membership updates and ``None`` (stop); outbound ``("hello",
    wid)``, ``("relay", wid, dst, depth, payload)`` for blocks a ring
    would not take, ``("dead_ack", wid, w)``, one ``("ack", ...)`` per
    expansion quantum and a final ``("bye", wid, n_visited)``.

    Exactness contract: a quantum's states and transitions are counted
    *iff* its ack reaches the coordinator, and the ring read counters
    advance only *after* the ack has been handed to the control queue —
    so everything an unacked quantum consumed is still physically in
    this worker's inbound rings (or in the coordinator's inject ledger)
    when the worker dies, and already-acked keys travel on the ack
    itself into the coordinator's :class:`_AckLedger` for duplicate
    suppression.

    Quantum sizing is adaptive (:class:`~repro.lts.shmring.AdaptiveBatch`):
    each quantum's measured expansion rate retargets the next gather to
    ``_QUANTUM_TARGET_S`` of work — a fixed batch size forces thousands
    of tiny round trips on fast models.
    """
    gc.disable()  # allocation-heavy sweep loop; the process is short-lived
    pack, unpack = fmt.pack, fmt.unpack
    if codec is None:
        decode = encode = _same
    else:
        decode, encode = codec.decode, codec.encode
    succ_fn = getattr(system, "successors_fast", None) or system.successors
    visited: set = set()
    # -- worker-local shipping caches (speed only, never correctness) --
    # ship_memo: successor state -> (owner, key). Successor events
    # repeat heavily (the same state is generated along many
    # transitions), and one flat dict hit replaces the codec walk and
    # the owner mix on every repeat; byte packing happens at ship time
    # only, so chased keys never pay it.
    ship_memo: dict = {}
    # a lone worker owns every key: skip the owner mix per successor
    single = n_workers == 1
    # shipped: keys this worker already forwarded. A key's owner is a
    # pure function of the key, so a second ship of the same key is a
    # guaranteed duplicate at the same consumer — skip the transport
    # entirely. Safe under crashes: recovery only ever relies on the
    # first copy (ring drain + acked-key filtering), never on repeats.
    shipped: set = set()
    # stash: self-owned key -> already-decoded state, filled at ship
    # time and popped at consume time, skipping the decode for every
    # state this worker both generated and owns.
    stash: dict = {}
    stash_pop = stash.pop
    adapt = AdaptiveBatch(
        initial=batch_size, lo=_QUANTUM_LO, hi=_QUANTUM_HI,
        target_s=_QUANTUM_TARGET_S,
    )
    cursors = [r.rd_bytes for r in rings_in]
    injects: deque = deque()
    dead: set[int] = set()
    stop = False
    answered = 0
    clock = time.perf_counter
    wtracer, wmem = _worker_obs(trace_dir, wid, clock_origin)

    def _ctrl(msg):
        nonlocal stop
        if msg is None:
            stop = True
        elif msg[0] == "inject":
            injects.append((msg[1], msg[2], msg[3]))
        elif msg[0] == "dead":
            # after this answer the coordinator may drain msg[1]'s
            # inbound rings, so never write to them again
            dead.add(msg[1])
            ctrl_out.put(("dead_ack", wid, msg[1]))

    ctrl_out.put(("hello", wid))
    backoff = 0.0005
    while True:
        while True:
            try:
                _ctrl(ctrl_in.get_nowait())
            except Empty:
                break
        if stop:
            if wtracer is not None:
                wmem.close()
                wtracer.close()
            ctrl_out.put(("bye", wid, len(visited)))
            return

        # -- gather one quantum (rings round-robin, then injects) ----
        t_get = clock() if instrument else 0.0
        target = adapt.size
        quantum = []  # (depth, keys) per transport record
        consumed = [0] * n_workers    # ring records taken, per producer
        consumed_b = [0] * n_workers  # ring bytes taken (pads included)
        inject_seqs = []
        n_keys = 0
        progressed = True
        while n_keys < target and progressed:
            progressed = False
            for p in range(n_workers):
                rec = rings_in[p].peek(cursors[p])
                if rec is None:
                    continue
                depth, payload, nxt = rec
                keys = unpack(payload)
                quantum.append((depth, keys))
                consumed[p] += 1
                consumed_b[p] += nxt - cursors[p]
                cursors[p] = nxt
                n_keys += len(keys)
                progressed = True
                if n_keys >= target:
                    break
        while injects and n_keys < target:
            seq, depth, payload = injects.popleft()
            keys = unpack(payload)
            quantum.append((depth, keys))
            inject_seqs.append(seq)
            n_keys += len(keys)
        get_s = clock() - t_get if instrument else 0.0

        if not quantum:
            # starved: sleep on the control inbox (which is also where
            # membership changes and stop arrive) with growing backoff
            try:
                _ctrl(ctrl_in.get(timeout=backoff))
            except Empty:
                backoff = min(backoff * 2.0, _IDLE_BACKOFF_MAX)
            continue
        backoff = 0.0005
        if wtracer is not None:
            # quantum pickup: opens the (worker, seq) latency window the
            # coordinator-side ack for the same seq will close
            wtracer.emit(
                "ring_get", worker=wid, seq=answered,
                records=len(quantum), keys=n_keys,
                seconds=round(get_s, 6),
            )

        # -- fault injection (see repro.lts.faults) -----------------
        if fault is not None:
            if (
                fault.kill_after is not None
                and answered >= fault.kill_after
            ):
                crash_process(ctrl_out)
            if fault.delay:
                time.sleep(fault.delay)
        succ = succ_fn
        if fault is not None and fault.raise_at == answered:
            succ = fault.raising_successors(wid)

        # -- expand --------------------------------------------------
        # Two passes: first every ring/inject key taken above
        # (mandatory — their records are acked as consumed), then
        # *chased* self-owned successors. Chasing is the transport's
        # biggest saving: a successor this worker owns is expanded in
        # the same quantum with its already-built state in hand
        # — no packing, no self-ring round trip, no decode — and
        # still rides the quantum's ack (counted iff acked; its
        # successors are flushed before the ack like any other).
        # Chasing stops at twice the quantum target so flushes keep
        # flowing to the other owners; leftovers spill to the
        # self-ring exactly as before (with their decoded states
        # stashed, so the spill costs no decode either). The expansion
        # body is spelled out twice on purpose — an extra function
        # call or per-key tuple here is a measurable slice of the
        # per-state budget.
        t0 = clock()
        succ_s = 0.0
        new_keys: list = []
        new_keys_append = new_keys.append
        collected = []
        n_trans = 0
        n_dead = 0
        max_d = 0
        # per destination, per successor depth, the keys to ship
        # (packed into blocks at flush time)
        out: list[dict[int, list]] = [{} for _ in range(n_workers)]
        memo_get = ship_memo.get
        chase: deque = deque()
        chase_append = chase.append
        chase_pop = chase.popleft
        chase_cap = 2 * target
        visited_add = visited.add
        shipped_add = shipped.add
        for depth, keys in quantum:
            if depth > max_d:
                max_d = depth
            d1 = depth + 1
            for k in keys:
                if k in visited:
                    stash_pop(k, None)  # release a stale stash entry
                    continue
                visited_add(k)
                new_keys_append(k)
                state = stash_pop(k, None)
                if state is None:
                    state = decode(k)
                if instrument:
                    ts = clock()
                    succs = list(succ(state))
                    succ_s += clock() - ts
                else:
                    succs = succ(state)
                    if type(succs) is not list:
                        succs = list(succs)
                n_trans += len(succs)
                if not succs:
                    n_dead += 1
                for label, nxt in succs:
                    rec = memo_get(nxt)
                    if rec is None:
                        nk = encode(nxt)
                        if single:
                            q = wid
                        else:
                            # inlined key_owner(nk, n_workers) — the
                            # splitmix64 finaliser written out to skip
                            # a function call per first-seen successor;
                            # asserted equal in tests so routing stays
                            # path-independent
                            h = hash(nk) & _M64
                            h = ((h ^ (h >> 30))
                                 * 0xBF58476D1CE4E5B9) & _M64
                            h = ((h ^ (h >> 27))
                                 * 0x94D049BB133111EB) & _M64
                            q = (h ^ (h >> 31)) % n_workers
                        rec = ship_memo[nxt] = (q, nk)
                    else:
                        q, nk = rec
                    if collect:
                        collected.append((k, label, nk))
                    if nk in shipped or nk in visited:
                        continue  # provably a duplicate at the consumer
                    shipped_add(nk)
                    if q == wid:
                        chase_append((d1, nk, nxt))  # expand locally
                        continue
                    ob = out[q]
                    blk = ob.get(d1)
                    if blk is None:
                        blk = ob[d1] = []
                    blk.append(nk)
        n_before_chase = len(new_keys)
        while chase and n_keys < chase_cap:
            depth, k, state = chase_pop()
            n_keys += 1
            if k in visited:
                continue  # shipped to us meanwhile, expanded above
            visited_add(k)
            new_keys_append(k)
            if depth > max_d:
                max_d = depth
            d1 = depth + 1
            if instrument:
                ts = clock()
                succs = list(succ(state))
                succ_s += clock() - ts
            else:
                succs = succ(state)
                if type(succs) is not list:
                    succs = list(succs)
            n_trans += len(succs)
            if not succs:
                n_dead += 1
            for label, nxt in succs:
                rec = memo_get(nxt)
                if rec is None:
                    nk = encode(nxt)
                    if single:
                        q = wid
                    else:
                        h = hash(nk) & _M64
                        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _M64
                        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _M64
                        q = (h ^ (h >> 31)) % n_workers
                    rec = ship_memo[nxt] = (q, nk)
                else:
                    q, nk = rec
                if collect:
                    collected.append((k, label, nk))
                if nk in shipped or nk in visited:
                    continue
                shipped_add(nk)
                if q == wid:
                    chase_append((d1, nk, nxt))
                    continue
                ob = out[q]
                blk = ob.get(d1)
                if blk is None:
                    blk = ob[d1] = []
                blk.append(nk)
        # chase leftovers beyond the cap: spill to the self-ring
        ob = out[wid]
        for d1, nk, nxt in chase:
            if nk in visited:
                continue
            stash[nk] = nxt
            blk = ob.get(d1)
            if blk is None:
                blk = ob[d1] = []
            blk.append(nk)
        expand_s = clock() - t0
        if len(ship_memo) > _SHIP_CACHE_MAX:
            ship_memo.clear()
        if len(shipped) > _SHIP_CACHE_MAX:
            shipped.clear()
        if wtracer is not None and len(new_keys) > n_before_chase:
            wtracer.emit(
                "local_chase", worker=wid, seq=answered,
                chased=len(new_keys) - n_before_chase,
            )

        # -- flush successor blocks straight to their owners ---------
        t1 = clock() if instrument else 0.0
        max_keys = max(target, _QUANTUM_LO)
        n_blocks = 0
        n_bytes_out = 0
        for q in range(n_workers):
            per_depth = out[q]
            if not per_depth:
                continue
            ring = None if q in dead else rings_out[q]
            for d1, keys in per_depth.items():
                for i in range(0, len(keys), max_keys):
                    block = pack(keys[i: i + max_keys])
                    n_blocks += 1
                    n_bytes_out += len(block)
                    if ring is None or not ring.try_write(d1, block):
                        # dead owner or full ring: control-plane detour
                        ctrl_out.put(("relay", wid, q, d1, block))
        put_s = clock() - t1 if instrument else 0.0
        if wtracer is not None and n_blocks:
            wtracer.emit(
                "ring_put", worker=wid, seq=answered, blocks=n_blocks,
                n_bytes=n_bytes_out, seconds=round(put_s, 6),
            )

        # -- acknowledge, then (and only then) release ring input ----
        consumed_list = [
            (p, consumed[p], consumed_b[p])
            for p in range(n_workers)
            if consumed[p]
        ]
        ctrl_out.put((
            "ack", wid, consumed_list, inject_seqs, pack(new_keys),
            n_trans, n_dead, len(visited), collected, max_d,
            round(succ_s, 6), round(expand_s, 6),
            round(put_s, 6), round(get_s, 6), answered,
        ))
        if wtracer is not None:
            wtracer.emit(
                "ack", worker=wid, seq=answered, depth=max_d,
                states=len(new_keys), transitions=n_trans,
                visited=len(visited),
                succ_s=round(succ_s, 6), expand_s=round(expand_s, 6),
                ring_put_s=round(put_s, 6), ring_get_s=round(get_s, 6),
            )
            wmem.note("visited", sys.getsizeof(visited))
            wmem.note("ship_memo", sys.getsizeof(ship_memo))
            wmem.sample()
        for p, recs, nbytes in consumed_list:
            rings_in[p].commit(nbytes, recs)
        answered += 1
        adapt.update(n_keys, expand_s)


def _shm_sweep(
    system, n_workers, collect, max_states, stats, codec,
    faults: FaultPlan | None = None,
    poll: float = _POLL,
    batch_size: int = _BATCH,
    ring_bytes: int = DEFAULT_RING_BYTES,
    obs=None,
    trace_dir=None,
):
    """The pipelined sweep of the process backend, over the
    shared-memory rings.

    Data flows owner-to-owner through the ``n_workers``-squared ring
    matrix (see :mod:`repro.lts.shmring`); the coordinator handles only
    control traffic — the per-quantum acks that carry the counts and
    the recovery ledger, relays for blocks a ring would not take,
    membership changes, and termination detection.

    Termination is a shared-memory balance check: the sweep is quiescent
    exactly when (a) no crash recovery is mid-flight, (b) every
    injected block has been acked, (c) every ring's write counters
    equal its read counters, (d) per live worker the records its rings
    say it consumed all appear in received acks, and (e) a second scan
    sees identical counters. Any in-progress quantum violates one of
    these: consumed-but-unacked records hold (d) (ring tails advance
    only after the ack is queued, and an ack, once received, implies
    the blocks it flushed were already in the rings — workers flush
    before acking), unconsumed blocks hold (c), and un-acked injects
    hold (b).

    Crash recovery rests on three invariants — counted iff acked,
    rendezvous re-partitioning, the acked-key ledger — applied to ring
    state: a dead worker's unconsumed ring input is physically
    still there, so after a two-phase membership broadcast (every live
    peer must ack ``("dead", w)`` before the coordinator reads rings it
    might still be writing) the coordinator drains those rings, filters
    the dead worker's acked keys out, and re-injects the rest to the
    rendezvous survivors.
    """
    recording = obs is not None and obs.enabled
    tracer = obs.tracer if recording else None
    clock_origin = obs.tracer.epoch if recording else 0.0
    if not recording:
        trace_dir = None
    ctx = mp.get_context("fork")
    fmt = KeyFormat(None if codec is None else codec.n_bytes)
    init = system.initial_state()
    init_item = init if codec is None else codec.encode(init)

    #: rings[p][q] carries key blocks from producer p to consumer q
    rings = [
        [RingBuffer.create(ring_bytes) for _q in range(n_workers)]
        for _p in range(n_workers)
    ]
    if recording:
        # the ring matrix is the transport's fixed memory footprint
        obs.memwatch.note(
            "shm_rings", n_workers * n_workers * rings[0][0].capacity
        )
    # real Queues on both directions: workers need a timed control get
    # (idle backoff), the coordinator a timed outbox get (liveness)
    ctrl_ins = [ctx.Queue() for _ in range(n_workers)]
    ctrl_out = ctx.Queue()
    workers = [
        ctx.Process(
            target=_shm_worker_main,
            args=(system, n_workers, w, ctrl_ins[w], ctrl_out,
                  [rings[p][w] for p in range(n_workers)],
                  [rings[w][q] for q in range(n_workers)],
                  collect, codec, fmt, batch_size,
                  faults.for_worker(w) if faults is not None else None,
                  recording, trace_dir, clock_origin),
            daemon=True,
        )
        for w in range(n_workers)
    ]
    t_spawn0 = time.perf_counter()
    for p in workers:
        p.start()

    live = list(range(n_workers))
    dead: set[int] = set()
    dead_visited: set = set()
    acked = [_AckLedger(fmt) for _ in range(n_workers)]
    #: per worker, seq -> (depth, payload) for every unacked inject
    inject_ledger: list[dict[int, tuple[int, bytes]]] = [
        {} for _ in range(n_workers)
    ]
    #: ring records covered by received acks, per consumer
    acked_recs = [0] * n_workers
    #: dead worker -> live peers whose dead_ack is still outstanding
    reaping: dict[int, set[int]] = {}
    sizes = [0] * n_workers
    n_batches = [0] * n_workers
    transitions = []
    n_trans = 0
    n_dead = 0
    max_depth = 0
    total_quanta = 0
    next_seq = 0
    limit_hit = False
    relayed = 0
    t_sweep0 = time.perf_counter()
    #: instrumented-only accumulators (see DistributedStats docstring)
    worker_succ_s = 0.0
    worker_expand_s = 0.0
    ring_put_s = 0.0
    ring_get_s = 0.0
    coord_handle_s = 0.0
    coord_idle_s = 0.0

    def _fill_stats():
        stats.states = sum(sizes)
        stats.transitions = n_trans
        stats.deadlocks = n_dead
        stats.per_worker_states = sizes
        stats.per_worker_batches = n_batches
        stats.levels = max_depth + 1
        stats.batches = total_quanta
        stats.relayed_batches = relayed
        stats.worker_succ_s = round(worker_succ_s, 6)
        stats.worker_expand_s = round(worker_expand_s, 6)
        stats.coord_handle_s = round(coord_handle_s, 6)
        stats.coord_idle_s = round(coord_idle_s, 6)
        stats.ring_put_s = round(ring_put_s, 6)
        stats.ring_get_s = round(ring_get_s, 6)

    def _inject(w, depth, payload):
        nonlocal next_seq
        inject_ledger[w][next_seq] = (depth, payload)
        ctrl_ins[w].put(("inject", next_seq, depth, payload))
        next_seq += 1

    def _route_block(dst, depth, payload):
        # control-plane routing (seeding, relays, recovery): blocks
        # aimed at a live owner are injected whole; a dead owner's keys
        # are filtered against its reconstructed visited set and
        # re-partitioned over the survivors — rendezvous hashing, so
        # the chosen survivor never migrates under further crashes
        if dst not in dead:
            _inject(dst, depth, payload)
            return
        regrouped: dict[int, list] = {}
        for k in fmt.unpack(payload):
            if k in dead_visited:
                continue
            regrouped.setdefault(live_owner(k, live), []).append(k)
        for w, keys in regrouped.items():
            _inject(w, depth, fmt.pack(keys))

    def _finalize_reap(w):
        # every live peer confirmed it will no longer write to w's
        # inbound rings, and dead producers stopped by definition, so
        # the drain below cannot race a writer
        del reaping[w]
        n_redis = 0
        for p in range(n_workers):
            for depth, payload in rings[p][w].drain_unconsumed():
                _route_block(w, depth, payload)
                n_redis += 1
        stats.redispatched_batches += n_redis
        if tracer is not None:
            tracer.emit("redispatch", worker=w, batches=n_redis)

    def _reap(w):
        live.remove(w)
        dead.add(w)
        stats.worker_deaths += 1
        if tracer is not None:
            tracer.emit(
                "worker_death", worker=w, inflight=len(inject_ledger[w]),
                pending=0, alive=len(live), visited=sizes[w],
            )
        dead_visited.update(acked[w].to_set())
        acked[w].clear()
        # w owes no dead_acks any more; finalize reaps it was blocking
        for peers in reaping.values():
            peers.discard(w)
        for dw in [dw for dw, peers in list(reaping.items()) if not peers]:
            _finalize_reap(dw)
        if not live:
            _fill_stats()
            raise WorkerFailureError(
                f"all {n_workers} workers died before the sweep finished",
                stats=stats,
            )
        # unacked injected blocks re-route immediately (coordinator
        # memory); unacked ring input needs the two-phase drain below
        lost = list(inject_ledger[w].values())
        inject_ledger[w] = {}
        stats.redispatched_batches += len(lost)
        for depth, payload in lost:
            _route_block(w, depth, payload)
        reaping[w] = set(live)
        for p in live:
            ctrl_ins[p].put(("dead", w))

    def _handle(msg):
        nonlocal n_trans, n_dead, max_depth, limit_hit, relayed
        nonlocal total_quanta, worker_succ_s, worker_expand_s
        nonlocal ring_put_s, ring_get_s, coord_handle_s
        kind = msg[0]
        if kind == "ack":
            t_handle = time.perf_counter() if recording else 0.0
            (_tag, wid, consumed, inject_seqs, keys_blob, t, d, n_visited,
             coll, max_d, succ_s, expand_s, put_s, get_s, seq) = msg
            if wid in dead:  # pragma: no cover - acks drain before reaps
                return
            for _p, recs, _nbytes in consumed:
                acked_recs[wid] += recs
            for seq in inject_seqs:
                inject_ledger[wid].pop(seq, None)
            acked[wid].add_bytes(keys_blob)
            n_batches[wid] += 1
            total_quanta += 1
            sizes[wid] = n_visited
            n_trans += t
            n_dead += d
            transitions.extend(coll)
            if max_d > max_depth:
                max_depth = max_d
            if max_states is not None and sum(sizes) > max_states:
                limit_hit = True
            if recording:
                worker_succ_s += succ_s
                worker_expand_s += expand_s
                ring_put_s += put_s
                ring_get_s += get_s
                tracer.emit(
                    "ack", worker=wid, seq=seq, depth=max_d, transitions=t,
                    visited=n_visited, succ_s=succ_s, expand_s=expand_s,
                    ring_put_s=put_s, ring_get_s=get_s,
                )
                obs.metrics.counter(
                    "repro_dist_batches_total", worker=wid
                ).inc()
                coord_handle_s += time.perf_counter() - t_handle
        elif kind == "relay":
            _tag, _wid, dst, depth, payload = msg
            relayed += 1
            _route_block(dst, depth, payload)
        elif kind == "dead_ack":
            peers = reaping.get(msg[2])
            if peers is not None:
                peers.discard(msg[1])
                if not peers:
                    _finalize_reap(msg[2])
        # "hello" is consumed by the spawn barrier; late ones ignored

    def _check_liveness():
        crashed = [w for w in live if workers[w].exitcode is not None]
        if not crashed:
            return
        # a worker's sends complete before it can show an exit code:
        # drain the delivered acks first, they close the ledger the
        # recovery filter relies on
        while True:
            try:
                _handle(ctrl_out.get_nowait())
            except Empty:
                break
        for w in crashed:
            if w in live:
                _reap(w)

    def _scan():
        return [
            rings[p][q].counters()
            for q in live for p in range(n_workers)
        ]

    def _quiescent():
        if reaping:
            return False
        if any(inject_ledger[w] for w in live):
            return False
        snap = _scan()
        if any(c[0] != c[1] or c[2] != c[3] for c in snap):
            return False  # unconsumed (or torn mid-quantum) ring data
        idx = 0
        for q in live:
            rd_total = 0
            for _p in range(n_workers):
                rd_total += snap[idx][3]
                idx += 1
            if rd_total != acked_recs[q]:
                return False  # consumed records whose ack is in flight
        return _scan() == snap  # nothing moved while we looked

    def _sample():
        tracer.emit(
            "coord_sample", states=sum(sizes), alive=len(live),
            inject_pending=[len(led) for led in inject_ledger],
        )
        obs.memwatch.note("ack_ledger", sum(a.nbytes for a in acked))
        obs.memwatch.sample()
        elapsed = time.perf_counter() - t_sweep0
        total = sum(sizes)
        obs.progress.maybe(
            states=total,
            sps=total / elapsed if elapsed > 0 else 0.0,
            workers=f"{len(live)}/{n_workers}",
        )

    since_check = 0
    try:
        # spawn barrier: every worker says hello before the seed goes
        # out, so ``stats.spawn_s`` isolates fork + interpreter warm-up
        # from the sweep proper (bench reports the two separately)
        awaiting_hello = set(live)
        hello_deadline = time.monotonic() + _SPAWN_DEADLINE
        while awaiting_hello:
            try:
                msg = ctrl_out.get(timeout=poll)
            except Empty:
                for w in [w for w in live
                          if workers[w].exitcode is not None]:
                    awaiting_hello.discard(w)
                    _reap(w)
                if time.monotonic() > hello_deadline:  # pragma: no cover
                    _fill_stats()
                    raise WorkerFailureError(
                        f"workers {sorted(awaiting_hello)} never said "
                        f"hello within {_SPAWN_DEADLINE}s",
                        stats=stats,
                    )
                continue
            if msg[0] == "hello":
                awaiting_hello.discard(msg[1])
            else:
                _handle(msg)
        stats.spawn_s = round(time.perf_counter() - t_spawn0, 6)
        # seed: the initial state is the one coordinator-routed data
        # block of a crash-free sweep
        _route_block(_owner(init_item, n_workers), 0, fmt.pack([init_item]))
        while not limit_hit:
            if _quiescent():
                break
            try:
                if recording:
                    t_get = time.perf_counter()
                    try:
                        msg = ctrl_out.get(timeout=poll)
                    except Empty:
                        coord_idle_s += time.perf_counter() - t_get
                        raise
                else:
                    msg = ctrl_out.get(timeout=poll)
            except Empty:
                if recording:
                    _sample()
                _check_liveness()
                continue
            _handle(msg)
            since_check += 1
            if since_check >= _CRASH_CHECK_EVERY:
                since_check = 0
                if recording:
                    _sample()
                _check_liveness()
    finally:
        for w in live:
            try:
                ctrl_ins[w].put(None)
            except (OSError, ValueError):  # pragma: no cover
                pass
        awaiting = set(live)
        deadline = time.monotonic() + 10.0
        while awaiting and time.monotonic() < deadline:
            try:
                msg = ctrl_out.get(timeout=0.25)
            except Empty:
                for w in list(awaiting):
                    if workers[w].exitcode is not None:
                        awaiting.discard(w)  # died during shutdown
                continue
            if msg[0] == "bye":
                sizes[msg[1]] = msg[2]
                awaiting.discard(msg[1])
            # residual acks/relays of an aborted sweep are dropped
        for p in workers:
            p.join(timeout=5)
            if p.is_alive():  # pragma: no cover
                p.terminate()
                p.join(timeout=5)
        for row in rings:
            for ring in row:
                ring.close()
                ring.unlink()
    _fill_stats()
    stats.recovered = stats.worker_deaths > 0
    if limit_hit or (max_states is not None and stats.states > max_states):
        raise ExplorationLimitError(
            f"state limit {max_states} exceeded", stats=stats
        )
    return transitions, init_item


class _Collected:
    """Collected transitions as a system :func:`explore` can number."""

    def __init__(self, init, adj):
        self._init = init
        self._adj = adj

    def initial_state(self):
        return self._init

    def successors(self, state):
        return self._adj.get(state, ())


def distributed_explore(
    system: TransitionSystem,
    *,
    n_workers: int = 4,
    backend: str = "process",
    collect: bool = False,
    max_states: int | None = None,
    faults: FaultPlan | None = None,
    poll_interval: float = _POLL,
    batch_size: int | None = None,
    transport: str | None = None,
    ring_bytes: int = DEFAULT_RING_BYTES,
    certificate=None,
    obs=None,
    trace_dir: str | None = None,
) -> tuple[LTS | None, DistributedStats]:
    """Partitioned sweep of ``system`` (pipelined when ``"process"``).

    Parameters
    ----------
    system:
        Any :class:`~repro.lts.explore.TransitionSystem`. A system with
        a ``codec()`` has its states shipped and stored as packed codec
        keys; any other system has its states shipped as pickles and
        deduplicated by equality.
    n_workers:
        Number of partitions (cluster nodes in the paper's setting).
    backend:
        ``"process"`` for pipelined worker processes over the
        shared-memory rings (needs the ``fork`` start method),
        ``"inline"`` for the deterministic bulk-synchronous in-process
        rendition.
    collect:
        When true, transitions are shipped back and an explicit
        :class:`LTS` is assembled (only sensible for small systems); the
        returned LTS is otherwise ``None``.
    max_states:
        Abort when the visited total exceeds this bound. The raised
        :class:`~repro.errors.ExplorationLimitError` carries the
        partially filled stats on its ``stats`` attribute.
    faults:
        Optional :class:`~repro.lts.faults.FaultPlan` injected into the
        workers (``"process"`` backend only) — the test harness for the
        crash-recovery path.
    poll_interval:
        Upper bound, in seconds, on how long the coordinator blocks
        before re-checking worker liveness (``"process"`` backend).
    batch_size:
        Initial expansion quantum in states (``"process"`` backend;
        default 256); the adaptive controller resizes later quanta.
    transport:
        Accepted for compatibility and selects nothing: ``None``,
        ``"auto"`` and ``"shm"`` all mean the shared-memory rings, the
        only data plane. ``"queue"`` (the removed pickled-queue
        transport) raises :class:`ValueError`.
    ring_bytes:
        Data capacity of each shm ring (one per ordered worker pair;
        default 1 MiB). Blocks that do not fit fall back to
        coordinator relays (``stats.relayed_batches``), so undersizing
        costs throughput, never correctness.
    certificate:
        Optional :class:`~repro.staticcheck.certificates.ReductionCertificate`.
        When given, workers sweep a certificate-validated
        :class:`~repro.lts.certreduce.ReducedSystem` view (validated
        once at the coordinator; workers inherit the wrapper
        pre-validated) and the sweep refuses with
        :class:`~repro.errors.ReproError` if the certificate does not
        validate for this system (JKL303–JKL305).
    obs:
        Optional :class:`~repro.obs.core.Instrumentation`; defaults to
        the ambient bundle. When enabled, the sweep emits lifecycle
        events (acks, worker deaths, re-dispatches, coordinator
        samples), workers time their quanta for the per-phase
        breakdown, and recovery counters land in the metrics registry.
    trace_dir:
        Directory for per-worker trace streams (``"process"`` backend,
        recording sweeps only; created if missing). Each worker writes
        its own ``trace.worker<N>.jsonl`` — quantum pickups, local
        chases, ring flushes and worker-side acks, all stamped with the
        ``(worker, seq)`` correlation id — opened with a clock
        handshake so :mod:`repro.obs.merge` can align the streams with
        the coordinator's. Defaults to ``obs.trace_dir`` (the CLI's
        ``--trace-dir`` flag, which also routes the coordinator's own
        stream into the same directory).

    Returns
    -------
    (lts, stats):
        ``lts`` is ``None`` unless ``collect`` was requested. When
        workers died mid-sweep, ``stats.recovered`` is true and the
        totals are nevertheless exact.

    Raises
    ------
    WorkerFailureError:
        All workers died; detection (and therefore the raise) happens
        within ``poll_interval`` of the last death, never a hang.
    """
    if certificate is not None:
        from repro.lts.certreduce import ReducedSystem

        system = ReducedSystem(system, certificate)
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if backend not in ("process", "inline"):
        raise ValueError(f"unknown backend {backend!r}")
    if transport == "queue":
        raise ValueError(
            "the pickled-queue transport was removed: every system now "
            "runs over the shared-memory rings (transport='shm')"
        )
    if transport not in (None, "auto", "shm"):
        raise ValueError(f"unknown transport {transport!r}")
    if backend == "process" and "fork" not in mp.get_all_start_methods():
        raise ValueError(
            "backend='process' needs the 'fork' start method (workers "
            "inherit the shared-memory rings and the parent's hash "
            "seed); use backend='inline' on this platform"
        )
    if faults is not None and backend != "process":
        raise ValueError("fault injection requires the 'process' backend")
    if poll_interval <= 0:
        raise ValueError("poll_interval must be positive")
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    codec = (
        system.codec() if getattr(system, "codec", None) is not None
        else None
    )
    rec = SweepRecorder(
        f"distributed-{backend}",
        # the process backend's reduction counters live in its workers
        system if backend == "inline" else None,
        obs,
        n_workers=n_workers, packed=codec is not None,
        transport="shm" if backend == "process" else "local",
        batch_size=batch_size or _BATCH, max_states=max_states,
    )
    obs = rec.obs
    if trace_dir is None:
        trace_dir = getattr(obs, "trace_dir", None)
    if trace_dir is not None and rec.enabled and backend == "process":
        os.makedirs(trace_dir, exist_ok=True)
    if rec.enabled and faults is not None:
        for kind, plan in (("kill", faults.kill), ("raise", faults.raise_in),
                           ("delay", faults.delay)):
            for wid, arg in sorted(plan.items()):
                obs.tracer.emit("fault_plan", worker=wid, kind=kind, arg=arg)

    def _emit_end(outcome: str) -> None:
        rec.end(outcome, stats, **{f: getattr(stats, f) for f in _END_FIELDS})
        if not rec.enabled:
            return
        m = obs.metrics
        m.counter("repro_dist_worker_deaths_total").inc(stats.worker_deaths)
        m.counter("repro_dist_redispatched_batches_total").inc(
            stats.redispatched_batches
        )
        m.gauge("repro_dist_recovered").set(int(stats.recovered))
        m.gauge("repro_dist_workers").set(n_workers)
        for w, batches in enumerate(stats.per_worker_batches):
            m.counter("repro_dist_worker_batches_total", worker=w).inc(batches)
        for w, n_states in enumerate(stats.per_worker_states):
            m.gauge("repro_dist_worker_states", worker=w).set(n_states)

    stats = DistributedStats()
    t0 = time.perf_counter()
    try:
        if backend == "inline":
            transitions, init_item = _inline_sweep(
                system, n_workers, collect, max_states, stats, codec, rec
            )
        else:
            stats.transport = "shm"
            transitions, init_item = _shm_sweep(
                system, n_workers, collect, max_states, stats, codec,
                faults=faults, poll=poll_interval,
                batch_size=batch_size or _BATCH,
                ring_bytes=ring_bytes,
                obs=obs, trace_dir=trace_dir,
            )
    except (ExplorationLimitError, WorkerFailureError) as exc:
        # an aborted sweep still reports how far it got and how long it ran
        stats.seconds = time.perf_counter() - t0
        if exc.stats is None:
            exc.stats = stats
        _emit_end(
            "limit" if isinstance(exc, ExplorationLimitError)
            else "worker_failure"
        )
        raise
    stats.seconds = time.perf_counter() - t0
    _emit_end("ok")

    if not collect:
        return None, stats
    # number the collected transitions the way every explorer does: BFS
    # from the initial key, by the serial reference (un-instrumented —
    # the renumbering is not a sweep of its own)
    adj: dict[Hashable, list[tuple[str, Hashable]]] = {}
    for s, label, d in transitions:
        adj.setdefault(s, []).append((label, d))
    return explore(_Collected(init_item, adj), obs=NULL), stats
