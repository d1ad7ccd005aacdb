"""Well-mixed 64-bit state hashing.

Python's built-in ``hash`` is deliberately cheap: small ints hash to
themselves and tuple hashing, while avalanche-free, leaves strong
arithmetic structure in the low bits. That is fine for dictionaries
(which probe with the full hash) but poor for the two places this
package reduces a hash *modulo a small number*: hash partitioning in
:mod:`repro.lts.distributed` (``owner = h % n_workers``) and bitstate
tables in :mod:`repro.lts.bitstate` (``bit = h % n_bits``). Protocol
states are nested tuples of small ints, so neighbouring states produce
clustered raw hashes and skewed partitions.

:func:`mix64` is the splitmix64 finaliser (Steele et al., the same
mixer used as a seeder for xorshift generators): a bijection on 64-bit
words with full avalanche, so every output bit depends on every input
bit. Routing raw hashes through it makes ``% n`` behave like a uniform
draw without changing equality semantics.
"""

from __future__ import annotations

from typing import Hashable, Sequence

_MASK64 = (1 << 64) - 1

#: splitmix64 increment (the golden-ratio constant), reused as the
#: second-hash salt in double hashing
GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """splitmix64 finaliser: avalanche a 64-bit word (bijective)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def state_key64(state: Hashable, key: int | None = None) -> int:
    """A well-mixed 64-bit key for ``state``.

    When the caller already holds a packed integer ``key`` for the
    state (see :class:`repro.jackal.codec.StateCodec`), it is mixed
    directly — cheaper and collision-free at the 64-bit level. Without
    one, the built-in hash is mixed, which keeps partitioning uniform
    for arbitrary hashable states.
    """
    return mix64(hash(state) if key is None else key)


def key_owner(key: Hashable, n: int) -> int:
    """The worker in ``range(n)`` owning ``key`` (stable within a run).

    ``key`` is typically a packed codec integer, but any hashable works
    (the states of a system without a codec). The inline backend, the
    process coordinator and — inlined — the ring workers all route
    through this single function, so a key's owner never depends on the
    code path that routed it: the built-in hash is avalanche-mixed by
    :func:`mix64` before the modulo, because raw hashes of packed keys
    (plain ints) and of small-int tuples carry low-bit structure that
    ``% n`` would fold into skewed partitions.
    """
    return mix64(hash(key)) % n


def live_owner(key: Hashable, live: Sequence[int]) -> int:
    """The owner of ``key`` drawn from an explicit live-worker list.

    Fault-tolerant partitioning: when workers die, the key space they
    owned must be reassigned to survivors. The assignment is rendezvous
    (highest-random-weight) hashing: every worker gets a per-key score
    — an independent mix of the key's hash and the worker id — and the
    highest-scoring live worker owns the key. Unlike reducing the hash
    modulo ``len(live)``, this is **stable under further shrinkage**:
    removing any worker other than the chosen one never changes the
    choice, so a key re-routed to survivor *A* after one crash keeps
    routing to *A* across later crashes for as long as *A* lives —
    which is what lets *A*'s visited set deduplicate rediscoveries
    instead of a second survivor expanding (and counting) the key
    again. The avalanche property of :func:`mix64` makes the per-key
    scores independent across workers, so a dead worker's keys still
    spread evenly over all survivors.
    """
    h = mix64(hash(key))
    best = live[0]
    best_score = -1
    for w in live:
        score = mix64(h ^ ((w + 1) * GOLDEN_GAMMA))
        if score > best_score:
            best_score, best = score, w
    return best


def double_hashes(h: int, k: int, n: int) -> list[int]:
    """``k`` double-hashed positions in ``range(n)`` derived from ``h``.

    The classic Bloom-filter schema ``h1 + i*h2`` with independent
    mixes of ``h``; ``h2`` is forced odd so the stride cycles through
    the whole table even when ``n`` is a power of two.
    """
    h1 = mix64(h)
    h2 = mix64(h ^ GOLDEN_GAMMA) | 1
    return [((h1 + i * h2) & _MASK64) % n for i in range(k)]
