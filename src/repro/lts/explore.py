"""Explicit-state LTS generation.

This module is the serial instantiator: it turns any object implementing
the :class:`TransitionSystem` protocol (an initial state plus a successor
function over hashable states) into an explicit :class:`~repro.lts.LTS`
by breadth-first search. BFS order matters: state 0 is the initial state
and the discovered distance ordering lets deadlock analysis return
*shortest* error traces, exactly how the paper's counterexamples were
extracted.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Protocol, runtime_checkable

from repro.errors import ExplorationLimitError
from repro.lts.lts import LTS
from repro.obs.sweep import SweepRecorder


@runtime_checkable
class TransitionSystem(Protocol):
    """Anything that can be explored into an LTS.

    States must be hashable and equality-comparable; the successor
    relation must be deterministic as a *function of the state* (calling
    it twice on the same state yields the same transitions), which every
    model in this package guarantees.
    """

    def initial_state(self) -> Hashable:
        """The (single) initial state."""
        ...

    def successors(self, state: Hashable) -> Iterable[tuple[str, Hashable]]:
        """All outgoing ``(action label, next state)`` pairs of ``state``."""
        ...


@dataclass
class ExplorationStats:
    """Bookkeeping gathered while generating an LTS."""

    states: int = 0
    transitions: int = 0
    max_frontier: int = 0
    seconds: float = 0.0
    depth: int = 0
    #: states per BFS level, level 0 being the initial state
    level_sizes: list[int] = field(default_factory=list)

    def states_per_second(self) -> float:
        """Generation throughput (0 when timing was too fast to measure)."""
        return self.states / self.seconds if self.seconds > 0 else 0.0


def explore(
    system: TransitionSystem,
    *,
    max_states: int | None = None,
    max_depth: int | None = None,
    keep_states: bool = False,
    stats: ExplorationStats | None = None,
    certificate=None,
    obs=None,
) -> LTS:
    """Generate the reachable LTS of ``system`` by breadth-first search.

    Parameters
    ----------
    system:
        The transition system to instantiate.
    max_states:
        Abort with :class:`~repro.errors.ExplorationLimitError` once more
        than this many states have been discovered. The partially built
        LTS is attached to the exception, mirroring how the paper could
        only partially analyse its third configuration.
    max_depth:
        Stop expanding beyond this BFS depth (the LTS is then a
        depth-bounded under-approximation; no error is raised).
    keep_states:
        When true, store each model state in ``lts.state_meta`` so traces
        can be decoded back into protocol configurations.
    stats:
        Optional stats object to fill in. A fresh one is created when
        omitted so every exit path — including the limit error, which
        carries it on ``.stats`` — reports complete timing.
    certificate:
        Optional :class:`~repro.staticcheck.certificates.ReductionCertificate`.
        When given, the sweep runs on a certificate-validated
        :class:`~repro.lts.certreduce.ReducedSystem` view (symmetry
        quotient + ample pruning) and refuses with
        :class:`~repro.errors.ReproError` if the certificate does not
        validate for this system (JKL303–JKL305).
    obs:
        Optional :class:`~repro.obs.core.Instrumentation`; defaults to
        the ambient bundle (disabled unless activated).

    Returns
    -------
    LTS
        States are numbered in BFS discovery order; state 0 is initial.
    """
    if certificate is not None:
        from repro.lts.certreduce import ReducedSystem

        system = ReducedSystem(system, certificate)
    if stats is None:
        stats = ExplorationStats()
    t0 = time.perf_counter()
    lts = LTS(initial=0)
    init = system.initial_state()
    index: dict[Hashable, int] = {init: 0}
    lts.ensure_states(1)
    if keep_states:
        lts.state_meta[0] = init

    frontier: list[Hashable] = [init]
    depth = 0
    level_sizes = [1]
    max_frontier = 1
    add_transition = lts.add_transition
    rec = SweepRecorder(
        "serial", system, obs, max_states=max_states, max_depth=max_depth
    )
    succ = rec.timed(system.successors)

    def _finish(outcome: str) -> None:
        stats.states = len(index)
        stats.transitions = lts.n_transitions
        stats.max_frontier = max_frontier
        stats.seconds = time.perf_counter() - t0
        stats.depth = depth
        stats.level_sizes = level_sizes
        rec.end(
            outcome, stats, visited_bytes=sys.getsizeof(index),
            depth=depth, max_frontier=max_frontier,
        )

    while frontier:
        if max_depth is not None and depth >= max_depth:
            break
        next_frontier: list[Hashable] = []
        for state in frontier:
            sidx = index[state]
            for label, nxt in succ(state):
                didx = index.get(nxt)
                if didx is None:
                    didx = len(index)
                    index[nxt] = didx
                    lts.ensure_states(didx + 1)
                    if keep_states:
                        lts.state_meta[didx] = nxt
                    next_frontier.append(nxt)
                    if max_states is not None and len(index) > max_states:
                        add_transition(sidx, label, didx)
                        max_frontier = max(max_frontier, len(next_frontier))
                        _finish("limit")
                        raise ExplorationLimitError(
                            f"state limit {max_states} exceeded at depth {depth}",
                            partial=lts,
                            stats=stats,
                        )
                add_transition(sidx, label, didx)
        depth += 1
        frontier = next_frontier
        if frontier:
            level_sizes.append(len(frontier))
        max_frontier = max(max_frontier, len(frontier))
        if rec.enabled:
            rec.wave(
                depth, len(index), len(frontier), lts.n_transitions,
                sys.getsizeof(index),
            )

    _finish("ok")
    return lts

