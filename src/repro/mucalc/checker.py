"""Evaluation of regular alternation-free mu-calculus formulas on LTSs.

The checker works in three stages:

1. **regular expansion** — modalities over regular formulas are compiled
   to plain single-step modalities plus fixpoints, using the standard
   identities ``[R1.R2]f = [R1][R2]f``, ``[R1|R2]f = [R1]f /\\ [R2]f``,
   ``[R*]f = nu X. (f /\\ [R]X)`` and their diamond duals;
2. **static checks** — the result must be closed and alternation free;
3. **evaluation** — bottom-up over numpy boolean vectors indexed by
   state. Fixpoints whose variable occurs exactly once, directly under a
   single-step modality, are solved by linear-time worklist algorithms
   (reverse reachability for diamonds, the counting algorithm for
   boxes); everything else falls back to Kleene iteration. The worklists
   are level-synchronous frontier passes over a reverse CSR of the
   predicate's edges: each pass gathers every predecessor of the whole
   frontier at once and settles them with one ``np.unique``, and since a
   state enters a frontier at most once, each edge is gathered at most
   once. Closed subformulas are memoised per evaluation context, so a
   fixpoint nested inside another is solved once.

The worklist fast paths matter: the paper's Requirement 3/4 formulas on
multi-million-state LTSs would need thousands of full-vector Kleene
rounds otherwise. Each pass is a fixed handful of numpy calls, so an
LTS shaped like a long chain costs one pass per link (the ``levels``
field of the ``fixpoint`` trace event).
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from repro.errors import FormulaSemanticsError
from repro.lts.lts import LTS
from repro.obs.core import current as _current_obs
from repro.mucalc.syntax import (
    ActionPredicate,
    And,
    Box,
    Diamond,
    Ff,
    Formula,
    Mu,
    Not,
    Nu,
    Or,
    RAct,
    RAlt,
    Regular,
    RSeq,
    RStar,
    Tt,
    Var,
    assert_alternation_free,
    free_variables,
)

# ---------------------------------------------------------------------------
# stage 1: regular expansion
# ---------------------------------------------------------------------------

_fresh_counter = itertools.count()


def _fresh_var() -> str:
    return f"_R{next(_fresh_counter)}"


def expand_regular(f: Formula) -> Formula:
    """Rewrite all regular modalities into plain modalities + fixpoints."""
    if isinstance(f, (Tt, Ff, Var)):
        return f
    if isinstance(f, And):
        return And(expand_regular(f.left), expand_regular(f.right))
    if isinstance(f, Or):
        return Or(expand_regular(f.left), expand_regular(f.right))
    if isinstance(f, Not):
        return Not(expand_regular(f.inner))
    if isinstance(f, Mu):
        return Mu(f.var, expand_regular(f.body))
    if isinstance(f, Nu):
        return Nu(f.var, expand_regular(f.body))
    if isinstance(f, Diamond):
        return _expand_modal(f.reg, expand_regular(f.inner), diamond=True)
    if isinstance(f, Box):
        return _expand_modal(f.reg, expand_regular(f.inner), diamond=False)
    raise TypeError(f"not a formula: {f!r}")


def _expand_modal(reg: Regular, inner: Formula, *, diamond: bool) -> Formula:
    if isinstance(reg, RAct):
        return Diamond(reg, inner) if diamond else Box(reg, inner)
    if isinstance(reg, RSeq):
        return _expand_modal(
            reg.left, _expand_modal(reg.right, inner, diamond=diamond), diamond=diamond
        )
    if isinstance(reg, RAlt):
        left = _expand_modal(reg.left, inner, diamond=diamond)
        right = _expand_modal(reg.right, inner, diamond=diamond)
        return Or(left, right) if diamond else And(left, right)
    if isinstance(reg, RStar):
        x = _fresh_var()
        step = _expand_modal(reg.inner, Var(x), diamond=diamond)
        if diamond:
            return Mu(x, Or(inner, step))
        return Nu(x, And(inner, step))
    raise TypeError(f"not a regular formula: {reg!r}")


# ---------------------------------------------------------------------------
# stage 3: evaluation context
# ---------------------------------------------------------------------------


class _Context:
    """Per-LTS evaluation caches."""

    def __init__(self, lts: LTS):
        self.lts = lts
        self.n = lts.n_states
        src, lbl, dst = lts.transition_arrays()
        # edge columns sorted by destination once (edge order means
        # nothing else), so each predicate's reverse CSR is a mask
        self.dst = np.asarray(dst, dtype=np.int64)
        order = np.argsort(self.dst, kind="stable")
        self.dst = self.dst[order]
        self.src = np.asarray(src, dtype=np.int64)[order]
        self.lbl = np.asarray(lbl, dtype=np.int64)[order]
        self.labels = lts.labels
        self._pred_masks: dict[ActionPredicate, np.ndarray] = {}
        self._csr_cache: dict[ActionPredicate, tuple] = {}
        self._memo: dict[Formula, np.ndarray] = {}

    def label_mask(self, pred: ActionPredicate) -> np.ndarray:
        """Boolean mask over label ids matched by ``pred``."""
        mask = self._pred_masks.get(pred)
        if mask is None:
            mask = np.fromiter(
                (pred.matches(lab) for lab in self.labels),
                dtype=bool,
                count=len(self.labels),
            )
            self._pred_masks[pred] = mask
        return mask

    def edges(self, pred: ActionPredicate) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) arrays of transitions whose label matches ``pred``."""
        mask = self.label_mask(pred)
        if len(mask) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        sel = mask[self.lbl]
        return self.src[sel], self.dst[sel]

    def reverse_csr(self, pred: ActionPredicate):
        """CSR-by-destination view of the pred-matching edge set.

        Returns ``(order_src, offsets, out_count)`` where
        ``order_src[offsets[t]:offsets[t+1]]`` are the sources of
        pred-edges into ``t`` and ``out_count[s]`` is the number of
        pred-edges leaving ``s``.
        """
        cached = self._csr_cache.get(pred)
        if cached is not None:
            return cached
        order_src, dst_sel = self.edges(pred)
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst_sel, minlength=self.n), out=offsets[1:])
        out_count = np.bincount(order_src, minlength=self.n)
        cached = (order_src, offsets, out_count)
        self._csr_cache[pred] = cached
        return cached


def _diamond_step(ctx: _Context, pred: ActionPredicate, vec: np.ndarray) -> np.ndarray:
    """States with some pred-successor inside ``vec``."""
    esrc, edst = ctx.edges(pred)
    out = np.zeros(ctx.n, dtype=bool)
    if len(esrc):
        hits = esrc[vec[edst]]
        out[hits] = True
    return out


def _box_step(ctx: _Context, pred: ActionPredicate, vec: np.ndarray) -> np.ndarray:
    """States all of whose pred-successors are inside ``vec``."""
    esrc, edst = ctx.edges(pred)
    out = np.ones(ctx.n, dtype=bool)
    if len(esrc):
        viol = esrc[~vec[edst]]
        out[viol] = False
    return out


# -- fixpoint fast paths ----------------------------------------------------


def _find_single_modal_occurrence(var: str, body: Formula):
    """Locate the unique ``<p>X`` / ``[p]X`` occurrence of ``var``.

    Returns ``(node, kind)`` with ``kind`` in {"diamond", "box"} when the
    variable occurs exactly once in ``body``, directly under a
    single-step modality, and that modality sits under And/Or nodes
    only. Returns ``None`` otherwise (the caller then uses Kleene
    iteration).
    """
    found: list[tuple[Formula, str]] = []
    ok = True

    def walk(g: Formula) -> None:
        nonlocal ok
        if not ok:
            return
        if isinstance(g, Var):
            if g.name == var:
                ok = False  # bare occurrence not under a modality
            return
        if isinstance(g, (Diamond, Box)) and isinstance(g.inner, Var):
            if g.inner.name == var:
                found.append((g, "diamond" if isinstance(g, Diamond) else "box"))
                return
        if isinstance(g, (Mu, Nu)):
            if var in free_variables(g):
                ok = False  # nested fixpoint depends on var: no fast path
            return
        if isinstance(g, (Diamond, Box, Not)):
            if var in free_variables(g):
                ok = False
            return
        for c in g.children():
            walk(c)

    walk(body)
    if ok and len(found) == 1:
        return found[0]
    return None


def _solve_mu(ctx, pred, a: np.ndarray, b: np.ndarray, *, box: bool):
    """Least X with ``X = a \\/ (b /\\ M X)``, ``M`` being ``<pred>``
    (reverse reachability) or, with ``box``, ``[pred]`` (the counting
    algorithm: for a ``b`` state ``s`` outside X, ``cnt[s]`` counts its
    pred-edges not yet known to enter X, and ``s`` joins X at zero).

    Returns the solution and the number of frontier passes.
    """
    order_src, offsets, out_count = ctx.reverse_csr(pred)
    if box:
        cnt = out_count.copy()
        x = a | (b & (cnt == 0))
    else:
        x = a.copy()
    frontier = np.flatnonzero(x)
    levels = 0
    while len(frontier):
        levels += 1
        # gather every pred-edge into the frontier: edge i of the run
        # for frontier[j] sits at starts[j] + i
        starts = offsets[frontier]
        lens = offsets[frontier + 1] - starts
        run_base = np.repeat(starts - (np.cumsum(lens) - lens), lens)
        srcs = order_src[run_base + np.arange(int(lens.sum()))]
        srcs = srcs[b[srcs] & ~x[srcs]]
        if box:
            srcs, hits = np.unique(srcs, return_counts=True)
            cnt[srcs] -= hits
            frontier = srcs[cnt[srcs] == 0]
        else:
            frontier = np.unique(srcs)
        x[frontier] = True
    return x, levels


# -- the evaluator -----------------------------------------------------------


class _Evaluator:
    def __init__(self, ctx: _Context, obs=None):
        self.ctx = ctx
        self.obs = obs if obs is not None else _current_obs()
        self.hole: Formula | None = None
        self.hole_value: np.ndarray | None = None

    def eval(self, f: Formula, env: dict[str, np.ndarray]) -> np.ndarray:
        ctx = self.ctx
        if f is self.hole:
            return self.hole_value  # type: ignore[return-value]
        # a closed subformula cannot contain the hole (``<p>X`` has X
        # free), so its value is the same under every hole value
        closed = not free_variables(f)
        if closed:
            memo = ctx._memo.get(f)
            if memo is not None:
                return memo
        result = self._eval(f, env)
        if closed:
            ctx._memo[f] = result
        return result

    def _eval(self, f: Formula, env) -> np.ndarray:
        ctx = self.ctx
        n = ctx.n
        if isinstance(f, Tt):
            return np.ones(n, dtype=bool)
        if isinstance(f, Ff):
            return np.zeros(n, dtype=bool)
        if isinstance(f, Var):
            try:
                return env[f.name]
            except KeyError:
                raise FormulaSemanticsError(f"unbound variable {f.name}") from None
        if isinstance(f, And):
            return self.eval(f.left, env) & self.eval(f.right, env)
        if isinstance(f, Or):
            return self.eval(f.left, env) | self.eval(f.right, env)
        if isinstance(f, Not):
            return ~self.eval(f.inner, env)
        if isinstance(f, Diamond):
            if not isinstance(f.reg, RAct):
                raise FormulaSemanticsError(
                    "regular modality not expanded; call expand_regular first"
                )
            return _diamond_step(ctx, f.reg.pred, self.eval(f.inner, env))
        if isinstance(f, Box):
            if not isinstance(f.reg, RAct):
                raise FormulaSemanticsError(
                    "regular modality not expanded; call expand_regular first"
                )
            return _box_step(ctx, f.reg.pred, self.eval(f.inner, env))
        if isinstance(f, (Mu, Nu)):
            return self._fixpoint(f, env)
        raise TypeError(f"not a formula: {f!r}")

    def _eval_with_hole(self, body, hole, value, env) -> np.ndarray:
        saved = (self.hole, self.hole_value)
        self.hole, self.hole_value = hole, value
        try:
            return self.eval(body, env)
        finally:
            self.hole, self.hole_value = saved

    def _fixpoint(self, f: Mu | Nu, env) -> np.ndarray:
        ctx = self.ctx
        n = ctx.n
        is_mu = isinstance(f, Mu)
        recording = self.obs.enabled
        t0 = time.perf_counter() if recording else 0.0

        def _observe(mode: str, iterations: int = 0, levels=None,
                     edges=None) -> None:
            self.obs.tracer.emit(
                "fixpoint", var=f.var, op="mu" if is_mu else "nu",
                mode=mode, iterations=iterations, levels=levels,
                edges=edges, states=n,
                seconds=round(time.perf_counter() - t0, 6),
            )
            self.obs.metrics.counter(
                "repro_fixpoints_total", mode=mode
            ).inc()
            if iterations:
                self.obs.metrics.counter(
                    "repro_kleene_iterations_total"
                ).inc(iterations)

        occ = _find_single_modal_occurrence(f.var, f.body)
        if occ is not None:
            node, kind = occ
            pred = node.reg.pred  # type: ignore[union-attr]
            # pointwise the body is a \/ (b /\ D) where D is the modal value
            zeros = np.zeros(n, dtype=bool)
            ones = np.ones(n, dtype=bool)
            a = self._eval_with_hole(f.body, node, zeros, env)
            b = self._eval_with_hole(f.body, node, ones, env)
            box = kind == "box"
            if is_mu:
                out, levels = _solve_mu(ctx, pred, a, b, box=box)
            else:
                # nu X. a \/ (b /\ [p]X)  =  ~ mu Y. ~a /\ (~b \/ <p>Y)
                #                        =  ~ mu Y. a' \/ (b' /\ <p>Y)
                # with a' = ~a /\ ~b, b' = ~a; dually for <p>X and [p]Y
                out, levels = _solve_mu(ctx, pred, ~a & ~b, ~a, box=not box)
                out = ~out
            if recording:
                _observe(f"worklist-{kind}", levels=levels,
                         edges=len(ctx.reverse_csr(pred)[0]))
            return out
        # Kleene iteration fallback
        x = np.zeros(n, dtype=bool) if is_mu else np.ones(n, dtype=bool)
        env2 = dict(env)
        for rounds in range(1, n + 3):
            env2[f.var] = x
            nxt = self.eval(f.body, env2)
            if np.array_equal(nxt, x):
                if recording:
                    _observe("kleene", iterations=rounds)
                return x
            x = nxt
        raise FormulaSemanticsError(
            f"fixpoint {f.var} did not converge within {n + 2} iterations "
            "(non-monotone body?)"
        )


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def check(lts: LTS, formula: Formula) -> np.ndarray:
    """Evaluate ``formula`` on ``lts``.

    Returns a boolean vector ``v`` with ``v[s]`` true iff state ``s``
    satisfies the formula. The formula may use regular modalities; it
    must be closed and alternation free.
    """
    f = expand_regular(formula)
    assert_alternation_free(f)
    ctx = _Context(lts)
    return _Evaluator(ctx).eval(f, {})


def holds(lts: LTS, formula: Formula) -> bool:
    """Whether the initial state of ``lts`` satisfies ``formula``."""
    return bool(check(lts, formula)[lts.initial])


def satisfying_states(lts: LTS, formula: Formula) -> list[int]:
    """All states satisfying ``formula``."""
    return np.flatnonzero(check(lts, formula)).tolist()


def check_many(lts: LTS, formulas) -> list[bool]:
    """Whether the initial state satisfies each formula.

    Shares one evaluation context (label masks, reverse adjacency,
    closed-subformula memo) across all formulas — noticeably faster
    than repeated :func:`holds` calls for requirement batteries like
    the paper's, which reuse ``T*`` reachability machinery in every
    formula.
    """
    ctx = _Context(lts)
    out: list[bool] = []
    for formula in formulas:
        f = expand_regular(formula)
        assert_alternation_free(f)
        vec = _Evaluator(ctx).eval(f, {})
        out.append(bool(vec[lts.initial]))
    return out
