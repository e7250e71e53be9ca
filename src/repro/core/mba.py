"""Maintenance-Based Algorithm (MBA, §V-B).

One pass over all triangles in descending order of minimum time span:
invalidating a triangle maintains every edge's *current δ-trussness*
simultaneously (Lemmas 1–3), and each unit decrease of trussness k → k−1
while invalidating the mts = d triangles is exactly the statement
"e ∈ H-IES between T_{k,d} and T_{k,d−1}", i.e. k-spn_k(e) = d (Lemma 4).
So MBA produces the complete k-span table — and hence both TC-Index and
DC-Index — while touching each triangle exactly once (vs once per k in DBA).

Maintained invariant (the paper's trick): for every edge e,

    ks(e) = #{ valid triangles ∆ ∋ e : L(∆) = trn(e) }

where L(∆) is the minimum trussness among ∆'s edges (Definition 10). In the
trn(e)-truss this is e's support, so e stays at its level iff
ks(e) ≥ trn(e) − 2.

When a level-k triangle is invalidated, only level-k edges can be affected
(Lemma 2), each by at most one level (Lemma 1). The cascade is a worklist
that re-checks dropped edges at their new level — so even multi-level
settles (which Lemma 1 rules out per single invalidation, but which cost
nothing to support) are handled exactly.

Implementation note: the sweep runs millions of tiny operations, so the
mutable state lives in plain Python lists/tuples — numpy scalar indexing in
this hot loop makes MBA slower than DBA, inverting the paper's Fig. 14.
"""
from __future__ import annotations

import numpy as np

from .decomposition import trussness
from .kspan import KspanTable
from .model import TemporalGraph


class _MbaState:
    """Mutable state of the δ-sweep: trussness, ks counters, validity."""

    def __init__(self, g: TemporalGraph):
        tri = g.triangles()
        all_ok = np.ones(tri.n, dtype=bool)
        trn_arr = trussness(g.m, tri.tri_e, all_ok, tri.edge_tris)
        self.m = g.m
        self.trn: list[int] = [int(x) for x in trn_arr]
        self.tri_edges: list[tuple[int, int, int]] = [
            (int(a), int(b), int(c)) for a, b, c in tri.tri_e
        ]
        self.edge_tris: list[list[int]] = tri.edge_tris
        self.tri_valid: list[bool] = [True] * tri.n
        # the sweep order: triangles by descending mts, and a cursor into it
        order = np.argsort(-tri.mts, kind="stable")
        self.mts_sorted: list[int] = [int(tri.mts[t]) for t in order]
        self.tids_sorted: list[int] = [int(t) for t in order]
        self.cursor = 0
        ks = [0] * g.m
        trn = self.trn
        for e1, e2, e3 in self.tri_edges:
            t1, t2, t3 = trn[e1], trn[e2], trn[e3]
            lvl = t1 if t1 <= t2 and t1 <= t3 else (t2 if t2 <= t3 else t3)
            if t1 == lvl:
                ks[e1] += 1
            if t2 == lvl:
                ks[e2] += 1
            if t3 == lvl:
                ks[e3] += 1
        self.ks = ks

    def level(self, tid: int) -> int:
        e1, e2, e3 = self.tri_edges[tid]
        trn = self.trn
        return min(trn[e1], trn[e2], trn[e3])

    def recount(self, e: int) -> int:
        """Recompute ks(e) from scratch at e's current level."""
        k = self.trn[e]
        trn, tri_edges, tri_valid = self.trn, self.tri_edges, self.tri_valid
        cnt = 0
        for tid in self.edge_tris[e]:
            if tri_valid[tid]:
                e1, e2, e3 = tri_edges[tid]
                if min(trn[e1], trn[e2], trn[e3]) == k:
                    cnt += 1
        return cnt

    def settle(self, pending: list[int], on_drop) -> None:
        """Drain edges whose ks may violate ks ≥ trn−2; drop levels until stable.

        ``on_drop(e, k_old)`` is called for every unit decrease k_old → k_old−1.
        """
        trn, ks = self.trn, self.ks
        tri_edges, tri_valid, edge_tris = self.tri_edges, self.tri_valid, self.edge_tris
        while pending:
            e0 = pending.pop()
            k = trn[e0]
            if ks[e0] >= k - 2 or k <= 2:
                continue
            # BFS the full drop set at level k reachable from e0 (Lemma 3 ii)
            drop = {e0}
            stack = [e0]
            seen_tri: set[int] = set()
            while stack:
                e = stack.pop()
                for tid in edge_tris[e]:
                    if not tri_valid[tid] or tid in seen_tri:
                        continue
                    e1, e2, e3 = tri_edges[tid]
                    if min(trn[e1], trn[e2], trn[e3]) != k:
                        continue
                    seen_tri.add(tid)
                    for e2_ in (e1, e2, e3):
                        if e2_ == e or e2_ in drop:
                            continue
                        if trn[e2_] == k:
                            ks[e2_] -= 1
                            if ks[e2_] < k - 2:
                                drop.add(e2_)
                                stack.append(e2_)
            for e in drop:
                trn[e] = k - 1
                on_drop(e, k)
            for e in drop:
                ks[e] = self.recount(e)
                if ks[e] < trn[e] - 2 and trn[e] > 2:
                    pending.append(e)  # Lemma 1 says unreachable; exact anyway

    def invalidate(self, tid: int, on_drop) -> None:
        """Invalidate one triangle and maintain all trussness values."""
        if not self.tri_valid[tid]:
            return
        self.tri_valid[tid] = False
        trn, ks = self.trn, self.ks
        e1, e2, e3 = self.tri_edges[tid]
        k = min(trn[e1], trn[e2], trn[e3])
        pending: list[int] = []
        for e in (e1, e2, e3):
            if trn[e] == k:
                ks[e] -= 1
                if ks[e] < k - 2:
                    pending.append(e)
        if pending:
            self.settle(pending, on_drop)

    def invalidate_above(self, d: int, on_drop) -> None:
        """Continue the sweep: invalidate every triangle with mts > d."""
        mts_sorted, tids_sorted = self.mts_sorted, self.tids_sorted
        i, n = self.cursor, len(tids_sorted)
        while i < n and mts_sorted[i] > d:
            self.invalidate(tids_sorted[i], on_drop)
            i += 1
        self.cursor = i


def mba(g: TemporalGraph) -> KspanTable:
    """Full k-span table via one descending-mts sweep of triangle invalidations."""
    tri = g.triangles()
    state = _MbaState(g)
    static_trn = np.asarray(state.trn, dtype=np.int64)  # T_k keys off static trn
    kmax = int(static_trn.max()) if g.m else 2
    dmax = int(tri.mts.max()) if tri.n else 0
    spans: dict[int, np.ndarray] = {
        k: np.full(g.m, -1, dtype=np.int64) for k in range(3, kmax + 1)
    }

    # one mts = d group per step (integer mts: mts > d − 1 ⇔ mts = d here);
    # mts = 0 triangles remain valid in every (k, δ)-truss
    while state.cursor < tri.n and (d := state.mts_sorted[state.cursor]) > 0:

        def on_drop(e: int, k_old: int, d: int = d) -> None:
            if k_old >= 3:
                spans[k_old][e] = d

        state.invalidate_above(d - 1, on_drop)

    # Edges still at trussness t after the sweep have k-span 0 for all k ≤ t.
    for k in range(3, kmax + 1):
        zero = (static_trn >= k) & (spans[k] == -1)
        spans[k][zero] = 0

    return KspanTable(list(g.edges), static_trn, kmax, dmax, spans)


def mba_with_delta_trace(
    g: TemporalGraph, probe_deltas: list[int]
) -> dict[int, np.ndarray]:
    """For tests: the maintained trussness array right after each probe δ.

    Returns {δ: trn_δ} where trn_δ counts only triangles with mts ≤ δ —
    cross-checked against a fresh decomposition at each probe.
    """
    state = _MbaState(g)
    out: dict[int, np.ndarray] = {}
    for d in sorted(set(probe_deltas), reverse=True):
        state.invalidate_above(d, lambda e, k: None)
        out[d] = np.asarray(state.trn, dtype=np.int64)
    return out
