"""Truss-decomposition primitives (peeling with a validity mask).

These are the workhorses shared by the index-free Online-Query (§III), DBA
(§V-A) and the verification step of dynamic maintenance (§VI-D):

* :func:`support` — per-edge count of valid, unbroken triangles;
* :func:`peel_to_truss` — cascade-remove edges below a support threshold
  (the fixpoint that defines a (k, δ)-truss);
* :func:`trussness` — full decomposition: trn(e) = max k with e ∈ k-truss,
  counting only triangles marked valid (δ-trussness when the mask encodes
  ``mts ≤ δ``; classic static trussness when all triangles are valid);
* :func:`decomph` — the δ-sweep of DBA, also run by maintenance on the
  affected subgraph (Algorithm 2 verifies with "DBA's decomph").
"""
from __future__ import annotations

import numpy as np


def support(
    m: int, tri_e: np.ndarray, tri_ok: np.ndarray, alive: np.ndarray | None = None
) -> np.ndarray:
    """Per-edge support: #triangles that are valid and have all edges alive."""
    if alive is None:
        mask = tri_ok
    else:
        mask = tri_ok & alive[tri_e].all(axis=1)
    sup = np.zeros(m, dtype=np.int64)
    if mask.any():
        np.add.at(sup, tri_e[mask].ravel(), 1)
    return sup


def peel_to_truss(
    *,
    alive: np.ndarray,
    sup: np.ndarray,
    tri_e: np.ndarray,
    tri_alive: np.ndarray,
    edge_tris: list[list[int]],
    threshold: int,
    seeds: list[int] | None = None,
) -> list[int]:
    """Cascade-remove alive edges whose support < ``threshold``, in place.

    ``tri_alive`` marks triangles that are valid *and* currently unbroken;
    it is maintained in place (a triangle dies with its first removed edge).
    ``seeds`` optionally restricts the initial scan to a candidate set (all
    alive edges are scanned when omitted). Returns removed edge ids, in
    removal order.
    """
    if seeds is None:
        stack = [int(e) for e in np.flatnonzero(alive & (sup < threshold))]
    else:
        stack = [e for e in seeds if alive[e] and sup[e] < threshold]
    removed: list[int] = []
    while stack:
        e = stack.pop()
        if not alive[e] or sup[e] >= threshold:
            continue
        alive[e] = False
        removed.append(e)
        for tid in edge_tris[e]:
            if tri_alive[tid]:
                tri_alive[tid] = False
                for e2 in tri_e[tid]:
                    e2 = int(e2)
                    if e2 != e and alive[e2]:
                        sup[e2] -= 1
                        if sup[e2] < threshold:
                            stack.append(e2)
    return removed


def trussness(
    m: int, tri_e: np.ndarray, tri_ok: np.ndarray, edge_tris: list[list[int]]
) -> np.ndarray:
    """Decomposition: trn(e) for every edge, counting only valid triangles.

    Classic peeling, levelled by k: at level k, edges that cannot keep
    support ≥ k−2 are removed with trn = k−1; survivors form the k-truss.
    Edges in no valid triangle get trn = 2 (every edge is in the 2-truss).
    """
    alive = np.ones(m, dtype=bool)
    tri_alive = tri_ok.copy()
    sup = support(m, tri_e, tri_ok)
    trn = np.full(m, 2, dtype=np.int64)
    k = 3
    n_left = int(alive.sum())
    while n_left > 0:
        removed = peel_to_truss(
            alive=alive,
            sup=sup,
            tri_e=tri_e,
            tri_alive=tri_alive,
            edge_tris=edge_tris,
            threshold=k - 2,
        )
        for e in removed:
            trn[e] = k - 1
        n_left -= len(removed)
        k += 1
        # safety: k can never exceed max support + 2
        if k > m + 3:
            raise RuntimeError("trussness failed to converge")
    return trn


def decomph(
    *,
    alive: np.ndarray,
    sup: np.ndarray,
    tri_e: np.ndarray,
    mts: np.ndarray,
    tri_alive: np.ndarray,
    edge_tris: list[list[int]],
    threshold: int,
    floor: int,
) -> list[tuple[int, int]]:
    """δ-sweep: invalidate alive triangles in descending mts down to ``floor``.

    After invalidating each mts = d group (d > ``floor``), cascade-peel the
    edges whose support fell below ``threshold``; each peeled edge leaves
    the truss between δ = d and δ = d − 1, i.e. its k-span is d. Triangles
    with mts ≤ ``floor`` stay valid. ``alive``, ``sup`` and ``tri_alive``
    are updated in place, so the survivors are ``alive`` afterwards.
    Returns every peeled (edge, d), in removal order.
    """
    tids = np.flatnonzero(tri_alive)
    order = tids[np.argsort(-mts[tids], kind="stable")]
    out: list[tuple[int, int]] = []
    i = 0
    while i < len(order):
        d = int(mts[order[i]])
        if d <= floor:
            break
        seeds: list[int] = []
        while i < len(order) and mts[order[i]] == d:
            tid = int(order[i])
            i += 1
            if tri_alive[tid]:
                tri_alive[tid] = False
                for e in tri_e[tid]:
                    e = int(e)
                    if alive[e]:
                        sup[e] -= 1
                        seeds.append(e)
        removed = peel_to_truss(
            alive=alive,
            sup=sup,
            tri_e=tri_e,
            tri_alive=tri_alive,
            edge_tris=edge_tris,
            threshold=threshold,
            seeds=seeds,
        )
        out.extend((e, d) for e in removed)
    return out
