"""Dense numpy oracle for :func:`repro.analysis.orderings.compute_orderings`.

Computes the same least fixpoint the straightforward way, with boolean
matrices and whole-relation sweeps until nothing changes:

* ``R[x, h]`` holds ``REL(x, h)`` ("x completed ⇒ h completed");
* the dominator clause reads *every* strict dominator: ``D @ R``;
* transitivity is ``R @ R``;
* the all-partners clause is a per-row ``AND`` reduction over partner
  rows.

It shares nothing with the solver but the sync graph and the public
``strict_dominators`` view, so agreement is evidence that the solver's
idom-only dominator clause, delta folding and scheduling leave the
fixpoint unchanged.  numpy is a test-only dependency.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.analysis.orderings import OrderingInfo, strict_dominators
from repro.syncgraph.model import SyncGraph

__all__ = ["compute_orderings_matrix"]


def _bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean matrix product without integer overflow concerns."""
    return (a.astype(np.int64) @ b.astype(np.int64)) > 0


def _counting_seeds(graph: SyncGraph, doms) -> List[Tuple[object, object]]:
    """Counting-rule seeds ``(last, other)``, straight from the docs."""
    seeds = []
    for signal in graph.signals:
        senders = graph.senders_of(signal)
        accepters = graph.accepters_of(signal)
        if not senders or not accepters or len(senders) != len(accepters):
            continue
        for side, other in ((accepters, senders), (senders, accepters)):
            if len({n.task for n in side}) != 1:
                continue
            chain = sorted(
                side, key=lambda n: sum(1 for m in side if m in doms[n])
            )
            if all(a in doms[b] for a, b in zip(chain, chain[1:])):
                seeds.extend((chain[-1], o) for o in other)
    return seeds


def compute_orderings_matrix(graph: SyncGraph) -> OrderingInfo:
    """Dense-matrix equivalent of ``compute_orderings`` (converged)."""
    nodes = graph.rendezvous_nodes
    n = len(nodes)
    if n == 0:
        return OrderingInfo(nodes, [])
    index = {node: i for i, node in enumerate(nodes)}
    doms = strict_dominators(graph)
    acyclic = not graph.has_control_cycle()

    # D[x, d] = d strictly dominates x.
    dom_matrix = np.zeros((n, n), dtype=bool)
    for x in nodes:
        for d in doms[x]:
            dom_matrix[index[x], index[d]] = True

    rel = np.eye(n, dtype=bool)
    rel |= dom_matrix  # h in DOM(x)  =>  REL(x, h)
    if acyclic:
        for x, h in _counting_seeds(graph, doms):
            rel[index[x], index[h]] = True

    partner_rows = [
        (index[x], np.array([index[p] for p in graph.sync_neighbors(x)]))
        for x in nodes
        if graph.sync_neighbors(x)
    ]
    while True:
        before = rel.sum()
        rel |= _bool_matmul(dom_matrix, rel)
        for xi, rows in partner_rows:
            rel[xi] |= np.logical_and.reduce(rel[rows], axis=0)
        if acyclic:
            rel |= _bool_matmul(rel, rel)
        if rel.sum() == before:
            break

    # precedes(h, k): some strict dominator d of k has REL(d, h).
    reached_implies = _bool_matmul(dom_matrix, rel)  # [k, h]
    np.fill_diagonal(reached_implies, False)
    preceded_by = []
    for k in range(n):
        row = 0
        for h in np.nonzero(reached_implies[k])[0]:
            row |= 1 << int(h)
        preceded_by.append(row)
    return OrderingInfo(nodes, preceded_by)
