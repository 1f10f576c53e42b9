"""Integer-indexed bitset kernels for the refined algorithm family.

The reference implementations in :mod:`repro.analysis.refined` and
:mod:`repro.analysis.extensions` run each head hypothesis through
per-edge Python closures over hashed :class:`CLGNode` sets and
re-enumerate *every* SCC of the pruned CLG.  That is faithful to the
paper but leaves large constant factors on the table.  This module
provides :class:`AnalysisIndex`: built once per sync graph, it

* assigns dense integer ids to CLG nodes (``clg.node_index`` order) and
  stores the CLG as per-node successor / predecessor int rows, split
  into sync and non-sync (control/internal) edges — the only
  distinction the NO-SYNC marking needs;
* precomputes, per rendezvous node, the pruning mark vectors of the
  refined algorithm as int bitsets: SEQUENCEABLE-with (symmetric),
  same-task (constraint 1c), sync-partners (constraint 2), COACCEPT
  (Lemma 2) and NOT-COEXEC (constraint 3b);
* records, per CLG node, its cyclic SCC in the unpruned CLG
  (``scc_bits``; 0 for a node on no cycle), from the same
  :meth:`CLG.cyclic_components` the naive algorithm uses;
* finds the hypothesis node's SCC in the pruned CLG as the
  intersection of its forward and backward reach: two bitset closures
  that take the ``no_sync`` / ``do_not_enter`` exclusion bitsets
  directly and never leave the node's unpruned SCC.  A head on no
  cycle of the whole CLG is answered without a closure, nodes outside
  ``h_i``'s unpruned SCC are never visited, and components other than
  ``h_i``'s are never materialized.

Mark vectors are memoized per ``(head, use_coaccept)`` so the
extension analyses stop recomputing them inside their O(N²)–O(N^k)
combination loops.

Everything here must be observationally equivalent to the reference
set-based paths (same verdicts, same evidence, same ``stats`` —
including the per-rule pruning counters); the hypothesis differential
tests in ``tests/test_index.py`` enforce that.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .. import obs
from ..syncgraph.clg import CLG, EdgeKind, build_clg
from ..syncgraph.model import SyncGraph, SyncNode
from .coexec import CoExecInfo, compute_coexec
from .orderings import OrderingInfo, compute_orderings

__all__ = ["AnalysisIndex"]


def _coaccept(graph: SyncGraph, node: SyncNode) -> Tuple[SyncNode, ...]:
    # Same semantics as refined.coaccept_of; duplicated locally because
    # refined imports this module for its indexed backend.
    if node.kind != "accept":
        return ()
    assert node.signal is not None
    return tuple(
        other for other in graph.accepters_of(node.signal) if other is not node
    )


def _spread(row: int) -> int:
    """Move bit ``k`` of ``row`` to bit ``2k`` (string ops run in C)."""
    return int("0".join(bin(row)[2:]), 2) if row else 0


def _closure(
    root: int,
    plain_rows: List[int],
    sync_rows: List[int],
    no_sync: int,
    enter: int,
    sync_enter: int,
) -> int:
    """Bitset of the nodes reachable from ``root`` (``root`` included).

    A plain edge ``v -> w`` from ``plain_rows[v]`` is followed when
    ``w`` is in ``enter``; a sync edge from ``sync_rows[v]`` only when
    ``v`` is outside ``no_sync`` and ``w`` is in ``sync_enter``.  Each
    round ORs the rows of the nodes found in the previous round, so
    every node's rows are read once.
    """
    seen = frontier = 1 << root
    while frontier:
        plain = sync = 0
        m = frontier
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            plain |= plain_rows[v]
            if not low & no_sync:
                sync |= sync_rows[v]
        frontier = ((plain & enter) | (sync & sync_enter)) & ~seen
        seen |= frontier
    return seen


class AnalysisIndex:
    """Dense-id bitset view of one sync graph + CLG.

    Construct once and share across ``refined_deadlock_analysis``,
    ``constraint4`` and all four extension analyses via their
    ``index=`` parameter.  The precomputed ``clg`` / ``orderings`` /
    ``coexec`` are exposed so callers can hand the same objects to the
    reference path for differential runs.
    """

    def __init__(
        self,
        graph: SyncGraph,
        clg: Optional[CLG] = None,
        orderings: Optional[OrderingInfo] = None,
        coexec: Optional[CoExecInfo] = None,
    ) -> None:
        self.graph = graph
        self.clg = clg if clg is not None else build_clg(graph)
        self.orderings = (
            orderings if orderings is not None else compute_orderings(graph)
        )
        self.coexec = coexec if coexec is not None else compute_coexec(graph)
        with obs.span("index.build"):
            self._build(graph)

    def _build(self, graph: SyncGraph) -> None:
        clg = self.clg
        node_index = clg.node_index
        nodes = clg.nodes
        n = len(nodes)
        self.node_count = n
        self._sync_of: List[Optional[SyncNode]] = [
            node.sync for node in nodes
        ]

        self.in_id: Dict[SyncNode, int] = {}
        self.out_id: Dict[SyncNode, int] = {}
        in_bits = 0
        out_bits = 0
        for s in graph.rendezvous_nodes:
            i = node_index[clg.in_node(s)]
            o = node_index[clg.out_node(s)]
            self.in_id[s] = i
            self.out_id[s] = o
            in_bits |= 1 << i
            out_bits |= 1 << o
        self.in_bits = in_bits
        self.out_bits = out_bits
        self.split_bits = in_bits | out_bits
        self.full_mask = (1 << n) - 1

        # Successor / predecessor rows, split by the only distinction
        # pruning needs: sync edges (suppressible by NO-SYNC) vs
        # control/internal ("plain") edges.
        plain_succ = [0] * n
        plain_pred = [0] * n
        sync_succ = [0] * n
        sync_pred = [0] * n
        self_loops = 0
        for v, node in enumerate(nodes):
            for edge in clg.out_edges(node):
                w = node_index[edge.dst]
                if v == w:
                    self_loops |= 1 << v
                if edge.kind == EdgeKind.SYNC:
                    sync_succ[v] |= 1 << w
                    sync_pred[w] |= 1 << v
                else:
                    plain_succ[v] |= 1 << w
                    plain_pred[w] |= 1 << v
        self.plain_succ_bits = plain_succ
        self.plain_pred_bits = plain_pred
        self.sync_succ_bits = sync_succ
        self.sync_pred_bits = sync_pred
        self.self_loop_bits = self_loops

        # Pruning only deletes nodes and edges, so a node's SCC in a
        # pruned CLG lies inside its SCC of the whole CLG.  A node on no
        # cycle of the whole CLG (scc_bits 0) is on none after pruning.
        scc_bits = [0] * n
        for component in clg.cyclic_components():
            m = 0
            for node in component:
                m |= 1 << node_index[node]
            for node in component:
                scc_bits[node_index[node]] = m
        self.scc_bits = scc_bits

        # Per-head pruning mark vectors (in-node side unless noted).
        seq_bits: Dict[SyncNode, int] = {}
        same_task_bits: Dict[SyncNode, int] = {}
        partner_bits: Dict[SyncNode, int] = {}
        coaccept_bits: Dict[SyncNode, int] = {}
        not_coexec_bits: Dict[SyncNode, int] = {}
        task_bits: Dict[str, int] = {}
        in_id = self.in_id
        out_id = self.out_id
        rendezvous = graph.rendezvous_nodes
        if (
            self.orderings.nodes != rendezvous
            or self.coexec.nodes != rendezvous
            or any(
                in_id[s] != 2 * k + 2 or out_id[s] != 2 * k + 3
                for k, s in enumerate(rendezvous)
            )
        ):
            raise ValueError(
                "AnalysisIndex needs the CLG layout of build_clg and the "
                "orderings and coexec facts of the same graph"
            )
        # build_clg puts r_i / r_o of rendezvous id k at CLG ids 2k + 2 /
        # 2k + 3, so a row over rendezvous ids maps to CLG ids by
        # spreading its bits.
        seq_rows = self.orderings.sequenceable_rows
        nce_rows = self.coexec.rows
        for k, s in enumerate(rendezvous):
            seq_bits[s] = _spread(seq_rows[k]) << 2
            not_coexec_bits[s] = (_spread(nce_rows[k]) * 3) << 2
        for s in rendezvous:
            m = 0
            for k in graph.sync_neighbors(s):
                m |= 1 << in_id[k]
            partner_bits[s] = m
            m = 0
            for k in _coaccept(graph, s):
                m |= (1 << in_id[k]) | (1 << out_id[k])
            coaccept_bits[s] = m
        for task in graph.tasks:
            t_in = 0
            t_all = 0
            for k in graph.nodes_of_task(task):
                t_in |= 1 << in_id[k]
                t_all |= (1 << in_id[k]) | (1 << out_id[k])
            task_bits[task] = t_all
            for k in graph.nodes_of_task(task):
                same_task_bits[k] = t_in & ~(1 << in_id[k])
        self.seq_bits = seq_bits
        self.same_task_bits = same_task_bits
        self.partner_bits = partner_bits
        self.coaccept_bits = coaccept_bits
        self.not_coexec_bits = not_coexec_bits
        self.task_bits = task_bits

        self._mark_cache: Dict[Tuple[SyncNode, bool], Tuple[int, int]] = {}
        if obs.is_enabled():
            obs.counter("index.builds").inc()
            obs.gauge("index.nodes").set(n)

    # -- mark vectors ------------------------------------------------------

    def head_marks(
        self, head: SyncNode, use_coaccept: bool = True
    ) -> Tuple[int, int]:
        """``(no_sync, do_not_enter)`` bitsets for one hypothesized head.

        Memoized: the extension analyses query the same head inside
        O(N²)–O(N^k) combination loops.
        """
        key = (head, use_coaccept)
        cached = self._mark_cache.get(key)
        observing = obs.is_enabled()
        if cached is not None:
            if observing:
                obs.counter("index.mark_cache_hits").inc()
            return cached
        no_sync = (
            self.seq_bits[head]
            | self.same_task_bits[head]
            | self.partner_bits[head]
        )
        if use_coaccept:
            no_sync |= self.coaccept_bits[head]
        marks = (no_sync, self.not_coexec_bits[head])
        self._mark_cache[key] = marks
        if observing:
            obs.counter("index.mark_cache_misses").inc()
        return marks

    def in_mask(self, nodes: Iterable[SyncNode]) -> int:
        """Bitset of the ``k_i`` ids of ``nodes``."""
        m = 0
        for k in nodes:
            m |= 1 << self.in_id[k]
        return m

    def task_restriction(self, tasks: Iterable[str]) -> int:
        """DO-NOT-ENTER bits removing every split node outside ``tasks``."""
        allowed = 0
        for task in tasks:
            allowed |= self.task_bits[task]
        return self.split_bits & ~allowed

    def project_ids(self, ids: Iterable[int]) -> FrozenSet[SyncNode]:
        """Component ids → sync-graph nodes (``project_component``)."""
        sync_of = self._sync_of
        return frozenset(
            sync_of[i] for i in ids if sync_of[i] is not None
        )

    # -- the kernel --------------------------------------------------------

    def cyclic_component_ids(
        self, root: int, no_sync: int, do_not_enter: int
    ) -> Tuple[Optional[List[int]], int]:
        """Cyclic SCC of ``root`` in the pruned CLG, plus nodes reached.

        The pruned CLG drops every edge incident to a ``do_not_enter``
        node and every sync edge with a ``no_sync`` endpoint.  In it,
        ``root``'s SCC is the set of nodes that ``root`` reaches and
        that reach ``root`` back, so two bitset closures find it: a
        forward closure from ``root``, then a backward closure from
        ``root`` restricted to the forward set.  Components other than
        ``root``'s are never looked at.

        Both closures stay inside ``scc_bits[root]``, ``root``'s SCC in
        the unpruned CLG: a path between two nodes of the pruned
        component is a cycle through ``root`` of the unpruned CLG, so it
        never leaves that SCC.  A ``root`` on no unpruned cycle is
        answered without any closure.

        Returns ``(ids, reached)``: ``ids`` lists the component in
        ascending id order, or is None when the component is acyclic
        (a singleton without a self-loop); ``reached`` counts the
        forward set — ``root``'s forward reach inside its unpruned SCC,
        and 0 when no closure ran.

        Callers must pre-check that ``root`` itself is not in
        ``do_not_enter``.
        """
        scc = self.scc_bits[root]
        if not scc:
            return None, 0
        enter = scc & ~do_not_enter
        forward = _closure(
            root,
            self.plain_succ_bits,
            self.sync_succ_bits,
            no_sync,
            enter,
            enter & ~no_sync,
        )
        component = _closure(
            root,
            self.plain_pred_bits,
            self.sync_pred_bits,
            no_sync,
            forward,
            forward & ~no_sync,
        )
        reached = forward.bit_count()
        if component == 1 << root and not (self.self_loop_bits >> root) & 1:
            return None, reached
        bits = bin(component)[:1:-1]
        ids: List[int] = []
        i = bits.find("1")
        while i >= 0:
            ids.append(i)
            i = bits.find("1", i + 1)
        return ids, reached

    # -- pruning-effectiveness counters ------------------------------------

    def accumulate_prune_counts(
        self,
        head: SyncNode,
        use_coaccept: bool,
        global_no_sync: int,
        do_not_enter: int,
        counts: Dict[str, int],
    ) -> None:
        """Bitset replication of ``refined._count_pruning``.

        Same attribution rules: first-match claiming in PRUNE_RULES
        order for node marks; sync edges attributed src-first (the src
        of a sync edge is always an out-node, claimable only by
        COACCEPT); DO-NOT-ENTER removals claim all incident edges.
        ``<rule>_nodes`` keys are always written, edge keys only when
        non-zero — matching the reference's incremental dict writes.
        """
        rule_marks = (
            ("sequenceable", self.seq_bits[head]),
            ("same_task", self.same_task_bits[head]),
            ("sync_partner", self.partner_bits[head]),
            ("coaccept", self.coaccept_bits[head] if use_coaccept else 0),
            ("constraint4", global_no_sync),
        )
        claimed_all = 0
        claim: Dict[str, int] = {}
        for rule, marks in rule_marks:
            fresh = marks & ~claimed_all
            claimed_all |= fresh
            claim[rule] = fresh
            counts[f"{rule}_nodes"] = counts.get(
                f"{rule}_nodes", 0
            ) + fresh.bit_count()
        dne = do_not_enter
        counts["not_coexec_nodes"] = counts.get(
            "not_coexec_nodes", 0
        ) + dne.bit_count()

        plain_succ = self.plain_succ_bits
        plain_pred = self.plain_pred_bits
        sync_succ = self.sync_succ_bits
        sync_pred = self.sync_pred_bits
        nce = 0
        m = dne
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            # Out-edges of a removed node, plus in-edges from surviving
            # sources (counting each edge between two removed nodes once).
            nce += (plain_succ[v] | sync_succ[v]).bit_count()
            nce += ((plain_pred[v] | sync_pred[v]) & ~dne).bit_count()
        if nce:
            counts["not_coexec_edges"] = counts.get("not_coexec_edges", 0) + nce

        src_claimed = claim["coaccept"] & self.out_bits
        src_count = 0
        m = src_claimed & ~dne
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            src_count += (sync_succ[v] & ~dne).bit_count()
        for rule, fresh in claim.items():
            count = src_count if rule == "coaccept" else 0
            m = fresh & self.in_bits & ~dne
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                count += (sync_pred[w] & ~dne & ~src_claimed).bit_count()
            if count:
                key = f"{rule}_sync_edges"
                counts[key] = counts.get(key, 0) + count
