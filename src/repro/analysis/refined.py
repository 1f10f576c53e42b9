"""The refined deadlock detection algorithm (paper, Section 4.2).

For every possible head node ``h``, the algorithm hypothesizes that
``h`` heads a deadlock cycle, prunes CLG edges that could only occur in
cycles spurious under that hypothesis, and searches for a strongly
connected component containing ``h_i``:

* nodes sequenceable with ``h`` cannot wait on the same execution wave,
  so they cannot be co-head nodes: their ``k_i`` CLG node loses its sync
  edges (they may still serve as *tail* nodes through ``k_o`` — tails
  never execute, so ordering facts do not constrain them; the paper
  makes the ``k_i``-only marking explicit in the extensions section);
* other nodes of ``h``'s own task cannot be co-heads either — a valid
  deadlock cycle enters each task exactly once (constraint 1c), so
  their ``k_i`` nodes lose sync edges as well;
* sync partners of ``h`` cannot be co-heads: two waiting wave nodes
  joined by a sync edge could rendezvous, so the wave would not be
  anomalous (constraint 2); their ``k_i`` nodes lose sync edges;
* accept nodes of the same signal type as an accept head ``h``
  (``COACCEPT[h]``) lose sync edges on both split nodes — by Lemma 2, a
  cycle leaving ``h``'s task through a same-type accept has a pair of
  head nodes that can rendezvous, violating constraint 2;
* nodes not co-executable with ``h`` (``NOT-COEXEC[h]``) are removed
  outright (DO-NOT-ENTER), approximating constraint 3b.

If no hypothesis yields a component, the program is certified
deadlock-free.  Any component is conservatively reported as a possible
deadlock.  Total cost is ``O(|N_CLG| · (|N_CLG| + |E_CLG|))``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .. import obs
from ..errors import AnalysisError
from ..syncgraph.clg import CLG, CLGEdge, CLGNode, EdgeKind, build_clg
from ..syncgraph.model import SyncGraph, SyncNode
from .coexec import CoExecInfo, compute_coexec
from .index import AnalysisIndex
from .naive import project_component
from .orderings import OrderingInfo, compute_orderings
from .results import DeadlockEvidence, DeadlockReport, Verdict

__all__ = [
    "possible_heads",
    "coaccept_of",
    "refined_deadlock_analysis",
    "component_for_head",
    "PRUNE_RULES",
    "BACKENDS",
]

# "index" runs the integer bitset kernels of repro.analysis.index;
# "reference" runs the original set-based path, kept as the oracle the
# differential tests compare against.
BACKENDS = ("index", "reference")

# Pruning rules, in marking order.  A node marked by several rules is
# attributed to the first that claims it (the counters measure where
# pruning power comes from, not set-theoretic overlap).
PRUNE_RULES = (
    "sequenceable",
    "same_task",
    "sync_partner",
    "coaccept",
    "constraint4",
    "not_coexec",
)


def possible_heads(graph: SyncGraph) -> Tuple[SyncNode, ...]:
    """``POSS-HEADS``: nodes with a sync edge and a rendezvous successor.

    A head node is entered via a sync edge and must traverse at least
    one control edge to a tail node (which exits via a sync edge), so a
    node with no rendezvous control successor cannot head a cycle.
    """
    heads = []
    for node in graph.rendezvous_nodes:
        if not graph.sync_neighbors(node):
            continue
        if any(
            succ.is_rendezvous for succ in graph.control_successors(node)
        ):
            heads.append(node)
    return tuple(heads)


def coaccept_of(graph: SyncGraph, node: SyncNode) -> Tuple[SyncNode, ...]:
    """``COACCEPT[node]``: other accepts of the same signal type.

    Empty for signaling (send) nodes, per the paper.
    """
    if node.kind != "accept":
        return ()
    assert node.signal is not None
    return tuple(
        other for other in graph.accepters_of(node.signal) if other is not node
    )


def component_for_head(
    graph: SyncGraph,
    clg: CLG,
    head: SyncNode,
    orderings: OrderingInfo,
    coexec: CoExecInfo,
    use_coaccept: bool = True,
    global_no_sync: FrozenSet[SyncNode] = frozenset(),
    prune_counts: Optional[Dict[str, int]] = None,
) -> Optional[FrozenSet[CLGNode]]:
    """Run one head hypothesis; return the cyclic component of ``h_i``.

    Returns None when the pruned CLG has no cycle through ``h_i`` —
    i.e. ``head`` cannot head any constraint-1 cycle surviving the
    SEQUENCEABLE / COACCEPT / NOT-COEXEC eliminations.

    ``global_no_sync`` carries hypothesis-independent head exclusions
    (nodes proven unable to wait on any anomalous wave, e.g. by the
    constraint-4 breaker check): their ``k_i`` loses sync edges.

    ``prune_counts``, when given, accumulates per-rule pruning
    effectiveness (``<rule>_nodes`` marks and ``<rule>_sync_edges`` /
    ``not_coexec_edges`` actual removals, rules per :data:`PRUNE_RULES`)
    across calls.  It adds an extra edge sweep per head, so the
    observability layer only requests it when enabled.
    """
    no_sync: Set[CLGNode] = {clg.in_node(k) for k in global_no_sync}
    do_not_enter: Set[CLGNode] = set()
    for k in orderings.sequenceable_with(head):
        no_sync.add(clg.in_node(k))
    for k in graph.nodes_of_task(head.task):  # constraint 1c
        if k is not head:
            no_sync.add(clg.in_node(k))
    for k in graph.sync_neighbors(head):  # constraint 2
        no_sync.add(clg.in_node(k))
    if use_coaccept:
        for k in coaccept_of(graph, head):
            no_sync.add(clg.in_node(k))
            no_sync.add(clg.out_node(k))
    for k in coexec.not_coexec_with(head):
        do_not_enter.add(clg.in_node(k))
        do_not_enter.add(clg.out_node(k))

    if prune_counts is not None:
        _count_pruning(
            graph,
            clg,
            head,
            orderings,
            coexec,
            global_no_sync,
            use_coaccept,
            do_not_enter,
            prune_counts,
        )

    h_i = clg.in_node(head)
    if h_i in do_not_enter or h_i in no_sync:
        return None

    def edge_ok(edge: CLGEdge) -> bool:
        if edge.kind != EdgeKind.SYNC:
            return True
        return edge.src not in no_sync and edge.dst not in no_sync

    def node_ok(node: CLGNode) -> bool:
        return node not in do_not_enter

    for component in clg.cyclic_components(edge_ok, node_ok):
        if h_i in component:
            return component
    return None


def _count_pruning(
    graph: SyncGraph,
    clg: CLG,
    head: SyncNode,
    orderings: OrderingInfo,
    coexec: CoExecInfo,
    global_no_sync: FrozenSet[SyncNode],
    use_coaccept: bool,
    do_not_enter: Set[CLGNode],
    prune_counts: Dict[str, int],
) -> None:
    """Accumulate per-rule pruning effectiveness for one hypothesis.

    ``<rule>_nodes`` counts CLG node marks/removals; ``<rule>_sync_edges``
    counts sync edges actually suppressed by that rule's NO-SYNC marks
    (``not_coexec_edges`` counts all edges lost to DO-NOT-ENTER node
    removal).  Attribution is first-match in :data:`PRUNE_RULES` order.
    """
    coacc: Set[CLGNode] = set()
    if use_coaccept:
        for k in coaccept_of(graph, head):
            coacc.add(clg.in_node(k))
            coacc.add(clg.out_node(k))
    rule_marks = (
        (
            "sequenceable",
            {clg.in_node(k) for k in orderings.sequenceable_with(head)},
        ),
        (
            "same_task",
            {
                clg.in_node(k)
                for k in graph.nodes_of_task(head.task)
                if k is not head
            },
        ),
        (
            "sync_partner",
            {clg.in_node(k) for k in graph.sync_neighbors(head)},
        ),
        ("coaccept", coacc),
        ("constraint4", {clg.in_node(k) for k in global_no_sync}),
    )
    claimed: Dict[CLGNode, str] = {}
    for rule, marks in rule_marks:
        fresh = [n for n in marks if n not in claimed]
        for n in fresh:
            claimed[n] = rule
        prune_counts[f"{rule}_nodes"] = prune_counts.get(
            f"{rule}_nodes", 0
        ) + len(fresh)
    prune_counts["not_coexec_nodes"] = prune_counts.get(
        "not_coexec_nodes", 0
    ) + len(do_not_enter)

    for edge in clg.edges():
        if edge.src in do_not_enter or edge.dst in do_not_enter:
            prune_counts["not_coexec_edges"] = (
                prune_counts.get("not_coexec_edges", 0) + 1
            )
            continue
        if edge.kind != EdgeKind.SYNC:
            continue
        rule = claimed.get(edge.src) or claimed.get(edge.dst)
        if rule is not None:
            key = f"{rule}_sync_edges"
            prune_counts[key] = prune_counts.get(key, 0) + 1


def refined_deadlock_analysis(
    graph: SyncGraph,
    clg: Optional[CLG] = None,
    orderings: Optional[OrderingInfo] = None,
    coexec: Optional[CoExecInfo] = None,
    use_coaccept: bool = True,
    global_no_sync: FrozenSet[SyncNode] = frozenset(),
    backend: str = "index",
    index: Optional[AnalysisIndex] = None,
) -> DeadlockReport:
    """Algorithm 2: per-head SCC search with spurious-cycle elimination.

    Precomputed ``orderings``/``coexec`` may be passed in (e.g. enriched
    with external co-executability facts); otherwise the built-in
    conservative approximations are used.

    ``backend`` selects the SCC/marking machinery: ``"index"`` (the
    default) runs the bitset kernels of :class:`AnalysisIndex`,
    ``"reference"`` the original set-based path.  Both produce
    identical reports — verdict, evidence and stats (including the
    pruning counters).  A prebuilt ``index`` may be shared across
    analyses; it supersedes ``clg``/``orderings``/``coexec``.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if graph.has_control_cycle():
        raise AnalysisError(
            "refined analysis requires acyclic control flow; apply "
            "repro.transforms.unroll.remove_loops first"
        )
    with obs.span("refined.precompute", backend=backend):
        if index is not None:
            clg = index.clg
            orderings = index.orderings
            coexec = index.coexec
        else:
            if clg is None:
                clg = build_clg(graph)
            if orderings is None:
                orderings = compute_orderings(graph)
            if coexec is None:
                coexec = compute_coexec(graph)
            if backend == "index":
                index = AnalysisIndex(
                    graph, clg=clg, orderings=orderings, coexec=coexec
                )

    observing = obs.is_enabled()
    prune_counts: Optional[Dict[str, int]] = {} if observing else None
    heads = possible_heads(graph)
    evidence: List[DeadlockEvidence] = []
    reached_total = 0
    off_cycle = 0
    with obs.span("refined.heads", heads=len(heads), backend=backend):
        if backend == "index":
            assert index is not None
            global_mask = index.in_mask(global_no_sync)
            for head in heads:
                no_sync, do_not_enter = index.head_marks(head, use_coaccept)
                no_sync |= global_mask
                if prune_counts is not None:
                    index.accumulate_prune_counts(
                        head, use_coaccept, global_mask, do_not_enter,
                        prune_counts,
                    )
                h_id = index.in_id[head]
                if ((do_not_enter | no_sync) >> h_id) & 1:
                    continue
                ids, reached = index.cyclic_component_ids(
                    h_id, no_sync, do_not_enter
                )
                reached_total += reached
                if not reached:  # h_i on no CLG cycle: no closure ran
                    off_cycle += 1
                if ids is not None:
                    evidence.append(
                        DeadlockEvidence(
                            component=index.project_ids(ids), head=head
                        )
                    )
        else:
            for head in heads:
                component = component_for_head(
                    graph,
                    clg,
                    head,
                    orderings,
                    coexec,
                    use_coaccept,
                    global_no_sync,
                    prune_counts,
                )
                if component is not None:
                    evidence.append(
                        DeadlockEvidence(
                            component=project_component(component), head=head
                        )
                    )
    verdict = Verdict.CERTIFIED_FREE if not evidence else Verdict.POSSIBLE_DEADLOCK
    stats = {
        "clg_nodes": clg.node_count,
        "clg_edges": clg.edge_count,
        "poss_heads": len(heads),
        "ordered_pairs": orderings.pair_count,
        "not_coexec_pairs": coexec.pair_count,
    }
    if observing:
        obs.counter("refined.heads_examined").inc(len(heads))
        obs.counter("refined.scc_passes").inc(len(heads))
        obs.counter("refined.components_flagged").inc(len(evidence))
        if backend == "index":
            obs.counter("refined.nodes_reached").inc(reached_total)
            obs.counter("refined.heads_off_cycle").inc(off_cycle)
        assert prune_counts is not None
        for rule in PRUNE_RULES:
            obs.counter("refined.pruned_nodes", rule=rule).inc(
                prune_counts.get(f"{rule}_nodes", 0)
            )
            edge_key = (
                "not_coexec_edges"
                if rule == "not_coexec"
                else f"{rule}_sync_edges"
            )
            obs.counter("refined.pruned_edges", rule=rule).inc(
                prune_counts.get(edge_key, 0)
            )
        stats["pruning"] = dict(sorted(prune_counts.items()))
    return DeadlockReport(
        verdict=verdict,
        algorithm="refined",
        evidence=evidence,
        heads_examined=len(heads),
        stats=stats,
    )
