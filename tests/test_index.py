"""Differential tests: indexed bitset kernels vs the reference sets.

The ``backend="index"`` paths of the refined algorithm family must be
observationally indistinguishable from the ``backend="reference"``
oracle — same verdicts, same evidence components, same stats (down to
the per-rule pruning counters).  Hypothesis drives both backends over
random programs; the bundled paper corpus pins the real workloads.
Also covers the rooted component kernel (its early exit, its
component and reach count under arbitrary exclusion masks, and the
unpruned-SCC rows that confine it) and
the satellite behaviors added alongside it (``sequenceable_with``
memoization, the ``compute_orderings`` convergence warning).
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.analysis.constraint4 import constraint4_deadlock_analysis
from repro.analysis.extensions import (
    combined_pairs_analysis,
    head_pairs_analysis,
    head_tail_analysis,
    k_pairs_analysis,
)
from repro.analysis.index import AnalysisIndex
from repro.analysis.orderings import compute_orderings
from repro.analysis.refined import (
    component_for_head,
    possible_heads,
    refined_deadlock_analysis,
)
from repro.lang.parser import parse_program
from repro.syncgraph.build import build_sync_graph
from repro.syncgraph.clg import EdgeKind
from repro.transforms.unroll import remove_loops
from repro.workloads.patterns import (
    dining_philosophers,
    handshake_chain,
    pipeline,
)
from tests.conftest import graph_of
from tests.test_properties import FAST, small_programs

BACKEND_AWARE_DETECTORS = [
    refined_deadlock_analysis,
    constraint4_deadlock_analysis,
    head_pairs_analysis,
    head_tail_analysis,
    combined_pairs_analysis,
]


def _report_fingerprint(report):
    return (
        report.verdict,
        report.algorithm,
        report.heads_examined,
        [(e.component, e.head, e.tail) for e in report.evidence],
        report.stats,
    )


class TestDifferentialEquivalence:
    @FAST
    @given(small_programs())
    def test_refined_backends_agree(self, program):
        """Verdict, evidence AND stats — including the pruning counters,
        which only appear under observability — must match exactly."""
        graph = graph_of(program)
        with obs.observed():
            indexed = refined_deadlock_analysis(graph, backend="index")
        with obs.observed():
            reference = refined_deadlock_analysis(graph, backend="reference")
        assert "pruning" in indexed.stats
        assert _report_fingerprint(indexed) == _report_fingerprint(reference)

    @FAST
    @given(small_programs())
    def test_extensions_and_constraint4_backends_agree(self, program):
        graph = graph_of(program)
        index = AnalysisIndex(graph)
        for detector in BACKEND_AWARE_DETECTORS[1:]:
            indexed = detector(graph, backend="index", index=index)
            reference = detector(graph, backend="reference", index=index)
            assert _report_fingerprint(indexed) == _report_fingerprint(
                reference
            ), detector.__name__

    @FAST
    @given(small_programs())
    def test_k_pairs_backends_agree(self, program):
        graph = graph_of(program)
        indexed = k_pairs_analysis(graph, k=3, backend="index")
        reference = k_pairs_analysis(graph, k=3, backend="reference")
        assert _report_fingerprint(indexed) == _report_fingerprint(reference)

    def test_corpus_backend_parity(self, corpus):
        """Whole bundled paper corpus: identical reports per detector."""
        for name, entry in corpus.items():
            graph = graph_of(entry.program)
            index = AnalysisIndex(graph)
            for detector in BACKEND_AWARE_DETECTORS:
                with obs.observed():
                    indexed = detector(graph, backend="index", index=index)
                with obs.observed():
                    reference = detector(
                        graph, backend="reference", index=index
                    )
                assert _report_fingerprint(indexed) == _report_fingerprint(
                    reference
                ), f"{name}/{detector.__name__}"

    @FAST
    @given(small_programs())
    def test_shared_index_matches_fresh_builds(self, program):
        """One AnalysisIndex shared across analyses changes nothing."""
        graph = graph_of(program)
        index = AnalysisIndex(graph)
        shared = refined_deadlock_analysis(graph, index=index)
        fresh = refined_deadlock_analysis(graph)
        assert _report_fingerprint(shared) == _report_fingerprint(fresh)


# Two disjoint deadlock cycles: {t1, t2} wait on each other and,
# independently, {t3, t4} wait on each other.  t1's component never
# requires visiting the t3/t4 half of the CLG.
TWO_CYCLES_SRC = """
program two_cycles;
task t1 is begin accept a; send t2.b; end;
task t2 is begin accept b; send t1.a; end;
task t3 is begin accept c; send t4.d; end;
task t4 is begin accept d; send t3.c; end;
"""


class TestEarlyExitTarjan:
    def _graph(self):
        transformed, _ = remove_loops(parse_program(TWO_CYCLES_SRC))
        return build_sync_graph(transformed)

    def test_stops_before_visiting_other_components(self):
        graph = self._graph()
        index = AnalysisIndex(graph)
        head = next(
            h for h in possible_heads(graph) if h.task in ("t1", "t2")
        )
        no_sync, do_not_enter = index.head_marks(head)
        h_id = index.in_id[head]
        assert not ((no_sync | do_not_enter) >> h_id) & 1
        ids, visited = index.cyclic_component_ids(h_id, no_sync, do_not_enter)
        assert ids is not None
        # The rooted walk never reaches the t3/t4 half of the CLG, let
        # alone b/e — strictly fewer nodes than a full enumeration.
        assert visited < index.node_count
        projected = index.project_ids(ids)
        assert {n.task for n in projected} == {"t1", "t2"}

    def test_component_matches_reference_search(self):
        graph = self._graph()
        index = AnalysisIndex(graph)
        orderings, coexec = index.orderings, index.coexec
        for head in possible_heads(graph):
            reference = component_for_head(
                graph, index.clg, head, orderings, coexec
            )
            no_sync, do_not_enter = index.head_marks(head)
            if ((no_sync | do_not_enter) >> index.in_id[head]) & 1:
                assert reference is None
                continue
            ids, _ = index.cyclic_component_ids(
                index.in_id[head], no_sync, do_not_enter
            )
            if reference is None:
                assert ids is None
            else:
                node_index = index.clg.node_index
                assert ids is not None
                assert sorted(node_index[n] for n in reference) == sorted(ids)


def _pruned_clg_filters(index, no_sync, do_not_enter):
    """``(edge_ok, node_ok)`` for ``clg.cyclic_components``: the pruned
    CLG the kernel searches, written out edge by edge."""
    node_index = index.clg.node_index

    def node_ok(node):
        return not (do_not_enter >> node_index[node]) & 1

    def edge_ok(edge):
        if edge.kind != EdgeKind.SYNC:
            return True
        ends = (1 << node_index[edge.src]) | (1 << node_index[edge.dst])
        return not ends & no_sync

    return edge_ok, node_ok


def _forward_reach(index, root, edge_ok, node_ok):
    """Plain-set BFS: CLG ids reachable from ``root`` in the pruned CLG."""
    clg = index.clg
    node_index = clg.node_index
    nodes = clg.nodes
    seen = {root}
    queue = [root]
    while queue:
        v = queue.pop()
        for edge in clg.out_edges(nodes[v]):
            w = node_index[edge.dst]
            if w not in seen and node_ok(edge.dst) and edge_ok(edge):
                seen.add(w)
                queue.append(w)
    return seen


def _check_kernel_against_oracles(index, data):
    """Draw a root and arbitrary NO-SYNC / DO-NOT-ENTER bitsets (not
    only head marks) and compare the kernel with the reference SCC
    enumeration and a plain BFS."""
    n = index.node_count
    root = data.draw(st.integers(0, n - 1), label="root")
    ids_of = st.frozensets(st.integers(0, n - 1), max_size=n)
    no_sync = sum(1 << i for i in data.draw(ids_of, label="no_sync"))
    do_not_enter = sum(
        1 << i for i in data.draw(ids_of, label="do_not_enter")
    ) & ~(1 << root)
    ids, reached = index.cyclic_component_ids(root, no_sync, do_not_enter)

    edge_ok, node_ok = _pruned_clg_filters(index, no_sync, do_not_enter)
    root_node = index.clg.nodes[root]
    expected = next(
        (
            comp
            for comp in index.clg.cyclic_components(edge_ok, node_ok)
            if root_node in comp
        ),
        None,
    )
    if expected is None:
        assert ids is None
    else:
        node_index = index.clg.node_index
        assert ids == sorted(node_index[node] for node in expected)
    assert reached == _restricted_reach(index, root, no_sync, do_not_enter)


def _unpruned_cycle(index, root):
    """``root``'s cyclic SCC of the whole CLG, or None."""
    root_node = index.clg.nodes[root]
    return next(
        (comp for comp in index.clg.cyclic_components() if root_node in comp),
        None,
    )


def _restricted_reach(index, root, no_sync, do_not_enter):
    """What the kernel's ``reached`` counts: ``root``'s forward reach in
    the pruned CLG, restricted to its cyclic SCC of the unpruned CLG;
    0 when ``root`` is on no cycle of the unpruned CLG."""
    unpruned = _unpruned_cycle(index, root)
    if unpruned is None:
        return 0
    edge_ok, node_ok = _pruned_clg_filters(index, no_sync, do_not_enter)
    return len(
        _forward_reach(
            index, root, edge_ok, lambda node: node in unpruned and node_ok(node)
        )
    )


def _check_scc_bits(index):
    """``scc_bits`` row per node = its cyclic SCC of the unpruned CLG as
    ``clg.cyclic_components`` enumerates it; the unpruned kernel returns
    exactly that row."""
    node_index = index.clg.node_index
    expected = [0] * index.node_count
    for comp in index.clg.cyclic_components():
        row = sum(1 << node_index[node] for node in comp)
        for node in comp:
            expected[node_index[node]] = row
    assert index.scc_bits == expected
    for root, row in enumerate(expected):
        ids, _reached = index.cyclic_component_ids(root, 0, 0)
        if row:
            assert ids is not None and sum(1 << i for i in ids) == row
        else:
            assert ids is None


_KERNEL_PATTERNS = {
    "dining": dining_philosophers(3),
    "handshake_chain": handshake_chain(3, 2),
    "pipeline": pipeline(3, 2),
}


class TestClosureKernel:
    """``cyclic_component_ids`` under arbitrary exclusion masks."""

    @FAST
    @given(small_programs(), st.data())
    def test_random_programs(self, program, data):
        _check_kernel_against_oracles(AnalysisIndex(graph_of(program)), data)

    @FAST
    @given(st.sampled_from(sorted(_KERNEL_PATTERNS)), st.data())
    def test_patterns(self, name, data):
        graph = graph_of(_KERNEL_PATTERNS[name])
        _check_kernel_against_oracles(AnalysisIndex(graph), data)


class TestUnprunedScc:
    """``scc_bits``, the prefilter that answers off-cycle roots at once."""

    @FAST
    @given(small_programs())
    def test_random_programs(self, program):
        _check_scc_bits(AnalysisIndex(graph_of(program)))

    @pytest.mark.parametrize("name", sorted(_KERNEL_PATTERNS))
    def test_patterns(self, name):
        _check_scc_bits(AnalysisIndex(graph_of(_KERNEL_PATTERNS[name])))

    def test_straight_line_program_is_off_cycle(self, handshake):
        index = AnalysisIndex(graph_of(handshake))
        assert not any(index.scc_bits)
        assert index.cyclic_component_ids(2, 0, 0) == (None, 0)


class TestSatelliteBehaviors:
    def test_sequenceable_with_is_memoized(self, handshake):
        graph = graph_of(handshake)
        orderings = compute_orderings(graph)
        assert orderings._seq_with is None
        node = graph.rendezvous_nodes[0]
        first = orderings.sequenceable_with(node)
        cache = orderings._seq_with
        assert cache is not None
        assert orderings.sequenceable_with(node) == first
        assert orderings._seq_with is cache  # no rebuild on the second query
        # The symmetric closure is still correct.
        for a in graph.rendezvous_nodes:
            for b in graph.rendezvous_nodes:
                assert (b in orderings.sequenceable_with(a)) == (
                    orderings.sequenceable(a, b)
                )

    def test_orderings_budget_exhaustion_warns(self, handshake):
        graph = graph_of(handshake)
        with obs.observed() as session:
            with pytest.warns(RuntimeWarning, match="work budget"):
                partial = compute_orderings(graph, max_iterations=0)
        registry = session.registry
        assert registry.counter_value("orderings.max_iterations_exhausted") == 1
        assert registry.counter_value("orderings.worklist_steps") == 0
        # The partial fixpoint is a sound subset of the converged one.
        full = compute_orderings(graph)
        for node, targets in partial.precedes.items():
            assert targets <= full.precedes[node]

    def test_converged_run_does_not_warn(self, handshake):
        graph = graph_of(handshake)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compute_orderings(graph)

    def test_mark_cache_counters(self, handshake):
        graph = graph_of(handshake)
        with obs.observed() as session:
            index = AnalysisIndex(graph)
            head = graph.rendezvous_nodes[0]
            index.head_marks(head)
            index.head_marks(head)
            index.head_marks(head, use_coaccept=False)
        registry = session.registry
        assert registry.counter_value("index.mark_cache_misses") == 2
        assert registry.counter_value("index.mark_cache_hits") == 1
