"""Differential tests of the refined precompute against simple oracles.

* ``compute_orderings`` against the dense numpy fixpoint in
  ``tests/orderings_oracle.py``, which reads every strict dominator and
  sweeps the whole relation until nothing changes;
* the Cooper–Harvey–Kennedy dominators against networkx;
* ``compute_coexec`` against one control DFS per node;
* the worklist schedule by its evaluation count on the chain families.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro import obs
from repro.analysis.coexec import compute_coexec
from repro.analysis.orderings import compute_orderings
from repro.cfg.build import build_cfgs
from repro.cfg.dominators import (
    idoms,
    immediate_dominators,
    postdominator_sets,
)
from repro.cfg.graph import NodeKind, TaskCFG
from repro.lang.parser import parse_program
from repro.syncgraph.build import build_sync_graph
from repro.transforms.inline import inline_procedures
from repro.transforms.unroll import remove_loops
from repro.workloads.adl_corpus import adl_corpus, repair_corpus
from repro.workloads.patterns import (
    barrier,
    corridor,
    dining_philosophers,
    handshake_chain,
    pipeline,
)
from repro.workloads.random_programs import RandomProgramConfig, random_program
from tests.orderings_oracle import compute_orderings_matrix
from tests.test_properties import FAST


def straight_line(n: int):
    sends = " ".join(f"send b.m{i};" for i in range(n))
    accepts = " ".join(f"accept m{i};" for i in range(n))
    return parse_program(
        f"program straight; task a is begin {sends} end; "
        f"task b is begin {accepts} end;"
    )


def acyclic_graph(program):
    return build_sync_graph(remove_loops(inline_procedures(program)[0])[0])


def looped_program(seed: int, tasks: int, statements: int):
    config = RandomProgramConfig(
        tasks=tasks,
        statements_per_task=statements,
        branch_prob=0.3,
        loop_prob=0.3,
    )
    return random_program(config, seed=seed)


def assert_orderings_match_oracle(graph):
    fast = compute_orderings(graph)
    oracle = compute_orderings_matrix(graph)
    assert fast.precedes_rows == oracle.precedes_rows
    assert fast.preceded_by_rows == oracle.preceded_by_rows


PATTERNS = [
    pipeline(2, 1),
    pipeline(4, 3),
    pipeline(6, 4),
    handshake_chain(2, 1),
    handshake_chain(4, 2),
    handshake_chain(6, 3),
    dining_philosophers(3),
    dining_philosophers(5),
    dining_philosophers(5, deadlock=False),
    barrier(3),
    barrier(5, rounds=2),
    corridor(2, 1),
    corridor(4, 3),
]

CORPUS = [e.program for e in adl_corpus().values()] + [
    e.program for e in repair_corpus().values()
]


class TestOrderingsOracle:
    @FAST
    @given(st.integers(min_value=0, max_value=60))
    def test_straight_line(self, n):
        assert_orderings_match_oracle(build_sync_graph(straight_line(n)))

    @pytest.mark.parametrize("index", range(len(PATTERNS)))
    def test_patterns(self, index):
        assert_orderings_match_oracle(acyclic_graph(PATTERNS[index]))

    @pytest.mark.parametrize("index", range(len(CORPUS)))
    def test_bundled_corpora(self, index):
        assert_orderings_match_oracle(acyclic_graph(CORPUS[index]))

    @FAST
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=6),
    )
    def test_random_programs_after_remove_loops(self, seed, tasks, stmts):
        program = looped_program(seed, tasks, stmts)
        assert_orderings_match_oracle(acyclic_graph(program))

    @FAST
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=6),
    )
    def test_cyclic_control_flow(self, seed, tasks, stmts):
        # No unroll: the idom-only dominator clause must agree without
        # the transitivity and counting strengthenings too.
        graph = build_sync_graph(looped_program(seed, tasks, stmts))
        assert_orderings_match_oracle(graph)

    def test_cyclic_case_is_exercised(self):
        graph = build_sync_graph(
            parse_program(
                "program p;"
                "task a is begin while ? loop send b.x; accept y; end loop;"
                " send b.z; end;"
                "task b is begin accept x; send a.y; accept z; end;"
            )
        )
        assert graph.has_control_cycle()
        assert_orderings_match_oracle(graph)


@st.composite
def random_cfgs(draw):
    """A TaskCFG with random edges: cycles, unreachable nodes and
    irreducible loops all occur."""
    cfg = TaskCFG("t")
    size = draw(st.integers(min_value=0, max_value=12))
    nodes = [cfg.entry, cfg.exit] + [
        cfg.add_node(NodeKind.STMT, f"s{i}") for i in range(size)
    ]
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(nodes) - 1), st.integers(0, len(nodes) - 1)
            ),
            max_size=3 * len(nodes),
        )
    )
    for a, b in edges:
        cfg.add_edge(nodes[a], nodes[b])
    return cfg


def nx_idom(graph, root):
    """networkx's immediate dominators, the root mapped to itself (older
    networkx releases include it, newer ones leave it out)."""
    return {**nx.immediate_dominators(graph, root), root: root}


class TestDominatorsOracle:
    @FAST
    @given(random_cfgs())
    def test_immediate_dominators_match_networkx(self, cfg):
        expected = nx_idom(cfg.to_networkx(), cfg.entry)
        assert immediate_dominators(cfg) == expected

    @FAST
    @given(random_cfgs())
    def test_postdominators_match_networkx(self, cfg):
        reverse = cfg.to_networkx().reverse(copy=True)
        idom = nx_idom(reverse, cfg.exit)
        sets = postdominator_sets(cfg)
        assert set(sets) == set(idom)
        for node, pdoms in sets.items():
            walker, chain = node, {node}
            while idom[walker] is not walker:
                walker = idom[walker]
                chain.add(walker)
            assert pdoms == chain

    @pytest.mark.parametrize("index", range(len(CORPUS)))
    def test_program_cfgs_match_networkx(self, index):
        for cfg in build_cfgs(inline_procedures(CORPUS[index])[0]).values():
            expected = nx_idom(cfg.to_networkx(), cfg.entry)
            assert immediate_dominators(cfg) == expected

    def test_int_kernel_marks_unreachable(self):
        # 0 -> 1 -> 2 -> 1 (loop); 3 unreachable
        assert idoms(0, [[1], [2], [1], [0]]) == [0, 0, 1, -1]


def coexec_reference(graph):
    """NOT-COEXEC the slow way: one control DFS per node."""
    result = {}
    for task in graph.tasks:
        members = graph.nodes_of_task(task)
        for a in members:
            reach_a = graph.control_descendants(a)
            result[a] = frozenset(
                b
                for b in members
                if b is not a
                and b not in reach_a
                and a not in graph.control_descendants(b)
            )
    return result


class TestCoexecOracle:
    @FAST
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=6),
        st.booleans(),
    )
    def test_matches_per_node_dfs(self, seed, tasks, stmts, unroll):
        program = looped_program(seed, tasks, stmts)
        graph = acyclic_graph(program) if unroll else build_sync_graph(program)
        assert compute_coexec(graph).not_coexec == coexec_reference(graph)

    @pytest.mark.parametrize("index", range(len(CORPUS)))
    def test_bundled_corpora(self, index):
        graph = acyclic_graph(CORPUS[index])
        assert compute_coexec(graph).not_coexec == coexec_reference(graph)


def worklist_steps(graph) -> int:
    with obs.observed() as session:
        compute_orderings(graph)
    return session.registry.counter_value("orderings.worklist_steps")


class TestSchedule:
    """Dependency-ordered evaluation settles each node O(1) times."""

    @pytest.mark.parametrize("n", [50, 100, 200])
    def test_straight_line_steps(self, n):
        graph = build_sync_graph(straight_line(n))
        assert worklist_steps(graph) <= 2 * len(graph.rendezvous_nodes)

    def test_pipeline_steps(self):
        graph = acyclic_graph(pipeline(16, 8))
        assert worklist_steps(graph) <= 2 * len(graph.rendezvous_nodes)


def test_precompute_spans_split_refined_precompute(handshake):
    with obs.observed() as session:
        repro.analyze(handshake)
    (precompute,) = [
        s for s in session.tracer.all_spans() if s.name == "refined.precompute"
    ]
    children = {child.name for child in precompute.children}
    assert {
        "clg.build",
        "orderings.compute",
        "coexec.compute",
        "index.build",
    } <= children
    (orderings,) = [
        c for c in precompute.children if c.name == "orderings.compute"
    ]
    assert [c.name for c in orderings.children] == ["orderings.dominators"]
