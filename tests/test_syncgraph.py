"""Sync graph construction tests (paper, Section 2)."""

import pytest
from hypothesis import given

from repro.api import prepare
from repro.lang.ast_nodes import Signal
from repro.lang.parser import parse_program
from repro.syncgraph.build import build_sync_graph
from repro.syncgraph.dot import sync_graph_to_dot
from repro.transforms.unroll import remove_loops
from repro.workloads.adl_corpus import adl_corpus, repair_corpus
from tests.conftest import graph_of
from tests.test_nesting import _nested_source
from tests.test_properties import FAST, small_programs


def graph_for(src):
    return build_sync_graph(parse_program(src))


class TestNodes:
    def test_one_node_per_rendezvous_statement(self, handshake):
        sg = build_sync_graph(handshake)
        assert len(sg.rendezvous_nodes) == 4
        assert len(sg) == 6  # + b and e

    def test_triple_notation(self, handshake):
        sg = build_sync_graph(handshake)
        send = next(n for n in sg.nodes_of_task("t1") if n.kind == "send")
        assert send.triple == ("t2", "sig1", "+")
        accept = next(n for n in sg.nodes_of_task("t2") if n.kind == "accept")
        assert accept.triple == ("t2", "sig1", "-")

    def test_accept_signal_is_own_task(self):
        sg = graph_for(
            "program p; task a is begin accept m; end;"
            "task b is begin send a.m; end;"
        )
        accept = next(n for n in sg.nodes_of_task("a"))
        assert accept.signal == Signal("a", "m")


class TestControlEdges:
    def test_b_to_first_rendezvous(self, handshake):
        sg = build_sync_graph(handshake)
        firsts = {dst.label for src, dst in sg.control_edges() if src is sg.b}
        assert firsts == {"(t2,sig1,+)", "(t2,sig1,-)"}

    def test_last_rendezvous_to_e(self, handshake):
        sg = build_sync_graph(handshake)
        lasts = {
            src.label for src, dst in sg.control_edges() if dst is sg.e
        }
        assert lasts == {"(t1,sig2,-)", "(t1,sig2,+)"}

    def test_intervening_statements_are_skipped(self):
        sg = graph_for(
            "program p;"
            "task a is begin send b.m; x := ?; null; send b.n; end;"
            "task b is begin accept m; accept n; end;"
        )
        first = next(
            n for n in sg.nodes_of_task("a") if n.signal.message == "m"
        )
        succs = sg.control_successors(first)
        assert [n.signal.message for n in succs] == ["n"]

    def test_conditional_creates_multiple_successors(self):
        sg = graph_for(
            "program p;"
            "task a is begin send b.m; if ? then send b.x; else send b.y; "
            "end if; end;"
            "task b is begin accept m; if ? then accept x; else accept y; "
            "end if; end;"
        )
        first = next(
            n for n in sg.nodes_of_task("a") if n.signal.message == "m"
        )
        succ_msgs = {n.signal.message for n in sg.control_successors(first)}
        assert succ_msgs == {"x", "y"}

    def test_skippable_rendezvous_adds_bypass_edge(self):
        sg = graph_for(
            "program p;"
            "task a is begin if ? then send b.m; end if; end;"
            "task b is begin if ? then accept m; end if; end;"
        )
        # the conditional can be skipped entirely: b -> e in both tasks
        assert sg.e in [n for n in sg.initial_options("a")]
        assert sg.e in [n for n in sg.initial_options("b")]

    def test_task_without_rendezvous_is_skippable(self):
        sg = graph_for(
            "program p; task a is begin null; end;"
            "task b is begin null; end;"
        )
        assert sg.initial_options("a") == (sg.e,)

    def test_loop_produces_control_cycle(self):
        sg = graph_for(
            "program p;"
            "task a is begin while ? loop send b.m; end loop; end;"
            "task b is begin while ? loop accept m; end loop; end;"
        )
        assert sg.has_control_cycle()

    def test_loop_free_is_acyclic(self, handshake):
        assert not build_sync_graph(handshake).has_control_cycle()


def _assert_control_edges_distinct(sg):
    """``build_sync_graph`` inserts edges without a duplicate check."""
    edges = list(sg.control_edges())
    assert len(edges) == len(set(edges))
    return len(edges)


class TestControlEdgesDistinct:
    @FAST
    @given(small_programs())
    def test_random_programs(self, program):
        _assert_control_edges_distinct(build_sync_graph(program))
        _assert_control_edges_distinct(graph_of(program))

    def test_corpora(self, corpus):
        programs = [entry.program for entry in corpus.values()]
        programs += [entry.program for entry in adl_corpus().values()]
        programs += [entry.program for entry in repair_corpus().values()]
        for program in programs:
            prep = prepare(program)
            _assert_control_edges_distinct(prep.sync_graph)
            _assert_control_edges_distinct(build_sync_graph(prep.inlined))

    def test_deep_while_nest(self):
        # 9 nested ``while ? loop`` around a send, against a looping
        # accept: 514 rendezvous nodes after unrolling, dense control.
        source = _nested_source(9, "while").replace(
            "task b is begin accept m; end;",
            "task b is begin while ? loop accept m; end loop; end;",
        )
        unrolled, _ = remove_loops(parse_program(source))
        sg = build_sync_graph(unrolled)
        assert len(sg.rendezvous_nodes) == 514
        assert _assert_control_edges_distinct(sg) == 66309


class TestSyncEdges:
    def test_complementary_pairs_connected(self, handshake):
        sg = build_sync_graph(handshake)
        assert len(list(sg.sync_edges())) == 2

    def test_all_pairs_of_shared_signal(self):
        sg = graph_for(
            "program p;"
            "task a is begin send c.m; end;"
            "task b is begin send c.m; end;"
            "task c is begin accept m; accept m; end;"
        )
        # 2 senders x 2 accepters
        assert len(list(sg.sync_edges())) == 4

    def test_no_edge_between_same_sign(self):
        sg = graph_for(
            "program p;"
            "task a is begin send c.m; end;"
            "task b is begin send c.m; end;"
            "task c is begin accept m; accept m; end;"
        )
        for x, y in sg.sync_edges():
            assert {x.sign, y.sign} == {"+", "-"}

    def test_unmatched_send_has_no_partners(self, stall_program):
        sg = build_sync_graph(stall_program)
        (send,) = sg.nodes_of_task("t1")
        assert sg.sync_neighbors(send) == ()

    def test_senders_and_accepters_lookup(self, handshake):
        sg = build_sync_graph(handshake)
        sig = Signal("t2", "sig1")
        assert len(sg.senders_of(sig)) == 1
        assert len(sg.accepters_of(sig)) == 1


class TestSyncNodeIdentity:
    def test_hash_is_uid(self, handshake):
        for node in build_sync_graph(handshake).nodes:
            assert hash(node) == node.uid

    def test_equal_nodes_hash_equally(self, handshake):
        first = build_sync_graph(handshake).nodes
        second = build_sync_graph(handshake).nodes
        for a, b in zip(first, second):
            assert a is not b
            assert a == b and hash(a) == hash(b)

    def test_shared_uid_different_fields_unequal(self, handshake, crossed):
        mine = build_sync_graph(handshake).rendezvous_nodes[0]
        other = build_sync_graph(crossed).rendezvous_nodes[0]
        assert mine.uid == other.uid
        assert (mine.kind, mine.signal) != (other.kind, other.signal)
        assert mine != other
        assert len({mine, other}) == 2


class TestReachability:
    def test_control_descendants(self, handshake):
        sg = build_sync_graph(handshake)
        first = next(
            n for n in sg.nodes_of_task("t1") if n.signal.message == "sig1"
        )
        desc = sg.control_descendants(first)
        assert sg.e in desc
        assert len([n for n in desc if n.is_rendezvous]) == 1

    def test_control_reaches_is_reflexive(self, handshake):
        sg = build_sync_graph(handshake)
        node = sg.rendezvous_nodes[0]
        assert sg.control_reaches(node, node)


class TestExport:
    def test_stats(self, handshake):
        sg = build_sync_graph(handshake)
        stats = sg.stats()
        assert stats == {
            "tasks": 2,
            "nodes": 6,
            "control_edges": 6,
            "sync_edges": 2,
        }

    def test_networkx_export_tags_edges(self, handshake):
        g = build_sync_graph(handshake).to_networkx()
        kinds = {d["kind"] for _, _, d in g.edges(data=True)}
        assert kinds == {"control", "sync"}

    def test_dot_output_shape(self, handshake):
        dot = sync_graph_to_dot(build_sync_graph(handshake))
        assert dot.startswith("digraph")
        assert "style=dashed" in dot
        assert "cluster_t1" in dot


class TestMetrics:
    def test_handshake_metrics(self, handshake):
        from repro.syncgraph.metrics import compute_metrics

        m = compute_metrics(build_sync_graph(handshake))
        assert m.tasks == 2
        assert m.rendezvous_nodes == 4
        assert m.sync_edges == 2
        assert m.clg_nodes == 10
        assert m.refined_work_bound == 10 * (10 + m.clg_edges)
        assert m.wave_space_bound == 9  # (2+1)*(2+1)
        assert not m.has_control_cycle

    def test_cyclic_flag(self):
        from repro.syncgraph.metrics import compute_metrics

        sg = graph_for(
            "program p;"
            "task a is begin while ? loop send b.m; end loop; end;"
            "task b is begin while ? loop accept m; end loop; end;"
        )
        m = compute_metrics(sg)
        assert m.has_control_cycle
        assert "Lemma-1" in m.describe()

    def test_to_dict_roundtrips_json(self, handshake):
        import json

        from repro.syncgraph.metrics import compute_metrics

        m = compute_metrics(build_sync_graph(handshake))
        assert json.loads(json.dumps(m.to_dict()))["tasks"] == 2
