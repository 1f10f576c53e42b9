"""Differential and regression tests for the indexed wave engine (PR 5).

The ``backend="index"`` wave kernels (:class:`repro.waves.engine.WaveIndex`)
must be observationally indistinguishable from the ``backend="reference"``
tuple-of-nodes oracles: same ``visited_count``, ``can_terminate``,
anomaly classifications *in the same order*, witness schedules, and
budget behavior.  Hypothesis drives both backends over random programs;
the bundled paper corpus pins the real workloads.

Also covers the bugfix satellites that ride along:

* the state budget is enforced during seeding (the initial cross
  product used to bypass ``state_limit`` entirely);
* budget exhaustion no longer discards partial findings —
  ``confirm_deadlock_report`` upgrades to CONFIRMED when a deadlock
  wave was in hand, and ``ExplorationLimitError`` carries the partial
  :class:`ExplorationResult`;
* ``Wave.position_of`` raises a typed :class:`UnknownTaskError`;
* ``next_waves_with_events`` yields each ``(event, wave)`` at most once
  even when a hand-built graph registers duplicate successors.
"""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.analysis.confirm import (
    ConfirmationOutcome,
    confirm_deadlock_report,
)
from repro.analysis.refined import refined_deadlock_analysis
from repro.errors import ExplorationLimitError, UnknownTaskError
from repro.lang.ast_nodes import Signal
from repro.lang.parser import parse_program
from repro.syncgraph.model import SyncGraph
from repro.waves.engine import BACKENDS, WaveIndex
from repro.waves.explore import ExplorationResult, explore
from repro.waves.wave import (
    Wave,
    initial_waves,
    iter_initial_waves,
    next_waves,
    next_waves_with_events,
    ready_pairs,
)
from repro.waves.witness import find_anomaly_witness
from repro.workloads.patterns import (
    barrier,
    corridor,
    dining_philosophers,
    handshake_chain,
)
from tests.conftest import graph_of
from tests.test_properties import FAST, small_programs


def _classification_fingerprint(classification):
    return (
        classification.wave,
        classification.stalls,
        classification.deadlocks,
    )


def _explore_fingerprint(result):
    return (
        result.visited_count,
        result.can_terminate,
        result.limited,
        [_classification_fingerprint(c) for c in result.anomalous],
    )


def _both_backends(graph, **kwargs):
    return (
        explore(graph, backend="index", **kwargs),
        explore(graph, backend="reference", **kwargs),
    )


# --------------------------------------------------------------------------
# differential equivalence: index engine vs reference oracle
# --------------------------------------------------------------------------


class TestDifferentialEquivalence:
    @FAST
    @given(small_programs())
    def test_explore_parity(self, program):
        graph = graph_of(program)
        indexed, reference = _both_backends(graph, state_limit=60_000)
        assert _explore_fingerprint(indexed) == _explore_fingerprint(
            reference
        )

    @FAST
    @given(small_programs())
    def test_explore_parity_under_tight_budget(self, program):
        # The budget-faithful paths must also agree: same limited flag,
        # same visited_count, same partial anomaly list.
        graph = graph_of(program)
        indexed, reference = _both_backends(
            graph, state_limit=7, on_limit="partial"
        )
        assert _explore_fingerprint(indexed) == _explore_fingerprint(
            reference
        )

    @FAST
    @given(small_programs())
    def test_witness_parity(self, program):
        graph = graph_of(program)
        witnesses = {}
        for backend in BACKENDS:
            try:
                witnesses[backend] = find_anomaly_witness(
                    graph, kind="any", state_limit=60_000, backend=backend
                )
            except ExplorationLimitError:
                witnesses[backend] = "limited"
        index_w, ref_w = witnesses["index"], witnesses["reference"]
        if index_w is None or index_w == "limited":
            assert ref_w == index_w
            return
        assert ref_w is not None and ref_w != "limited"
        assert index_w.initial == ref_w.initial
        assert index_w.schedule == ref_w.schedule
        assert index_w.waves == ref_w.waves
        assert _classification_fingerprint(
            index_w.classification
        ) == _classification_fingerprint(ref_w.classification)

    def test_corpus_parity(self, corpus):
        for name, entry in corpus.items():
            graph = graph_of(entry.program)
            indexed, reference = _both_backends(graph, state_limit=60_000)
            assert _explore_fingerprint(indexed) == _explore_fingerprint(
                reference
            ), f"explore parity broke on corpus program {name!r}"

    def test_corpus_witness_parity(self, corpus):
        for name, entry in corpus.items():
            graph = graph_of(entry.program)
            per_backend = {}
            for backend in BACKENDS:
                per_backend[backend] = find_anomaly_witness(
                    graph, kind="any", state_limit=60_000, backend=backend
                )
            index_w = per_backend["index"]
            ref_w = per_backend["reference"]
            if index_w is None:
                assert ref_w is None, name
                continue
            assert ref_w is not None, name
            assert index_w.schedule == ref_w.schedule, name
            assert index_w.waves == ref_w.waves, name

    def test_prebuilt_engine_is_reusable(self):
        graph = graph_of(dining_philosophers(4, True))
        engine = WaveIndex(graph)
        first = explore(graph, backend="index", engine=engine)
        second = explore(graph, backend="index", engine=engine)
        assert _explore_fingerprint(first) == _explore_fingerprint(second)
        assert find_anomaly_witness(
            graph, kind="deadlock", backend="index", engine=engine
        ) is not None

    def test_unpack_roundtrip(self):
        graph = graph_of(dining_philosophers(3, True))
        engine = WaveIndex(graph)
        for key, _occ in engine._seed():
            assert engine.unpack(key) in initial_waves(graph)

    def test_unknown_backend_rejected(self, handshake):
        graph = graph_of(handshake)
        with pytest.raises(ValueError, match="unknown backend"):
            explore(graph, backend="turbo")
        with pytest.raises(ValueError, match="unknown backend"):
            find_anomaly_witness(graph, backend="turbo")

    def test_unknown_on_limit_mode_rejected(self, handshake):
        graph = graph_of(handshake)
        with pytest.raises(ValueError, match="unknown on_limit"):
            explore(graph, on_limit="ignore")


# --------------------------------------------------------------------------
# satellite: budget enforced during seeding
# --------------------------------------------------------------------------

# Three entry branches => 2**3 = 8 initial waves before any expansion.
WIDE_SEED_SRC = """
program wide;
task a is begin if ? then send b.m0; else send b.m1; end if; end;
task b is begin if ? then accept m0; else accept m1; end if; end;
task c is begin if ? then send b.m0; else send b.m1; end if; end;
"""


class TestSeedingBudget:
    @pytest.fixture
    def wide_graph(self):
        return graph_of(parse_program(WIDE_SEED_SRC))

    def test_initial_cross_product_is_wide(self, wide_graph):
        assert len(initial_waves(wide_graph)) == 8

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_seeding_respects_state_limit(self, wide_graph, backend):
        # Regression: seeding used to materialize the whole initial
        # cross product regardless of state_limit.
        result = explore(
            wide_graph, state_limit=4, backend=backend, on_limit="partial"
        )
        assert result.limited
        assert result.visited_count == 4

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_witness_seeding_respects_state_limit(self, wide_graph, backend):
        with pytest.raises(ExplorationLimitError):
            find_anomaly_witness(
                wide_graph, kind="deadlock", state_limit=4, backend=backend
            )


# --------------------------------------------------------------------------
# satellite: partial results survive budget exhaustion
# --------------------------------------------------------------------------


class TestBudgetFaithfulness:
    @pytest.fixture
    def dining_graph(self):
        return graph_of(dining_philosophers(4, True))

    def test_limit_error_carries_partial_result(self, dining_graph):
        with pytest.raises(ExplorationLimitError) as excinfo:
            explore(dining_graph, state_limit=50)
        partial = excinfo.value.result
        assert isinstance(partial, ExplorationResult)
        assert partial.limited
        assert not partial.exhaustive
        assert partial.visited_count == 50
        assert partial.state_limit == 50

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_on_limit_partial_returns_result(self, dining_graph, backend):
        result = explore(
            dining_graph, state_limit=50, backend=backend,
            on_limit="partial",
        )
        assert result.limited
        assert result.visited_count == 50

    def test_exhaustive_run_is_marked_exhaustive(self, dining_graph):
        result = explore(dining_graph, state_limit=60_000)
        assert result.exhaustive
        assert not result.limited
        assert result.has_deadlock

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_witness_found_within_budget_is_returned(
        self, dining_graph, backend
    ):
        # The full space has 321 waves; a budget of 50 is exhausted, but
        # a deadlock wave is discovered first — the witness must be
        # returned, not thrown away with an ExplorationLimitError.
        witness = find_anomaly_witness(
            dining_graph, kind="deadlock", state_limit=50, backend=backend
        )
        assert witness is not None
        assert witness.is_deadlock

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_confirm_upgrades_to_confirmed_despite_budget(
        self, dining_graph, backend
    ):
        # Regression: confirm_deadlock_report used to answer
        # INCONCLUSIVE whenever the budget ran out, even with a deadlock
        # wave already in hand.
        report = refined_deadlock_analysis(dining_graph)
        assert not report.deadlock_free
        confirmed = confirm_deadlock_report(
            dining_graph, report, state_limit=50, backend=backend
        )
        assert confirmed.outcome == ConfirmationOutcome.CONFIRMED
        assert confirmed.witness is not None
        assert confirmed.witness.is_deadlock

    def test_confirm_still_inconclusive_without_findings(self, dining_graph):
        # A budget exhausted before any deadlock wave turns up has
        # nothing to upgrade: INCONCLUSIVE remains the honest answer.
        report = refined_deadlock_analysis(dining_graph)
        assert not report.deadlock_free
        confirmed = confirm_deadlock_report(
            dining_graph, report, state_limit=5
        )
        assert confirmed.outcome == ConfirmationOutcome.INCONCLUSIVE
        assert confirmed.witness is None


# --------------------------------------------------------------------------
# satellite: typed position_of error + duplicate-successor dedup
# --------------------------------------------------------------------------


class TestWaveFixes:
    def test_position_of_unknown_task_raises_typed_error(self, handshake):
        graph = graph_of(handshake)
        wave = initial_waves(graph)[0]
        with pytest.raises(UnknownTaskError) as excinfo:
            wave.position_of(graph, "nope")
        assert excinfo.value.task == "nope"
        assert excinfo.value.known == graph.tasks
        assert "t1" in str(excinfo.value)

    def test_position_of_known_task(self, handshake):
        graph = graph_of(handshake)
        wave = initial_waves(graph)[0]
        for i, task in enumerate(graph.tasks):
            assert wave.position_of(graph, task) is wave.positions[i]

    @staticmethod
    def _graph_with_duplicate_successors():
        # Normal construction dedups control edges; build by hand and
        # inject the duplicate directly, as a corrupted/hand-built
        # graph could.
        graph = SyncGraph(["a", "b"])
        sig = Signal("b", "m")
        send = graph.add_rendezvous("send", "a", sig)
        acc = graph.add_rendezvous("accept", "b", sig)
        graph.add_control_edge(graph.b, send)
        graph.add_control_edge(graph.b, acc)
        graph.add_control_edge(send, graph.e)
        graph.add_control_edge(acc, graph.e)
        graph.connect_sync_edges()
        graph._control_succ[send].append(graph.e)  # the duplicate
        return graph, send, acc

    def test_next_waves_dedups_duplicate_successors(self):
        graph, send, acc = self._graph_with_duplicate_successors()
        wave = Wave((send, acc))
        successors = list(next_waves_with_events(graph, wave))
        assert len(successors) == len(set(successors)) == 1

    def test_engine_dedups_duplicate_successors(self):
        graph, send, acc = self._graph_with_duplicate_successors()
        engine = WaveIndex(graph)
        slot = engine.slot_base[0] + list(
            engine.node_of_slot
        ).index(send)
        assert len(engine.succ_deltas[slot]) == 1
        indexed, _, _, _, _ = engine.explore(60_000)
        assert indexed == 2  # <send, accept> and <e, e>

    def test_iter_initial_waves_matches_initial_waves(self, crossed):
        graph = graph_of(crossed)
        assert list(iter_initial_waves(graph)) == initial_waves(graph)


# --------------------------------------------------------------------------
# the bit-parallel ready-pair step against the reference ready_pairs
# --------------------------------------------------------------------------

# The acceptor (server, task 0) is declared before its sender (client,
# task 1): the client's two sends have ready partners only in a
# lower-indexed task and never lead a pair, while its `accept ack` also
# pairs with the relay (task 2) above it.
ACCEPTOR_FIRST_SRC = """
program acceptor_first;
task server is begin accept req; send client.ack; accept bye; end;
task client is begin send server.req; accept ack; send server.bye; end;
task relay is begin if ? then send client.ack; else accept bye; end if; end;
"""


def _assert_step_matches_reference(graph, state_cap=20_000):
    """On every wave reached from the seeds (up to ``state_cap``), the
    engine's slot pairs, mapped back to task pairs, equal
    :func:`ready_pairs` in order."""
    engine = WaveIndex(graph)
    slot_of = {}
    task_of_slot = []
    for i in range(engine.task_count):
        end = (
            engine.slot_base[i + 1]
            if i + 1 < engine.task_count
            else engine.slot_count
        )
        for slot in range(engine.slot_base[i], end):
            slot_of[i, engine.node_of_slot[slot]] = slot
            task_of_slot.append(i)
    seen = set()
    frontier = list(dict.fromkeys(initial_waves(graph)))
    checked = 0
    while frontier and checked < state_cap:
        wave = frontier.pop()
        if wave in seen:
            continue
        seen.add(wave)
        checked += 1
        slots = [slot_of[i, node] for i, node in enumerate(wave.positions)]
        occ = sum(1 << slot for slot in slots)
        key = sum(
            (slot - engine.slot_base[i]) << engine.shift[i]
            for i, slot in enumerate(slots)
        )
        assert engine.unpack(key) == wave
        slot_pairs = engine._ready_slot_pairs(occ)
        for s_a, s_b in slot_pairs:
            assert s_a in slots and s_b in slots
        task_pairs = [
            (task_of_slot[s_a], task_of_slot[s_b]) for s_a, s_b in slot_pairs
        ]
        assert task_pairs == ready_pairs(graph, wave), wave
        frontier.extend(next_waves(graph, wave))
    assert checked > 0
    return checked


class TestReadyPairStep:
    @FAST
    @given(small_programs())
    def test_matches_reference_on_random_programs(self, program):
        _assert_step_matches_reference(graph_of(program))

    @pytest.mark.parametrize(
        "program",
        [
            dining_philosophers(3),
            dining_philosophers(4, False),
            barrier(3),
            barrier(3, 2),
            corridor(2, 2),
            corridor(3, 1),
            handshake_chain(3),
            handshake_chain(3, 2),
        ],
        ids=lambda p: p.name,
    )
    def test_matches_reference_on_patterns(self, program):
        _assert_step_matches_reference(graph_of(program))

    def test_partners_only_in_lower_tasks(self):
        graph = graph_of(parse_program(ACCEPTOR_FIRST_SRC))
        engine = WaveIndex(graph)
        client = graph.tasks.index("client")
        lower_only = [
            slot
            for slot in range(engine.slot_base[client],
                              engine.slot_base[client + 1])
            if engine.node_of_slot[slot].is_rendezvous
            and not engine.partner_above[slot]
            and any(
                graph.tasks.index(p.task) < client
                for p in graph.sync_neighbors(engine.node_of_slot[slot])
            )
        ]
        assert lower_only  # the case this program exists for
        assert all(not (engine.lead_mask >> s) & 1 for s in lower_only)
        _assert_step_matches_reference(graph)

    def test_duplicated_control_successor(self):
        graph, _, _ = TestWaveFixes._graph_with_duplicate_successors()
        assert _assert_step_matches_reference(graph) == 2
