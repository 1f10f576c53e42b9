"""Library requests (``large_programs``, ``exact_search``): the direct
public call, its layered replay, and grading.

The timed pass makes the call a user makes — ``repro.analyze`` or
``confirm_analysis`` — one request at a time.  The traced pass replays
each request one public call at a time, in the pipeline order of
``repro.api.prepare`` and ``repro.api._finish``, with a span around each
call.  :func:`fingerprint` of the replayed answer must equal that of the
direct answer (verdict, evidence, stats, confirmation outcome and
witness), so the per-layer split measures the same computation as the
end-to-end timing.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import repro
from repro.analysis.coexec import compute_coexec
from repro.analysis.confirm import (
    ConfirmationOutcome,
    ConfirmedReport,
    confirm_analysis,
)
from repro.analysis.index import AnalysisIndex
from repro.analysis.orderings import compute_orderings, strict_dominators
from repro.analysis.refined import refined_deadlock_analysis
from repro.analysis.results import DeadlockReport, Verdict
from repro.analysis.stalls import stall_analysis
from repro.api import ALGORITHMS, AnalysisResult, PreparedProgram
from repro.lang.parser import parse_program
from repro.lang.validate import validate_program
from repro.reporting import confirmation_to_dict, deadlock_report_to_dict
from repro.syncgraph.build import build_sync_graph
from repro.syncgraph.clg import build_clg
from repro.transforms.inline import inline_procedures
from repro.transforms.unroll import has_approximated_loops, remove_loops
from repro.waves.engine import WaveIndex
from repro.waves.explore import explore
from repro.waves.guide import guide_for
from repro.waves.witness import search_anomaly_witness

from grading import (
    FAILED,
    Tally,
    grade_confirmation,
    grade_exact,
    grade_verdict,
    witness_replays,
)
from inputs import STATE_BUDGET, Request, Workload
from tracing import Tracer


@dataclass
class PassResult:
    wall: float
    latencies: Dict[str, float]
    starts: Dict[str, float]
    outputs: Dict[str, object]
    counts: Counter = field(default_factory=Counter)


def call(req: Request, source: str, ctx: Dict[str, object]):
    """The public call a user makes for ``req``."""
    if req.kind == "analyze":
        return repro.analyze(source, algorithm=req.algorithm)
    if req.kind == "exact":
        return repro.analyze(
            source, algorithm="exact", state_limit=STATE_BUDGET
        )
    return confirm_analysis(
        ctx[req.after], state_limit=STATE_BUDGET, strategy=req.strategy
    )


def replay_prepare(source: str, tr: Tracer, counts: Counter):
    """``repro.api.prepare``, one public call per span."""
    with tr.span("lang.parse"):
        program = parse_program(source)
    with tr.span("transforms.inline"):
        inlined, procedures_inlined = inline_procedures(program)
    with tr.span("lang.validate"):
        validation = validate_program(inlined)
    with tr.span("transforms.unroll"):
        analyzed, transformed = remove_loops(inlined)
        approximated = transformed and has_approximated_loops(inlined)
    with tr.span("syncgraph.build"):
        graph = build_sync_graph(analyzed)
    counts["syncgraph.rendezvous_nodes"] += len(graph.rendezvous_nodes)
    return PreparedProgram(
        source_program=program,
        inlined=inlined,
        validation=validation,
        analyzed=analyzed,
        transformed=transformed,
        procedures_inlined=procedures_inlined,
        sync_graph=graph,
        approximated=approximated,
    )


def _static_report(prep, algorithm: str, tr: Tracer, counts: Counter):
    graph = prep.sync_graph
    with tr.span("cfg.dominators", probe=True):
        strict_dominators(graph)
    with tr.span("syncgraph.clg"):
        clg = build_clg(graph)
    with tr.span("analysis.orderings"):
        orderings = compute_orderings(graph)
    with tr.span("analysis.coexec"):
        coexec = compute_coexec(graph)
    with tr.span("analysis.index"):
        index = AnalysisIndex(
            graph, clg=clg, orderings=orderings, coexec=coexec
        )
    counts["syncgraph.clg_nodes"] += clg.node_count
    counts["syncgraph.clg_edges"] += clg.edge_count
    counts["analysis.ordered_pairs"] += orderings.pair_count
    counts["analysis.not_coexec_pairs"] += coexec.pair_count
    if algorithm == "refined":
        with tr.span("analysis.heads"):
            report = refined_deadlock_analysis(graph, index=index)
        counts["analysis.heads_examined"] += report.heads_examined
        counts["analysis.components_flagged"] += len(report.evidence)
        return report
    with tr.span("analysis.extensions"):
        return ALGORITHMS[algorithm](graph, index=index)


def _exact_report(prep, tr: Tracer, counts: Counter) -> DeadlockReport:
    graph = prep.exact_graph
    with tr.span("waves.engine"):
        engine = WaveIndex(graph)
    with tr.span("waves.search"):
        result = explore(
            graph, state_limit=STATE_BUDGET, engine=engine,
            on_limit="partial",
        )
    counts["waves.states"] += result.visited_count
    counts["waves.limited_searches"] += int(result.limited)
    return DeadlockReport(
        verdict=(
            Verdict.POSSIBLE_DEADLOCK
            if result.has_deadlock or result.limited
            else Verdict.CERTIFIED_FREE
        ),
        algorithm="exact-waves",
        stats={
            "feasible_waves": result.visited_count,
            "exploration_limited": result.limited,
            "explored_pre_unroll_graph": prep.approximated,
            "strategy": result.strategy,
            "deadlock_waves": len(result.deadlock_waves),
        },
    )


def replay_analyze(
    source: str, algorithm: str, tr: Tracer, counts: Counter
) -> AnalysisResult:
    """``repro.analyze`` one public call at a time."""
    prep = replay_prepare(source, tr, counts)
    exact = algorithm == "exact"
    if exact:
        report = _exact_report(prep, tr, counts)
    else:
        report = _static_report(prep, algorithm, tr, counts)
        if prep.approximated:
            report.stats["unroll_approximated"] = True
    report.loops_transformed = prep.transformed
    if prep.procedures_inlined:
        report.stats["procedures_inlined"] = len(
            prep.source_program.procedures
        )
    with tr.span("analysis.stall"):
        stall = stall_analysis(prep.inlined)
    changed = prep.transformed or prep.procedures_inlined
    return AnalysisResult(
        program=prep.source_program,
        analyzed_program=prep.analyzed if changed else prep.source_program,
        validation=prep.validation,
        sync_graph=prep.sync_graph,
        deadlock=report,
        stall=stall,
        loops_transformed=prep.transformed,
    )


def confirm_graph(result: AnalysisResult):
    """The loop-faithful graph ``confirm_analysis`` searches."""
    if result.deadlock.stats.get("unroll_approximated"):
        return build_sync_graph(inline_procedures(result.program)[0])
    return result.sync_graph


def replay_confirm(
    result: AnalysisResult, strategy: str, tr: Tracer, counts: Counter
) -> ConfirmedReport:
    """``confirm_analysis`` as engine build, guide build and search."""
    report = result.deadlock
    if report.deadlock_free:
        return ConfirmedReport(
            report=report,
            outcome=ConfirmationOutcome.NOT_NEEDED,
            states_budget=STATE_BUDGET,
        )
    graph = result.sync_graph
    if report.stats.get("unroll_approximated"):
        with tr.span("syncgraph.build"):
            graph = confirm_graph(result)
    with tr.span("waves.engine"):
        engine = WaveIndex(graph)
    if strategy != "bfs":
        # guide_for is build_guide plus the engine-side cache that the
        # search reads, so the search below does not rebuild it.
        with tr.span("waves.guide"):
            guide_for(engine)
    with tr.span("waves.search"):
        outcome = search_anomaly_witness(
            graph, kind="deadlock", state_limit=STATE_BUDGET,
            engine=engine, strategy=strategy,
        )
    counts["waves.states"] += outcome.states
    counts["waves.limited_searches"] += int(outcome.limited)
    if outcome.witness is not None:
        graded = ConfirmationOutcome.CONFIRMED
    elif outcome.limited:
        graded = ConfirmationOutcome.INCONCLUSIVE
    else:
        graded = ConfirmationOutcome.REFUTED
    return ConfirmedReport(
        report=report,
        outcome=graded,
        witness=outcome.witness,
        states_budget=STATE_BUDGET,
    )


def replay(req: Request, source: str, ctx, tr: Tracer, counts: Counter):
    if req.kind == "confirm":
        return replay_confirm(ctx[req.after], req.strategy, tr, counts)
    return replay_analyze(source, req.algorithm, tr, counts)


def run_pass(
    workload: Workload,
    tracer: Optional[Tracer] = None,
    between: Callable[[], None] = lambda: None,
) -> PassResult:
    """One closed-loop pass: each request waits for the previous answer.

    ``between`` runs before each request, outside the pass's wall time.
    """
    counts: Counter = Counter()
    outputs: Dict[str, object] = {}
    latencies: Dict[str, float] = {}
    starts: Dict[str, float] = {}
    probes_before = tracer.probe_time() if tracer else 0.0
    paused = 0.0
    started = time.perf_counter()
    for req in workload.requests:
        source = workload.inputs[req.input].source
        t = time.perf_counter()
        between()
        paused += time.perf_counter() - t
        t = time.perf_counter()
        try:
            if tracer is None:
                out = call(req, source, outputs)
            else:
                with tracer.span("request", request=req.label, layer=False):
                    out = replay(req, source, outputs, tracer, counts)
        except Exception as exc:  # graded as a failed request
            out = exc
        starts[req.label] = t
        latencies[req.label] = time.perf_counter() - t
        outputs[req.label] = out
    wall = time.perf_counter() - started - paused
    if tracer is not None:
        wall -= tracer.probe_time() - probes_before
    return PassResult(wall, latencies, starts, outputs, counts)


def grade_pass(workload: Workload, result: PassResult) -> Tally:
    tally = Tally()
    for req in workload.requests:
        out = result.outputs[req.label]
        truth = workload.inputs[req.input].truth
        if isinstance(out, Exception):
            tally.add(FAILED, req.label, f"{type(out).__name__}: {out}")
        elif req.kind == "analyze":
            verdict = out.deadlock.verdict
            tally.add(
                grade_verdict(truth, verdict), req.label,
                f"{verdict} on a {truth} input",
            )
        elif req.kind == "exact":
            verdict = out.deadlock.verdict
            tally.add(
                grade_exact(truth, out.deadlock.stats, verdict), req.label,
                f"exact {verdict} on a {truth} input",
            )
        else:
            grade = grade_confirmation(truth, out.outcome)
            detail = f"{out.outcome} on a {truth} input"
            if out.outcome == ConfirmationOutcome.CONFIRMED:
                graph = confirm_graph(result.outputs[req.after])
                reason = witness_replays(graph, out.witness)
                if reason is not None:
                    grade, detail = FAILED, f"witness does not replay: {reason}"
            tally.add(grade, req.label, detail)
    return tally


def fingerprint(req: Request, out) -> object:
    """What layered replay must reproduce of a request's answer."""
    if isinstance(out, Exception):
        return ("error", type(out).__name__, str(out))
    if req.kind == "confirm":
        return confirmation_to_dict(out)
    return (deadlock_report_to_dict(out.deadlock), out.stall.verdict)


def mismatches(workload: Workload, direct: PassResult, traced: PassResult) -> List[str]:
    return [
        req.label
        for req in workload.requests
        if fingerprint(req, direct.outputs[req.label])
        != fingerprint(req, traced.outputs[req.label])
    ]
