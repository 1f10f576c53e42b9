"""The ``service_mix`` workload: one-shot CLI runs, a stdio daemon, repair
requests and a batch sweep, each driven by one closed-loop client.

The timed pass:

1. one-shot ``python -m repro.cli <file> --json`` subprocesses (the code
   path of the ``repro-analyze`` script);
2. an editor mix against ``python -m repro.server --no-store``: per
   document ``didOpen`` + ``analyze``, three warm ``analyze``, a
   comment-only ``didChange`` + ``analyze`` (partial invalidation), a
   whole-text replacement by another program of the same family +
   ``analyze`` (full invalidation), and ``lint``;
3. ``repair`` requests on the repair corpus, through the same daemon;
4. ``run_batch`` at ``jobs=nproc`` into a fresh cache directory (cold),
   then again over the same directory (warm).

Steps 1 to 3 are interleaved evenly through the pass; the batch, which
uses every core, runs last.
Each request is timed from sending it to reading its answer.  The
traced pass repeats the same requests with a span around each; probes
after it split the layers: a serial batch, the same daemon lines through
an in-process ``AnalysisServer.handle_line``, a layered replay of the
documents' analyses with reporting and lint, and ``suggest_repairs``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import selectors
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.farm.runner import run_batch
from repro.lint.engine import run_lint
from repro.repair import suggest_repairs
from repro.reporting import analysis_result_to_dict, render_json
from repro.server.daemon import AnalysisServer
from repro.server.session import Session

from grading import DECIDED, FAILED, Tally, grade_flag, grade_verdict
from inputs import Workload
from library import replay_analyze
from tracing import Tracer

# No single request of this workload takes more than a few seconds; a
# reply that has not come after this long means the daemon is stuck.
REPLY_TIMEOUT_S = 120.0
COMMENT_EDIT = "\n-- edited: comment only\n"


def workers() -> int:
    return len(os.sched_getaffinity(0))


@contextmanager
def pinned(cpus: Set[int]):
    """Run this process on ``cpus`` only, for the duration."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


class Daemon:
    """A ``repro.server`` stdio subprocess and its one client.

    The daemon runs on one CPU (every thread it starts inherits that),
    and the client joins it there while it talks to it.  The client
    waits for each answer, so the two never run at once; sharing a CPU
    keeps cross-CPU wake-ups, which on a shared virtual machine cost
    more and vary more than a warm request itself, out of the latency.
    """

    def __init__(self, root: Path, env: Dict[str, str]) -> None:
        self.cpu = {min(os.sched_getaffinity(0))}
        with pinned(self.cpu):
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.server", "--no-store"],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                cwd=root,
                env=env,
            )
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.proc.stdout, selectors.EVENT_READ)
        self._next_id = 0

    def send(self, method: str, params: Optional[dict] = None):
        """One request; returns (line sent, response, seconds)."""
        self._next_id += 1
        request = {"id": self._next_id, "method": method}
        if params is not None:
            request["params"] = params
        line = json.dumps(request)
        started = time.perf_counter()
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()
        if not self._selector.select(REPLY_TIMEOUT_S):
            raise TimeoutError(f"daemon gave no answer to {method}")
        reply = self.proc.stdout.readline()
        elapsed = time.perf_counter() - started
        if not reply:
            raise RuntimeError(f"daemon exited during {method}")
        return line, json.loads(reply), elapsed

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.send("shutdown")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
        except (OSError, TimeoutError, RuntimeError, ValueError,
                subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self._selector.close()
            self.proc.stdout.close()


@dataclass
class Exchange:
    """One daemon request of the pass."""

    tag: str  # open, analyze_cold, analyze_warm, edit_partial, ...
    document: str
    truth: str  # ground truth of the document's text at this point
    line: str
    response: dict
    start: float
    seconds: float


@dataclass
class ServicePass:
    wall: float = 0.0
    oneshots: List[Tuple[str, subprocess.CompletedProcess, float]] = field(
        default_factory=list
    )
    editor: List[Exchange] = field(default_factory=list)
    repairs: List[Exchange] = field(default_factory=list)
    batch_cold: object = None
    batch_warm: object = None
    batch_cold_s: float = 0.0
    batch_warm_s: float = 0.0
    counts: Counter = field(default_factory=Counter)


def _span(tracer: Optional[Tracer], name: str, request: str):
    if tracer is None:
        return nullcontext()
    return tracer.span(name, request=request)


def run_pass(
    workload: Workload,
    paths: Dict[str, Path],
    daemon: Daemon,
    cache_dir: Path,
    root: Path,
    env: Dict[str, str],
    tracer: Optional[Tracer] = None,
    between: Callable[[], None] = lambda: None,
) -> ServicePass:
    """One pass; ``between`` runs before each step, outside the wall."""
    plan = workload.service
    inputs = workload.inputs
    result = ServicePass()

    def oneshot(name):
        t = time.perf_counter()
        with _span(tracer, "cli.oneshot", f"oneshot:{name}"):
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", str(paths[name]),
                 "--json"],
                capture_output=True, text=True, timeout=REPLY_TIMEOUT_S,
                cwd=root, env=env,
            )
        result.oneshots.append((name, proc, time.perf_counter() - t))

    def with_daemon_cpu(step):
        def on_daemon_cpu(item):
            with pinned(daemon.cpu):
                step(item)
        return on_daemon_cpu

    def exchange(tag, doc, truth, method, params, into):
        start = time.perf_counter()
        with _span(tracer, f"server.{method}", f"{tag}:{doc}"):
            line, response, seconds = daemon.send(method, params)
        into.append(Exchange(tag, doc, truth, line, response, start, seconds))

    @with_daemon_cpu
    def edit_session(pair):
        doc, other = pair
        uri = f"mem:{doc}"
        text, truth = inputs[doc].source, inputs[doc].truth
        swap, swap_truth = inputs[other].source, inputs[other].truth
        steps = [
            ("open", truth, "didOpen", {"uri": uri, "text": text,
                                        "version": 1}),
            ("analyze_cold", truth, "analyze", {"uri": uri}),
        ]
        steps += [("analyze_warm", truth, "analyze", {"uri": uri})] * 3
        steps += [
            ("edit_partial", truth, "didChange",
             {"uri": uri, "text": text + COMMENT_EDIT, "version": 2}),
            ("analyze_partial", truth, "analyze", {"uri": uri}),
            ("edit_full", swap_truth, "didChange",
             {"uri": uri, "text": swap, "version": 3}),
            ("analyze_full", swap_truth, "analyze", {"uri": uri}),
            ("lint", swap_truth, "lint", {"uri": uri}),
        ]
        for tag, expect, method, params in steps:
            exchange(tag, doc, expect, method, params, result.editor)

    @with_daemon_cpu
    def repair(name):
        exchange(
            "repair", name, inputs[name].truth, "repair",
            {"uri": f"mem:{name}", "text": inputs[name].source},
            result.repairs,
        )

    # The one-shot, editor and repair steps are spread evenly through
    # the pass, so each kind samples the host over the whole pass rather
    # than over one short stretch of it.
    steps = [
        ((k + 0.5) / len(items), kind, k, step, item)
        for kind, (step, items) in enumerate(
            ((oneshot, plan.oneshots), (edit_session, plan.documents),
             (repair, plan.repairs))
        )
        for k, item in enumerate(items)
    ]
    paused = 0.0

    def pause():
        nonlocal paused
        t = time.perf_counter()
        between()
        paused += time.perf_counter() - t

    started = time.perf_counter()
    for *_, step, item in sorted(steps, key=lambda s: s[:3]):
        pause()
        step(item)

    items = [(name, inputs[name].source) for name in plan.batch]
    for warm in (False, True):
        pause()
        t = time.perf_counter()
        with _span(tracer, "farm.warm" if warm else "farm.parallel_cold",
                   "batch"):
            report = run_batch(items, jobs=workers(), cache=str(cache_dir))
        elapsed = time.perf_counter() - t
        if warm:
            result.batch_warm, result.batch_warm_s = report, elapsed
        else:
            result.batch_cold, result.batch_cold_s = report, elapsed
    result.wall = time.perf_counter() - started - paused
    # run_batch terminates its pool workers without waiting for them.
    deadline = time.monotonic() + REPLY_TIMEOUT_S
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    return result


def editor_actions(editor: List[Exchange]) -> List[Tuple[float, float]]:
    """(start, seconds) of each editor action.

    An action is what an editor waits for: a ``didOpen`` or
    ``didChange`` together with the ``analyze`` that follows it, or a
    lone warm ``analyze`` or ``lint``.
    """
    actions, pending = [], None
    for ex in editor:
        if ex.tag in ("open", "edit_partial", "edit_full"):
            pending = ex
        elif pending is not None:
            actions.append((pending.start, pending.seconds + ex.seconds))
            pending = None
        else:
            actions.append((ex.start, ex.seconds))
    return actions


def _verdict_of(report: dict) -> str:
    return report["deadlock"]["verdict"]


def grade_pass(workload: Workload, sp: ServicePass) -> Tally:
    tally = Tally()
    inputs = workload.inputs
    for name, proc, _ in sp.oneshots:
        label = f"oneshot:{name}"
        if proc.returncode not in (0, 1):
            tally.add(FAILED, label, f"exit {proc.returncode}: "
                      f"{proc.stderr.strip()[-200:]}")
            continue
        try:
            verdict = _verdict_of(json.loads(proc.stdout))
        except (ValueError, KeyError) as exc:
            tally.add(FAILED, label, f"unreadable report: {exc}")
            continue
        truth = inputs[name].truth
        tally.add(grade_verdict(truth, verdict), label,
                  f"{verdict} on a {truth} input")
    for ex in sp.editor + sp.repairs:
        label = f"{ex.tag}:{ex.document}"
        if "error" in ex.response:
            tally.add(FAILED, label, str(ex.response["error"]))
            continue
        body = ex.response["result"]
        if ex.tag == "open":
            tally.add(DECIDED if body.get("opened") else FAILED, label,
                      "document not opened")
        elif ex.tag in ("edit_partial", "edit_full"):
            want = "partial" if ex.tag == "edit_partial" else "full"
            got = body.get("invalidation")
            tally.add(DECIDED if got == want else FAILED, label,
                      f"invalidation {got!r}, expected {want!r}")
        elif ex.tag == "lint":
            flagged = any(
                d["rule"] == "ADL012" for d in body["report"]["diagnostics"]
            )
            tally.add(grade_flag(ex.truth, flagged), label,
                      f"lint possible-deadlock={flagged} on a {ex.truth} "
                      "input")
        elif ex.tag == "repair":
            fixes = body["report"].get("repair", {}).get("fixes", [])
            certified = [f for f in fixes if f.get("certified_by")]
            tally.add(DECIDED if certified else FAILED, label,
                      "no certified fix")
        else:
            verdict = _verdict_of(body["report"])
            tally.add(grade_verdict(ex.truth, verdict), label,
                      f"{verdict} on a {ex.truth} input")
    for report in (sp.batch_cold, sp.batch_warm):
        for item in report.items:
            label = f"batch:{item.label}"
            if not item.ok:
                tally.add(FAILED, label, f"{item.status}: {item.error}")
                continue
            truth = inputs[item.label].truth
            verdict = item.result.deadlock.verdict
            tally.add(grade_verdict(truth, verdict), label,
                      f"{verdict} on a {truth} input")
    return tally


def _without_timings(value):
    if isinstance(value, dict):
        return {
            k: _without_timings(v)
            for k, v in value.items()
            if k not in ("wall_time_s", "uptime_s", "pid", "id")
        }
    if isinstance(value, list):
        return [_without_timings(v) for v in value]
    return value


def _median_ms(values: List[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def trace_probes(
    workload: Workload,
    sp: ServicePass,
    daemon: Daemon,
    cache_dir: Path,
    tracer: Tracer,
) -> Tuple[Dict[str, float], List[str]]:
    """Layer-splitting probes after a traced pass.

    Returns the probe-derived metrics and a list of layered-replay
    mismatches (empty when every replay reproduced the pass's answers).
    """
    inputs = workload.inputs
    metrics: Dict[str, float] = {}
    mismatched: List[str] = []
    counts = sp.counts

    with tracer.span("server.status", request="status", probe=True):
        _, status, _ = daemon.send("status")
    counters = status["result"]["counters"]
    lookups = (
        counters["cache_hits"] + counters["store_hits"] + counters["computed"]
    )
    metrics["server.cache_hit_ratio"] = (
        counters["cache_hits"] / lookups if lookups else 0.0
    )
    metrics["server.invalidations_partial"] = counters["invalidations_partial"]
    metrics["server.invalidations_full"] = counters["invalidations_full"]

    by_tag: Dict[str, List[float]] = {}
    for ex in sp.editor + sp.repairs:
        by_tag.setdefault(ex.tag, []).append(ex.seconds)
    metrics["server.analyze_cold_ms"] = _median_ms(by_tag["analyze_cold"])
    metrics["server.analyze_warm_ms"] = _median_ms(by_tag["analyze_warm"])
    metrics["server.edit_partial_ms"] = _median_ms(
        [a + b for a, b in zip(by_tag["edit_partial"],
                               by_tag["analyze_partial"])]
    )
    metrics["server.edit_full_ms"] = _median_ms(
        [a + b for a, b in zip(by_tag["edit_full"], by_tag["analyze_full"])]
    )
    metrics["server.lint_ms"] = _median_ms(by_tag["lint"])
    metrics["server.repair_ms"] = _median_ms(by_tag.get("repair", []))

    # The same lines through an in-process server: the difference is
    # what the stdio transport costs.
    server = AnalysisServer(Session())
    transport = []
    for ex in sp.editor + sp.repairs:
        t = time.perf_counter()
        with tracer.span("server.inproc", request=ex.document, probe=True):
            response = server.handle_line(ex.line)
        transport.append(ex.seconds - (time.perf_counter() - t))
        if _without_timings(response) != _without_timings(ex.response):
            mismatched.append(f"in-process {ex.tag}:{ex.document}")
    metrics["server.transport_ms"] = _median_ms(transport)

    with tracer.span("farm.serial_cold", request="batch", probe=True):
        serial = run_batch(
            [(name, inputs[name].source) for name in workload.service.batch],
            jobs=1, cache=str(cache_dir),
        )
    serial_s = tracer.durations("farm.serial_cold")[-1]
    verdicts = [
        (i.label, i.ok and i.result.deadlock.verdict) for i in serial.items
    ]
    if verdicts != [
        (i.label, i.ok and i.result.deadlock.verdict)
        for i in sp.batch_cold.items
    ]:
        mismatched.append("serial batch verdicts differ from parallel")
    metrics["farm.serial_cold_s"] = serial_s
    metrics["farm.parallel_cold_s"] = sp.batch_cold_s
    metrics["farm.warm_s"] = sp.batch_warm_s
    metrics["farm.pool_speedup"] = serial_s / sp.batch_cold_s
    metrics["farm.cache_hit_ratio"] = sp.batch_warm.cache_hits / len(
        sp.batch_warm.items
    )
    metrics["farm.items_failed"] = sum(
        not item.ok
        for report in (serial, sp.batch_cold, sp.batch_warm)
        for item in report.items
    )

    # Layered replay of the documents' analyses: the rendered payload
    # must equal the daemon's answer byte for byte.
    answers = {
        (ex.tag, ex.document): ex.response["result"]
        for ex in sp.editor
        if "result" in ex.response
    }
    for doc, other in workload.service.documents:
        uri = f"mem:{doc}"
        for tag, name in (("analyze_cold", doc), ("analyze_full", other)):
            text = inputs[name].source
            with tracer.span("request", request=f"replay:{doc}",
                             layer=False, probe=True):
                result = replay_analyze(text, "refined", tracer, counts)
                with tracer.span("reporting.render"):
                    rendered = render_json(analysis_result_to_dict(result))
                counts["reporting.bytes"] += len(rendered)
                if tag == "analyze_full":
                    with tracer.span("lint.run"):
                        lint = run_lint(result.program, source=text, path=uri)
                    counts["lint.diagnostics"] += len(lint.diagnostics)
                    daemon_lint = answers.get(("lint", doc))
                    if daemon_lint is None or len(lint.diagnostics) != len(
                        daemon_lint["report"]["diagnostics"]
                    ):
                        mismatched.append(f"lint replay:{doc}")
            answer = answers.get((tag, doc))
            if answer is None or json.loads(rendered) != answer["report"]:
                mismatched.append(f"analyze replay {tag}:{doc}")

    for ex in sp.repairs:
        with tracer.span("repair.suggest", request=ex.document, probe=True):
            report = suggest_repairs(inputs[ex.document].source)
        counts["repair.candidates"] += report.candidates_generated
        counts["repair.certified"] += len(report.fixes)
        daemon_fixed = (
            ex.response.get("result", {}).get("report", {})
            .get("repair", {}).get("fixed")
        )
        if daemon_fixed != report.fixed:
            mismatched.append(f"repair replay:{ex.document}")
    return metrics, mismatched
