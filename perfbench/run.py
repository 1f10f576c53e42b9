"""End-to-end benchmark of the checker.

Run from the root of a checkout::

    python3 perfbench/run.py --workload large_programs --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` times closed-loop passes over the workload's requests for
``--seconds`` seconds (at least one pass) and prints the end-to-end
metrics, stated at the reference host speed of ``hostspeed.py``;
``--trace 1`` runs one plain pass and one traced replay and prints the
per-layer split.  Every answer is graded against
ground truth that does not come from the analyzer (see ``inputs.py``);
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``BENCHMARK.json`` at the
root lists the workloads and metrics; ``perfbench/README.md`` says
what each means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent

# (metric, unit) of every end-to-end and per-layer figure, in output
# order; BENCHMARK.json names the same set.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
    "request_ms_p50": "ms",
    "request_ms_p95": "ms",
}
LAYER_SPANS = (
    "lang.parse", "lang.validate", "transforms.inline", "transforms.unroll",
    "syncgraph.build", "syncgraph.clg", "cfg.dominators",
    "analysis.orderings", "analysis.coexec", "analysis.index",
    "analysis.heads", "analysis.extensions", "analysis.stall",
    "waves.engine", "waves.guide", "waves.search", "reporting.render",
    "lint.run", "repair.suggest",
)
PER_LAYER = {
    **{f"{name}_s": "s" for name in LAYER_SPANS},
    "syncgraph.rendezvous_nodes": "count",
    "syncgraph.clg_nodes": "count",
    "syncgraph.clg_edges": "count",
    "analysis.ordered_pairs": "count",
    "analysis.not_coexec_pairs": "count",
    "analysis.scaling_exponent": "exponent",
    "analysis.scaling_bound": "exponent",
    "analysis.heads_examined": "count",
    "analysis.components_flagged": "count",
    "analysis.flag_ratio": "ratio",
    "waves.states": "count",
    "waves.states_per_s": "1/s",
    "waves.limited_searches": "count",
    "reporting.bytes": "bytes",
    "cli.interp_start_s": "s",
    "cli.import_s": "s",
    "farm.serial_cold_s": "s",
    "farm.parallel_cold_s": "s",
    "farm.warm_s": "s",
    "farm.pool_speedup": "ratio",
    # Beside the pool speedup: what two processes reach on this host.
    "host.parallelism": "ratio",
    "host.cpus": "count",
    "host.speed": "ratio",
    "farm.cache_hit_ratio": "ratio",
    "farm.items_failed": "count",
    "server.analyze_cold_ms": "ms",
    "server.analyze_warm_ms": "ms",
    "server.edit_partial_ms": "ms",
    "server.edit_full_ms": "ms",
    "server.lint_ms": "ms",
    "server.repair_ms": "ms",
    "server.transport_ms": "ms",
    "server.cache_hit_ratio": "ratio",
    "server.invalidations_partial": "count",
    "server.invalidations_full": "count",
    "lint.diagnostics": "count",
    "repair.candidates": "count",
    "repair.certified": "count",
    "repair.certified_ratio": "ratio",
    "oneshot_s_p50": "s",
    "repair_s_p50": "s",
    "batch_programs_per_s": "1/s",
    "batch_warm_programs_per_s": "1/s",
    "failed_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}
# |E_CLG| grows linearly with |N_CLG| on the straight-line family, so
# the paper's O(|N_CLG|·(|N_CLG|+|E_CLG|)) bound is quadratic there.
PAPER_SCALING_BOUND = 2.0
MIN_SETUPS = 3
WORK = ROOT / ".perfbench-work"

CPU_LOOP = (
    "import time\n"
    "t = time.perf_counter()\n"
    "x = 0\n"
    "for i in range(3_000_000):\n"
    "    x += i * i\n"
    "print(time.perf_counter() - t)\n"
)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    env["REPRO_CACHE_DIR"] = str(WORK / "repro-cache")
    return env


def percentile(values: List[float], pct: int) -> float:
    """Nearest-rank percentile: always one of the measured values, so it
    never interpolates between two requests of very different cost."""
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)) - 1, 0)]


def fitted_slope(xs: List[float], ys: List[float]) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    den = sum((x - mx) ** 2 for x in lx)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / den


def host_fingerprint() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True,
        )
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
    }


def _subprocess_seconds(code: str, env: Dict[str, str]) -> float:
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
        capture_output=True,
    )
    return time.perf_counter() - started


def host_probes(env: Dict[str, str]) -> Dict[str, float]:
    """Interpreter start, ``import repro``, and measured parallelism."""
    interp = statistics.median(
        _subprocess_seconds("pass", env) for _ in range(5)
    )
    imported = statistics.median(
        _subprocess_seconds("import repro", env) for _ in range(5)
    )
    ratios = []
    for _ in range(2):
        alone = float(subprocess.run(
            [sys.executable, "-c", CPU_LOOP], capture_output=True,
            text=True, check=True,
        ).stdout)
        pair = [
            subprocess.Popen(
                [sys.executable, "-c", CPU_LOOP], stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        together = max(float(p.communicate()[0]) for p in pair)
        ratios.append(2 * alone / together)
    return {
        "cli.interp_start_s": interp,
        "cli.import_s": imported - interp,
        "host.cpus": os.cpu_count(),
        "host.parallelism": statistics.median(ratios),
    }


class Run:
    """Set-up, passes and grading of one workload."""

    def __init__(self, name: str, seed: int, tiny: bool, plant: Optional[str]):
        import inputs

        self.name, self.seed, self.tiny, self.plant = name, seed, tiny, plant
        self.inputs = inputs
        self.env = child_env()
        self.work = WORK / f"{name}-{os.getpid()}"
        self.setups: List[float] = []
        self.passes = 0
        self.speed = HostSpeed()

    def set_up(self):
        """What a user pays before the first request, timed into
        ``setup_s``: import the checker, generate and write the inputs.

        service_mix starts the daemon (its own ``import repro``) and
        waits for its ``ping``; the library workloads, whose import
        happened once in this process, time ``import repro`` in a fresh
        interpreter so that every set-up includes one.
        """
        from service import Daemon

        mark = len(self.speed.samples)
        self.speed.sample()
        started = time.perf_counter()
        if self.name != "service_mix":
            _subprocess_seconds("import repro", self.env)
        workload = self.inputs.build(self.name, self.seed, self.tiny)
        if self.plant is not None:
            workload.inputs[self.plant] = self._flipped(
                workload.inputs[self.plant]
            )
        pass_dir = self.work / f"pass-{len(self.setups)}"
        paths = self.inputs.write_inputs(workload, pass_dir / "inputs")
        daemon = None
        if workload.service is not None:
            daemon = Daemon(ROOT, self.env)
            try:
                _, pong, _ = daemon.send("ping")
                if not pong.get("result", {}).get("pong"):
                    raise RuntimeError(f"daemon ping failed: {pong}")
            except Exception:
                daemon.close()
                raise
        elapsed = time.perf_counter() - started
        self.speed.sample()
        self.setups.append(elapsed * self.speed.factor(mark))
        return workload, paths, daemon, pass_dir

    def _flipped(self, inp):
        """A deliberately wrong ground-truth entry (self-test only)."""
        from dataclasses import replace

        inputs = self.inputs
        truth = inputs.FREE if inp.truth == inputs.DEADLOCK else inputs.DEADLOCK
        return replace(inp, truth=truth, why="planted wrong entry")

    def run_pass(self, tracer=None):
        """One pass on fresh set-up.

        Returns (workload, pass result, tally, extras, factor): extras
        holds the service probes when traced, and ``factor`` scales the
        pass's raw times to the reference host speed (see hostspeed.py).
        """
        import library
        import service

        workload, paths, daemon, pass_dir = self.set_up()
        self.passes += 1
        extras = None
        mark = len(self.speed.samples)
        self.speed.sample()
        try:
            if workload.service is None:
                result = library.run_pass(workload, tracer, self.speed.between)
                tally = library.grade_pass(workload, result)
            else:
                result = service.run_pass(
                    workload, paths, daemon, pass_dir / "cache-cold", ROOT,
                    self.env, tracer, self.speed.between,
                )
                tally = service.grade_pass(workload, result)
                if tracer is not None:
                    extras = service.trace_probes(
                        workload, result, daemon, pass_dir / "cache-serial",
                        tracer,
                    )
        finally:
            if daemon is not None:
                daemon.close()
        self.speed.sample()
        return workload, result, tally, extras, self.speed.factor(mark)

    def setup_s(self) -> float:
        while len(self.setups) < MIN_SETUPS:
            _, _, daemon, _ = self.set_up()
            if daemon is not None:
                daemon.close()
        return statistics.median(self.setups)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed(run: Run, seconds: float) -> dict:
    import service
    from grading import Tally

    tally = Tally()
    walls: List[float] = []
    latencies: List[float] = []
    # Passes run back to back until the next one would end after
    # ``seconds``; the first always runs.
    started = time.perf_counter()
    while not walls or (
        time.perf_counter() - started + statistics.median(walls) <= seconds
    ):
        workload, result, pass_tally, _, factor = run.run_pass()
        tally.merge(pass_tally)
        walls.append(result.wall * factor)
        if workload.service is None:
            timed_requests = [
                (result.starts[label], seconds)
                for label, seconds in result.latencies.items()
            ]
        else:
            timed_requests = service.editor_actions(result.editor)
        latencies += [
            seconds * run.speed.around(start, start + seconds)
            for start, seconds in timed_requests
        ]
    ms = [x * 1000.0 for x in latencies]
    metrics = {
        "setup_s": run.setup_s(),
        "wall_s": statistics.median(walls),
        "decided_ratio": tally.decided / tally.attempted,
        "peak_rss_mb": peak_rss_mb(),
        "request_ms_p50": statistics.median(ms),
        "request_ms_p95": percentile(ms, 95),
    }
    return _result(tally, metrics, END_TO_END, run.passes)


def traced(run: Run) -> dict:
    import library
    from grading import Tally
    from tracing import Tracer

    tally = Tally()
    workload, direct, direct_tally, _, direct_factor = run.run_pass()
    tally.merge(direct_tally)
    tracer = Tracer()
    _, replayed, replay_tally, extras, replay_factor = run.run_pass(tracer)
    tally.merge(replay_tally)

    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    layer = tracer.layer_self_times()
    for name in LAYER_SPANS:
        metrics[f"{name}_s"] = layer.get(name, 0.0)
    counts = replayed.counts
    for name, unit in PER_LAYER.items():
        if unit in ("count", "bytes") and name in counts:
            metrics[name] = counts[name]

    if workload.service is None:
        mismatched = library.mismatches(workload, direct, replayed)
        if workload.scaling:
            nodes = [
                direct.outputs[f"analyze:{n}"].deadlock.stats["clg_nodes"]
                for n in workload.scaling
            ]
            seconds = []
            for n in workload.scaling:
                start = direct.starts[f"analyze:{n}"]
                raw = direct.latencies[f"analyze:{n}"]
                seconds.append(raw * run.speed.around(start, start + raw))
            metrics["analysis.scaling_exponent"] = fitted_slope(nodes, seconds)
    else:
        probe_metrics, mismatched = extras
        metrics.update(probe_metrics)
        oneshots = [s for _, _, s in direct.oneshots]
        repairs = [ex.seconds for ex in direct.repairs]
        items = len(direct.batch_cold.items)
        metrics["oneshot_s_p50"] = statistics.median(oneshots)
        metrics["repair_s_p50"] = statistics.median(repairs)
        metrics["batch_programs_per_s"] = items / direct.batch_cold_s
        metrics["batch_warm_programs_per_s"] = items / direct.batch_warm_s
    metrics["analysis.scaling_bound"] = PAPER_SCALING_BOUND
    if metrics["analysis.heads_examined"]:
        metrics["analysis.flag_ratio"] = (
            metrics["analysis.components_flagged"]
            / metrics["analysis.heads_examined"]
        )
    if metrics["waves.search_s"]:
        metrics["waves.states_per_s"] = (
            metrics["waves.states"] / metrics["waves.search_s"]
        )
    if metrics["repair.candidates"]:
        metrics["repair.certified_ratio"] = (
            metrics["repair.certified"] / metrics["repair.candidates"]
        )
    metrics["failed_ratio"] = tally.failed / tally.attempted
    metrics.update(host_probes(run.env))
    metrics["host.speed"] = run.speed.overall()
    metrics["trace.coverage"] = tracer.coverage(replayed.wall)
    # Both walls at the reference host speed, so the difference is the
    # tracing's cost rather than a change in host speed between passes.
    metrics["trace.overhead_s"] = (
        replayed.wall * replay_factor - direct.wall * direct_factor
    )
    for label in mismatched:
        tally.problems.append(f"layered replay differs: {label}")

    host = host_fingerprint()
    tracer.write(
        WORK / f"trace-{run.name}-seed{run.seed}.json",
        {"workload": run.name, "seed": run.seed, "host": host,
         "metrics": metrics},
    )
    result = _result(tally, metrics, PER_LAYER, run.passes)
    result["correct"] = result["correct"] and not mismatched
    return result


def _result(tally, metrics: Dict[str, float], units: Dict[str, str],
            passes: int) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
        "problems": tally.problems,
        "passes": passes,
    }


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    plant: Optional[str] = None,
) -> dict:
    """One benchmark run; see the module docstring.  ``tiny`` and
    ``plant`` (an input whose ground truth is deliberately flipped)
    serve the self-test."""
    run = Run(workload, seed, tiny, plant)
    try:
        if trace:
            return traced(run)
        return timed(run, seconds)
    finally:
        run.close()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("large_programs", "exact_search", "service_mix"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no checker sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    print("# host " + json.dumps(host_fingerprint()), flush=True)
    result = measure(
        args.workload, args.seed, args.seconds, bool(args.trace),
    )
    for problem in result.pop("problems")[:50]:
        print(f"# problem: {problem}")
    print(f"# passes: {result.pop('passes')}")
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
