"""Self-test of the benchmark at a tiny size.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload it checks that both modes emit exactly the metrics
``BENCHMARK.json`` names, each with its unit, and grade every answer
correct; that a planted wrong ground-truth entry raises
``failed_ratio``; and that the benchmark refuses to run, without
printing a result, in a directory that holds only ``BENCHMARK.json``
and the benchmark's own files.  Exits 1 and lists what failed otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# An input each workload answers definitely as deadlock-free; flipping
# its ground truth to "deadlock" must turn those answers into failures.
PLANTS = {
    "large_programs": "straight_6",
    "exact_search": "barrier",
    "service_mix": "adl_elevator",
}


def check_metrics(spec: dict, problems: list) -> None:
    import run

    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.measure(name, seed=1, seconds=1, trace=trace,
                                 tiny=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want:
                problems.append(
                    f"{name} trace={int(trace)}: metrics differ from "
                    f"BENCHMARK.json {key}: missing "
                    f"{sorted(set(want) - set(got))}, extra "
                    f"{sorted(set(got) - set(want))}, units "
                    f"{sorted(n for n in got if n in want and got[n] != want[n])}"
                )
            bad = [
                n for n, m in result["metrics"].items()
                if not isinstance(m["value"], (int, float))
            ]
            if bad:
                problems.append(f"{name} trace={int(trace)}: non-numeric {bad}")
            if not result["correct"] or result["failed"]:
                problems.append(
                    f"{name} trace={int(trace)}: not correct: "
                    f"{result['problems'][:5]}"
                )
        planted = run.measure(name, seed=1, seconds=1, trace=True, tiny=True,
                              plant=PLANTS[name])
        if planted["metrics"]["failed_ratio"]["value"] <= 0 or planted["correct"]:
            problems.append(
                f"{name}: a planted wrong ground-truth entry did not raise "
                "failed_ratio"
            )


def check_refuses_without_sources(problems: list) -> None:
    """The benchmark must exit non-zero, printing no result, where the
    checker's sources are missing."""
    bare = ROOT / ".perfbench-work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload",
             "large_programs", "--seed", "1", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("ran without the checker's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list = []
    check_metrics(spec, problems)
    check_refuses_without_sources(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    if problems:
        return 1
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
