"""Golden one-shot CLI payloads.

``repro-analyze <file> --json --algorithm A`` over every bundled ADL
program (``adl/``, ``adl_repair/``, ``adl_lint/``) for the refined,
head-pairs and naive algorithms.  Each golden file holds the exit code
on its first line (``exit: N``) and then stdout, which must match byte
for byte.  The payloads pin verdicts, evidence and stats through any
rewrite of the analysis kernels, and catch output that depends on set
iteration order when the suite runs under different ``PYTHONHASHSEED``
values.

Regenerate after an intentional payload change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_cli.py
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden_cli"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))
WORKLOADS = Path(__file__).parent.parent / "src" / "repro" / "workloads"
CORPORA = ("adl", "adl_repair", "adl_lint")
ALGORITHMS = ("refined", "head-pairs", "naive")

CASES = [
    (corpus, path.stem, algorithm)
    for corpus in CORPORA
    for path in sorted((WORKLOADS / corpus).glob("*.adl"))
    for algorithm in ALGORITHMS
]


def test_every_bundled_program_is_covered():
    assert len(CASES) == 24 * len(ALGORITHMS)


@pytest.mark.parametrize(
    "corpus,stem,algorithm",
    CASES,
    ids=[f"{c}/{s}.{a}" for c, s, a in CASES],
)
def test_cli_json_payload(corpus, stem, algorithm, capsys):
    source = WORKLOADS / corpus / f"{stem}.adl"
    code = main([str(source), "--json", "--algorithm", algorithm])
    actual = f"exit: {code}\n" + capsys.readouterr().out
    path = GOLDEN_DIR / corpus / f"{stem}.{algorithm}.golden"
    if REGEN:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(actual)
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"missing golden payload {path}; regenerate with "
        "REPRO_REGEN_GOLDEN=1"
    )
    assert actual == path.read_text()
