"""The package as installed, not as checked out.

setuptools builds the package (``build_py``, which needs no network)
from a copy of the checkout into a temporary directory.  Each check
then runs in a fresh interpreter whose path holds that build and not
``src/``:

* ``import repro`` pulls in no optional dependency (networkx, numpy);
* the three bundled ADL corpora load from package data;
* the ``repro-analyze`` entry point suggests fixes for a repair-corpus
  program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def build_lib(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("installed")
    checkout = base / "checkout"
    checkout.mkdir()
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, checkout / name)
    shutil.copytree(
        ROOT / "src",
        checkout / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    lib = base / "lib"
    subprocess.run(
        [
            sys.executable,
            "-c",
            "from setuptools import setup; setup()",
            "build_py",
            "--build-lib",
            str(lib),
        ],
        cwd=checkout,
        check=True,
        capture_output=True,
    )
    return lib


def run_installed(lib: Path, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(lib)
    return subprocess.run(
        [sys.executable, *args],
        cwd=lib.parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_import_needs_no_optional_dependency(build_lib):
    proc = run_installed(
        build_lib,
        "-c",
        "import json, sys, repro, repro.cli; print(json.dumps("
        "[repro.__file__, sorted(m for m in ('networkx', 'numpy') "
        "if m in sys.modules)]))",
    )
    assert proc.returncode == 0, proc.stderr
    location, loaded = json.loads(proc.stdout)
    assert Path(location).is_relative_to(build_lib)
    assert loaded == []


def test_bundled_corpora_load(build_lib):
    proc = run_installed(
        build_lib,
        "-c",
        "from repro.workloads.adl_corpus import "
        "adl_corpus, lint_corpus, repair_corpus; "
        "print(len(adl_corpus()), len(lint_corpus()), len(repair_corpus()))",
    )
    assert proc.returncode == 0, proc.stderr
    assert all(int(count) > 0 for count in proc.stdout.split())


def test_entry_point_suggests_fixes(build_lib):
    program = build_lib / "repro/workloads/adl_repair/crossed_greeting.adl"
    assert program.is_file()
    # What the ``repro-analyze`` console script runs.
    proc = run_installed(
        build_lib,
        "-c",
        "import sys; from repro.cli import main; sys.exit(main())",
        str(program),
        "--suggest-fixes",
        "--json",
    )
    assert proc.returncode == 1, proc.stderr  # a deadlock, with fixes
    repair = json.loads(proc.stdout)["repair"]
    assert repair["fixes"]
