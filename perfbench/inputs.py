"""Benchmark inputs, their ground truth, and each workload's request list.

Every input comes from a public generator of ``repro.workloads`` (the
seeded ones from the ``--seed`` the benchmark was given).  Its expected
verdict comes from the generator's own documented guarantee, never from
running the analyzer:

* ``random_serializable_program(unique_messages=True)``: the docstring
  proves every such program deadlock-free;
* ``inject_deadlock``: plants a deadlock reachable on every schedule;
* the bundled ADL corpus: ``AdlEntry.expect_deadlock`` in its manifest;
* the pattern docstrings: ``dining_philosophers`` deadlocks and its
  ``deadlock=False`` variant is free; ``barrier``, ``pipeline`` and
  ``handshake_chain`` are free; ``corridor`` deadlocks; the two-task
  straight-line program (one task sends ``m0..m{n-1}``, the other
  accepts them in order) is free because each rendezvous has exactly
  one partner and both tasks reach them in the same order;
* the repair corpus: every entry is a deadlock.

Why each workload exists (the prediction a later change is judged by):

* ``large_programs`` — few, large inputs through ``repro.analyze``.
  Most of its time is the refined precompute (orderings fixpoint,
  co-executability, index build) and the head loop, so precompute and
  head-loop changes move it.  It never touches ``waves``, ``farm`` or
  ``server``: a change to those layers should leave it unchanged.
* ``exact_search`` — few small inputs whose cost is wave search (90% or
  more) with under 2% precompute.  First-witness searches sit beside
  exhaustive enumerations, so a search change that helps one and slows
  the other shows.  The BFS confirmation of ``corridor(8, 5)`` runs out
  of budget, so a search change shows in ``decided_ratio`` as well as
  in time.
* ``service_mix`` — many small programs (milliseconds of analysis
  each), so fixed costs dominate: interpreter start and ``import
  repro``, process-pool round trips, cache I/O and the daemon protocol.
  Precompute and search changes barely move it; packaging, pool, cache
  and daemon changes do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.lang.pretty import pretty
from repro.workloads.adl_corpus import adl_corpus, repair_corpus
from repro.workloads.patterns import (
    barrier,
    corridor,
    dining_philosophers,
    handshake_chain,
    pipeline,
)
from repro.workloads.random_programs import (
    inject_deadlock,
    random_serializable_program,
)

FREE = "free"
DEADLOCK = "deadlock"

# Witness-search budget of every confirmation and exact request.
STATE_BUDGET = 200_000

WORKLOADS = ("large_programs", "exact_search", "service_mix")


@dataclass(frozen=True)
class Input:
    """One program handed to the checker, with its expected verdict."""

    name: str
    family: str
    source: str
    truth: str  # FREE or DEADLOCK
    why: str  # where ``truth`` comes from


@dataclass(frozen=True)
class Request:
    """One library call of a closed-loop pass.

    ``kind`` is ``analyze`` (``repro.analyze``), ``exact``
    (``repro.analyze(algorithm="exact")``) or ``confirm``
    (``confirm_analysis`` of the result of the request named ``after``).
    """

    label: str
    kind: str
    input: str
    algorithm: str = "refined"
    strategy: str = "bfs"
    after: Optional[str] = None


@dataclass
class ServicePlan:
    """What the service_mix pass drives, by input name."""

    oneshots: List[str]
    # (document, replacement of the same family)
    documents: List[Tuple[str, str]]
    repairs: List[str]
    batch: List[str]


@dataclass
class Workload:
    name: str
    inputs: Dict[str, Input]
    requests: List[Request] = field(default_factory=list)
    service: Optional[ServicePlan] = None
    # Input names of the straight-line family, smallest first, for the
    # fitted scaling exponent.
    scaling: List[str] = field(default_factory=list)


def straight_line(n: int) -> str:
    """Two tasks, ``n`` send/accept pairs in the same order (free)."""
    a = " ".join(f"send b.m{i};" for i in range(n))
    b = " ".join(f"accept m{i};" for i in range(n))
    return (
        f"program straight_{n}; task a is begin {a} end; "
        f"task b is begin {b} end;"
    )


def _pattern(name: str, program, truth: str, why: str) -> Input:
    return Input(name, "pattern", pretty(program), truth, why)


def large_programs(tiny: bool = False) -> Workload:
    sizes = (6, 9, 12) if tiny else (100, 150, 200)
    inputs = [
        Input(
            f"straight_{n}", "straight", straight_line(n), FREE,
            "one partner per rendezvous, same order in both tasks",
        )
        for n in sizes
    ]
    pipe, chain = ((4, 2), (4, 1)) if tiny else ((16, 8), (20, 4))
    hp_chain, phils = ((3, 1), 3) if tiny else ((12, 2), 7)
    inputs += [
        _pattern("pipeline", pipeline(*pipe), FREE, "pipeline docstring"),
        _pattern(
            "handshake_chain", handshake_chain(*chain), FREE,
            "handshake_chain docstring",
        ),
        _pattern(
            "hp_handshake_chain", handshake_chain(*hp_chain), FREE,
            "handshake_chain docstring",
        ),
        _pattern(
            "hp_dining", dining_philosophers(phils), DEADLOCK,
            "dining_philosophers docstring",
        ),
    ]
    requests = [
        Request(f"analyze:{inp.name}", "analyze", inp.name)
        for inp in inputs[:-2]
    ]
    requests += [
        Request(f"head-pairs:{name}", "analyze", name, algorithm="head-pairs")
        for name in ("hp_handshake_chain", "hp_dining")
    ]
    return Workload(
        "large_programs",
        {inp.name: inp for inp in inputs},
        requests,
        scaling=[f"straight_{n}" for n in sizes],
    )


def exact_search(tiny: bool = False) -> Workload:
    phils, workers = (3, 3) if tiny else (7, 12)
    corridors = ((2, 1), (3, 1)) if tiny else ((7, 4), (8, 5))
    inputs = [
        _pattern(
            "dining", dining_philosophers(phils), DEADLOCK,
            "dining_philosophers docstring",
        ),
        _pattern(
            "dining_safe", dining_philosophers(phils, deadlock=False), FREE,
            "dining_philosophers docstring (asymmetric variant)",
        ),
        _pattern("barrier", barrier(workers), FREE, "barrier docstring"),
    ]
    inputs += [
        _pattern(
            f"corridor_{d}x{c}", corridor(d, c), DEADLOCK,
            "corridor docstring",
        )
        for d, c in corridors
    ]
    requests: List[Request] = []
    for inp in inputs:
        first = f"analyze:{inp.name}"
        requests.append(Request(first, "analyze", inp.name))
        for strategy in ("bfs", "astar"):
            requests.append(
                Request(
                    f"confirm-{strategy}:{inp.name}", "confirm", inp.name,
                    strategy=strategy, after=first,
                )
            )
    exhaustive = ("dining", "barrier", inputs[3].name)
    requests += [
        Request(f"exact:{name}", "exact", name, algorithm="exact")
        for name in exhaustive
    ]
    return Workload("exact_search", {i.name: i for i in inputs}, requests)


def service_mix(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    count, injected = (12, 3) if tiny else (200, 20)
    inject_at = set(rng.sample(range(count), injected))
    inputs: List[Input] = []
    for i in range(count):
        program = random_serializable_program(
            tasks=4, rendezvous=10, seed=seed * 1000 + i,
            unique_messages=True,
        )
        if i in inject_at:
            inputs.append(
                Input(
                    f"injected_{i}", "injected",
                    pretty(inject_deadlock(program)), DEADLOCK,
                    "inject_deadlock docstring",
                )
            )
        else:
            inputs.append(
                Input(
                    f"random_{i}", "random", pretty(program), FREE,
                    "random_serializable_program(unique_messages) proof",
                )
            )
    for name, entry in sorted(adl_corpus().items()):
        inputs.append(
            Input(
                f"adl_{name}", "adl", entry.source,
                DEADLOCK if entry.expect_deadlock else FREE,
                "ADL manifest expect_deadlock",
            )
        )
    repairs = [
        Input(
            f"repair_{name}", "repair", entry.source, DEADLOCK,
            "repair corpus manifest (every entry deadlocks)",
        )
        for name, entry in sorted(repair_corpus().items())
    ]
    by_family: Dict[str, List[str]] = {}
    for inp in inputs:
        by_family.setdefault(inp.family, []).append(inp.name)

    # Fixed strata keep the mix of families the same for every seed.
    strata = {"random": 3, "injected": 1, "adl": 1} if tiny else {
        "random": 14, "injected": 3, "adl": 3
    }
    # Every ADL program is a document: they are the largest inputs, so
    # sampling a different few per seed would move the latency tail.
    doc_strata = {"random": 3, "injected": 1, "adl": 1} if tiny else {
        "random": 34, "injected": 6, "adl": 10
    }
    oneshots = [
        name
        for family, k in strata.items()
        for name in rng.sample(by_family[family], k)
    ]
    documents = []
    for family, k in doc_strata.items():
        members = by_family[family]
        for name in rng.sample(members, k):
            other = members[(members.index(name) + 1) % len(members)]
            documents.append((name, other))
    rng.shuffle(oneshots)
    rng.shuffle(documents)
    plan = ServicePlan(
        oneshots=oneshots,
        documents=documents,
        repairs=[inp.name for inp in (repairs[:2] if tiny else repairs)],
        batch=[inp.name for inp in inputs],
    )
    return Workload(
        "service_mix", {i.name: i for i in inputs + repairs}, service=plan
    )


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    if name == "large_programs":
        return large_programs(tiny)
    if name == "exact_search":
        return exact_search(tiny)
    if name == "service_mix":
        return service_mix(seed, tiny)
    raise ValueError(f"unknown workload {name!r}; choose one of {WORKLOADS}")


def write_inputs(workload: Workload, directory: Path) -> Dict[str, Path]:
    """Write every input's source to ``directory``; name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for inp in workload.inputs.values():
        path = directory / f"{inp.name}.adl"
        path.write_text(inp.source)
        paths[inp.name] = path
    return paths
