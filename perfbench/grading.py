"""Grading answers against ground truth, and the witness replay oracle.

Every request ends in one of three grades:

* ``decided`` — a definite, correct answer: certified on a free input,
  flagged or confirmed on a deadlocking one, refuted on a free one;
* ``undecided`` — a false alarm, or a budget-limited answer;
* ``failed`` — an error, crash or timeout, or an answer that
  contradicts ground truth (a deadlock certified or refuted, a free
  program confirmed deadlocking, a repair with no certified fix, a
  CONFIRMED witness that does not replay).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.confirm import ConfirmationOutcome
from repro.analysis.results import Verdict
from repro.waves.anomaly import classify_wave, is_anomalous
from repro.waves.wave import next_waves

from inputs import DEADLOCK, FREE

DECIDED = "decided"
UNDECIDED = "undecided"
FAILED = "failed"


@dataclass
class Tally:
    decided: int = 0
    undecided: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.decided + self.undecided + self.failed

    def add(self, grade: str, label: str, detail: str = "") -> None:
        if grade == DECIDED:
            self.decided += 1
        elif grade == UNDECIDED:
            self.undecided += 1
        else:
            self.failed += 1
            self.problems.append(f"{label}: {detail or 'failed'}")

    def merge(self, other: "Tally") -> None:
        self.decided += other.decided
        self.undecided += other.undecided
        self.failed += other.failed
        self.problems.extend(other.problems)


def grade_flag(truth: str, flagged: bool) -> str:
    """A static verdict: ``flagged`` means possible deadlock."""
    if truth == DEADLOCK:
        return DECIDED if flagged else FAILED
    return UNDECIDED if flagged else DECIDED


def grade_verdict(truth: str, verdict: str) -> str:
    return grade_flag(truth, verdict != Verdict.CERTIFIED_FREE)


def grade_confirmation(truth: str, outcome: str) -> str:
    if outcome == ConfirmationOutcome.CONFIRMED:
        return DECIDED if truth == DEADLOCK else FAILED
    if outcome in (
        ConfirmationOutcome.REFUTED, ConfirmationOutcome.NOT_NEEDED
    ):
        return DECIDED if truth == FREE else FAILED
    return UNDECIDED


def grade_exact(truth: str, stats: dict, verdict: str) -> str:
    """An ``algorithm="exact"`` report: a deadlock wave in hand is a
    confirmation, an unlimited witnessless run a certificate."""
    if stats.get("deadlock_waves", 0):
        return DECIDED if truth == DEADLOCK else FAILED
    if verdict == Verdict.CERTIFIED_FREE:
        return DECIDED if truth == FREE else FAILED
    return UNDECIDED


def witness_replays(graph, witness) -> Optional[str]:
    """Re-derive a CONFIRMED witness independently of the search kernel.

    Steps the schedule from ``witness.initial`` through
    :func:`repro.waves.wave.next_waves`: each fired pair must sit in the
    current wave and the next recorded wave must be one of its
    successors.  The final wave must classify as a deadlock.  Returns
    ``None`` when the witness holds, else the reason it does not.
    """
    if len(witness.waves) != len(witness.schedule) + 1:
        return "wave count does not match the schedule"
    wave = witness.initial
    if witness.waves[0] != wave:
        return "first wave is not the initial wave"
    for task, node in zip(graph.tasks, wave.positions):
        if node not in graph.initial_options(task):
            return f"initial wave entry {node} is not an option of {task}"
    for step, (r, s) in enumerate(witness.schedule):
        if r not in wave.positions or s not in wave.positions:
            return f"step {step + 1}: {r} <-> {s} not both in the wave"
        if not graph.has_sync_edge(r, s):
            return f"step {step + 1}: {r} <-> {s} cannot rendezvous"
        nxt = witness.waves[step + 1]
        if nxt not in set(next_waves(graph, wave)):
            return f"step {step + 1}: recorded wave is not a successor"
        fired = {wave.positions.index(r), wave.positions.index(s)}
        if any(
            a != b
            for k, (a, b) in enumerate(zip(wave.positions, nxt.positions))
            if k not in fired
        ):
            return f"step {step + 1}: a task outside the pair moved"
        wave = nxt
    if not is_anomalous(graph, wave):
        return "final wave is not anomalous"
    if not classify_wave(graph, wave).has_deadlock:
        return "final wave is not a deadlock"
    return None
