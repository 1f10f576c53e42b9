"""In-memory spans recorded by the benchmark around public calls.

The benchmark never turns on ``repro.obs``: it wraps its own spans
around the calls it makes into each module, so the program under test
runs unchanged.  A span records its name, start, end, parent and
request id; spans stay in memory and are written out once at the end.

``layer`` spans name a layer of the checker (``lang.parse``,
``analysis.orderings``, ``server.analyze``, ...); the per-request root
span is not a layer, so its self time is the benchmark's own glue.
``probe`` spans time extra calls made only to split a layer (such as
the dominator probe, which ``compute_orderings`` repeats internally):
they and every span under them are kept out of the coverage sum and
out of the traced wall time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(
        self,
        name: str,
        request: Optional[str] = None,
        layer: bool = True,
        probe: bool = False,
    ) -> Iterator[dict]:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            # Everything under a probe is probe work too.
            probe = probe or self.spans[parent]["probe"]
            if request is None:
                request = self.spans[parent]["request"]
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "request": request,
            "layer": layer,
            "probe": probe,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> List[float]:
        """Each span's duration minus the union of its children's."""
        children: Dict[int, List[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span["parent"] is not None:
                children[span["parent"]].append(i)
        result = []
        for i, span in enumerate(self.spans):
            covered = 0.0
            reach = span["start"]
            for c in sorted(children[i], key=lambda c: self.spans[c]["start"]):
                start = max(self.spans[c]["start"], reach)
                end = self.spans[c]["end"]
                if end > start:
                    covered += end - start
                    reach = end
            result.append(span["end"] - span["start"] - covered)
        return result

    def layer_self_times(self) -> Dict[str, float]:
        """Summed self time per layer span name, probes included."""
        totals: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            if span["layer"]:
                totals[span["name"]] += own
        return dict(totals)

    def probe_time(self) -> float:
        """Wall time of the outermost probe spans."""
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["probe"]
            and (s["parent"] is None or not self.spans[s["parent"]]["probe"])
        )

    def coverage(self, traced_wall: float) -> float:
        """Summed self time of non-probe layer spans over the wall."""
        covered = sum(
            own
            for span, own in zip(self.spans, self.self_times())
            if span["layer"] and not span["probe"]
        )
        return covered / traced_wall if traced_wall > 0 else 0.0

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path: Path, extra: dict) -> None:
        origin = self.spans[0]["start"] if self.spans else 0.0
        spans = [
            dict(s, start=s["start"] - origin, end=s["end"] - origin)
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(dict(extra, spans=spans), indent=1))
