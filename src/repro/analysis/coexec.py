"""Co-executability approximation and the ``NOT-COEXEC`` vector.

Constraint 3b requires all head nodes of a deadlock cycle to be
*co-executable* in the sense of Callahan and Subhlok: executable in the
same run of the program.  Exact co-executability needs whole-program
path information; the paper assumes it "through other static analysis".

Our built-in approximation is intra-task and exact for acyclic control
flow: two rendezvous points of one task are co-executable iff one is
control-reachable from the other (a single run of a task follows one
path; two nodes both lie on some path iff one reaches the other).
Cross-task pairs default to co-executable (the conservative answer).
External facts — e.g. from a symbolic analysis — can be injected via
``extra_not_coexec``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..syncgraph.model import SyncGraph, SyncNode
from .orderings import row_members, transpose

__all__ = ["CoExecInfo", "compute_coexec"]


class CoExecInfo:
    """``NOT-COEXEC`` facts: pairs that can never execute in one run.

    Held as symmetric bit rows over the rendezvous ids of ``nodes``
    (the ``graph.rendezvous_nodes`` order); the set-valued view
    ``not_coexec`` is built on first use.
    """

    def __init__(self, nodes: Sequence[SyncNode], rows: List[int]) -> None:
        self.nodes: Tuple[SyncNode, ...] = tuple(nodes)
        self.rows = rows
        self._ids: Optional[Dict[SyncNode, int]] = None
        self._not_coexec: Optional[Dict[SyncNode, FrozenSet[SyncNode]]] = None

    @property
    def ids(self) -> Dict[SyncNode, int]:
        """Rendezvous id of each node."""
        if self._ids is None:
            self._ids = {node: i for i, node in enumerate(self.nodes)}
        return self._ids

    @property
    def not_coexec(self) -> Dict[SyncNode, FrozenSet[SyncNode]]:
        if self._not_coexec is None:
            nodes = self.nodes
            self._not_coexec = {
                node: row_members(nodes, row)
                for node, row in zip(nodes, self.rows)
            }
        return self._not_coexec

    def not_coexecutable(self, a: SyncNode, b: SyncNode) -> bool:
        ids = self.ids
        i = ids.get(a)
        j = ids.get(b)
        if i is None or j is None:
            return False
        return bool((self.rows[i] >> j) & 1)

    def not_coexec_with(self, a: SyncNode) -> FrozenSet[SyncNode]:
        return self.not_coexec.get(a, frozenset())

    @property
    def pair_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2


def _control_reach(graph: SyncGraph) -> List[int]:
    """``reach[i]``: bitset of rendezvous ids control-reachable from
    rendezvous ``i`` (strict: ``i`` itself only when it lies on a
    cycle through itself).

    One bit-OR per control edge, visiting nodes in DFS postorder so a
    node's successors are final before it is (reverse topological order
    on acyclic control flow): one sweep, plus one that confirms nothing
    changes.  With control cycles the sweep repeats until then.
    """
    nodes = graph.nodes
    n = len(nodes)
    ids = {node: i for i, node in enumerate(nodes)}
    succ = [[ids[d] for d in graph.control_successors(v)] for v in nodes]
    own = [0] * n
    r = 0
    for i, node in enumerate(nodes):
        if node.is_rendezvous:
            own[i] = 1 << r
            r += 1

    post: List[int] = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    work.append((w, iter(succ[w])))
                    break
            else:
                work.pop()
                post.append(v)

    reach = [0] * n
    changed = True
    while changed:
        changed = False
        for v in post:
            bits = reach[v]
            for w in succ[v]:
                bits |= own[w] | reach[w]
            if bits != reach[v]:
                reach[v] = bits
                changed = True
    return [reach[i] for i, node in enumerate(nodes) if node.is_rendezvous]


def compute_coexec(
    graph: SyncGraph,
    extra_not_coexec: Iterable[Tuple[SyncNode, SyncNode]] = (),
) -> CoExecInfo:
    """Compute ``NOT-COEXEC`` for every rendezvous node.

    Intra-task rule: ``a`` and ``b`` of the same task are not
    co-executable when neither control-reaches the other (they sit on
    exclusive conditional branches).  With control cycles the
    reachability test is still safe — loop bodies reach themselves.
    """
    with obs.span("coexec.compute"):
        rendezvous = graph.rendezvous_nodes
        reach = _control_reach(graph)
        reached_by = transpose(reach)

        rid = {node: i for i, node in enumerate(rendezvous)}
        rows = [0] * len(rendezvous)
        for task in graph.tasks:
            ids = [rid[node] for node in graph.nodes_of_task(task)]
            task_mask = 0
            for i in ids:
                task_mask |= 1 << i
            for i in ids:
                rows[i] = task_mask & ~reach[i] & ~reached_by[i] & ~(1 << i)
        for a, b in extra_not_coexec:
            rows[rid[a]] |= 1 << rid[b]
            rows[rid[b]] |= 1 << rid[a]
        return CoExecInfo(rendezvous, rows)
