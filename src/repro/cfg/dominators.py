"""Dominator and postdominator computation on task CFGs.

Rule 1 of the paper's ordering framework (Section 4.1) says: *if r
dominates s in the control flow graph of their task, then r must
precede s*.  We also expose the dual — if s postdominates r, then any
execution that runs r must later run s — which together with the
paper's assumption that every rendezvous completes gives additional
safe must-precede facts.

Immediate dominators come from the iterative algorithm of Cooper,
Harvey and Kennedy (*A Simple, Fast Dominance Algorithm*, 2001):
number the nodes reachable from the root in reverse postorder, then
sweep them in that order, setting each node's immediate dominator to
the nearest common ancestor (in the tree built so far) of its already
processed predecessors, until a sweep changes nothing.  On the acyclic
graphs the checker analyses that is one sweep plus a confirming one.
Full dominator sets are derived from the immediate-dominator tree.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, Set, TypeVar

from .graph import CFGNode, TaskCFG

__all__ = [
    "immediate_dominators",
    "idoms",
    "dominator_sets",
    "postdominator_sets",
    "dominates",
]

N = TypeVar("N", bound=Hashable)


def _reverse_postorder(root: int, succ: List[List[int]]) -> List[int]:
    """Nodes reachable from ``root`` in reverse DFS postorder."""
    post: List[int] = []
    seen = {root}
    work = [(root, iter(succ[root]))]
    while work:
        node, it = work[-1]
        for nxt in it:
            if nxt not in seen:
                seen.add(nxt)
                work.append((nxt, iter(succ[nxt])))
                break
        else:
            work.pop()
            post.append(node)
    post.reverse()
    return post


def idoms(root: int, succ: List[List[int]]) -> List[int]:
    """Cooper–Harvey–Kennedy immediate dominators over dense int ids.

    ``succ[v]`` lists the successors of node ``v``.  Returns ``idom``
    with ``idom[root] == root``, ``idom[v]`` the immediate dominator of
    every other node reachable from ``root``, and ``-1`` for nodes that
    are unreachable.
    """
    n = len(succ)
    order = _reverse_postorder(root, succ)
    rpo = [-1] * n
    for i, v in enumerate(order):
        rpo[v] = i
    preds: List[List[int]] = [[] for _ in range(n)]
    for v in order:
        for w in succ[v]:
            preds[w].append(v)
    idom = [-1] * n
    idom[root] = root
    changed = True
    while changed:
        changed = False
        for v in order[1:]:
            new = -1
            for p in preds[v]:
                if idom[p] == -1:
                    continue
                if new == -1:
                    new = p
                    continue
                # Walk both fingers up the tree to their common ancestor.
                a, b = p, new
                while a != b:
                    while rpo[a] > rpo[b]:
                        a = idom[a]
                    while rpo[b] > rpo[a]:
                        b = idom[b]
                new = a
            if idom[v] != new:
                idom[v] = new
                changed = True
    return idom


def _immediate_dominators_of(
    nodes: Iterable[N], root: N, successors: Callable[[N], Iterable[N]]
) -> Dict[N, N]:
    """Object-keyed wrapper of :func:`idoms` (networkx's convention:
    reachable nodes only, the root mapping to itself)."""
    ids = list(nodes)
    index = {node: i for i, node in enumerate(ids)}
    succ = [[index[w] for w in successors(v)] for v in ids]
    idom = idoms(index[root], succ)
    return {ids[v]: ids[d] for v, d in enumerate(idom) if d != -1}


def immediate_dominators(cfg: TaskCFG) -> Dict[CFGNode, CFGNode]:
    """Map each node reachable from the entry to its immediate dominator.

    The entry node maps to itself (networkx convention).
    """
    return _immediate_dominators_of(cfg.nodes, cfg.entry, cfg.successors)


def _sets_from_idom(idom: Dict[CFGNode, CFGNode], root: CFGNode) -> Dict[
    CFGNode, FrozenSet[CFGNode]
]:
    memo: Dict[CFGNode, FrozenSet[CFGNode]] = {root: frozenset({root})}

    def chase(node: CFGNode) -> FrozenSet[CFGNode]:
        cached = memo.get(node)
        if cached is not None:
            return cached
        # Iterative walk up the idom tree to avoid deep recursion on
        # long straight-line CFGs.
        chain = []
        cur = node
        while cur not in memo:
            chain.append(cur)
            cur = idom[cur]
        acc: Set[CFGNode] = set(memo[cur])
        for n in reversed(chain):
            acc = set(acc)
            acc.add(n)
            memo[n] = frozenset(acc)
        return memo[node]

    for node in idom:
        chase(node)
    return memo


def dominator_sets(cfg: TaskCFG) -> Dict[CFGNode, FrozenSet[CFGNode]]:
    """Map each node to the set of nodes that dominate it (inclusive)."""
    return _sets_from_idom(immediate_dominators(cfg), cfg.entry)


def postdominator_sets(cfg: TaskCFG) -> Dict[CFGNode, FrozenSet[CFGNode]]:
    """Map each node to the set of nodes that postdominate it (inclusive).

    Computed as dominators of the reversed CFG rooted at the exit node.
    """
    idom = _immediate_dominators_of(cfg.nodes, cfg.exit, cfg.predecessors)
    return _sets_from_idom(idom, cfg.exit)


def dominates(cfg: TaskCFG, a: CFGNode, b: CFGNode) -> bool:
    """True iff ``a`` dominates ``b`` in ``cfg``."""
    return a in dominator_sets(cfg).get(b, frozenset())
