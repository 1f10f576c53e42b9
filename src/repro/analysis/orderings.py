"""Must-ordering facts and the ``SEQUENCEABLE`` vector (paper §4.1).

The paper derives node orderings from the sync graph with a dataflow
framework based on two rules (cf. Callahan & Subhlok's ``SCP`` lattice):

1. if ``r`` dominates ``s`` in the control flow graph of their task,
   ``r`` must precede ``s``;
2. if for every sync edge ``{r, s}``, ``s`` precedes some node ``t``,
   then ``r`` must precede ``t``.

**Soundness refinement.**  The refined algorithm uses ``SEQUENCEABLE``
to exclude co-head hypotheses, so the facts must hold on *partial*
executions — in particular on the prefix leading into a deadlock, where
some rendezvous never complete.  A naive reading of rule 2 ("orderings
among completed runs") derives facts that are vacuously true on a
program that *always* deadlocks and would certify it deadlock-free
(e.g. the two-task crossed-send program).  We therefore compute the
prefix-sound closure of the same two ideas:

* ``REL(x, h)`` — *"at any point of any execution, if ``x`` has
  completed its rendezvous then ``h`` has completed"* — derived from

  - ``x == h``;
  - ``h`` strictly dominates ``x`` in their task (completing ``x``
    means control passed ``h``'s completion) — rule 1;
  - ``REL(d, h)`` for some strict dominator ``d`` of ``x``;
  - ``partners(x)`` nonempty and ``REL(p, h)`` for **all** sync
    partners ``p`` of ``x`` (``x`` completes simultaneously with some
    partner) — rule 2;

* ``precedes(h, k)`` ≡ *"k is not reached until h has completed"* ≡
  ``REL(d, h)`` for some strict dominator ``d`` of ``k``.

Two sound strengthenings are applied on acyclic control flow:

* **transitivity** — ``REL(x, y)`` and ``REL(y, z)`` give ``REL(x, z)``;
* **counting** — when every accept node of a signal lies in one task in
  a domination chain and the signal has equally many send nodes,
  completing the *last* accept forces completion of every send (each
  node fires at most once, so ``n`` rendezvous consume all ``n``
  senders); symmetrically for chain-ordered sends.  This is the
  cardinality reasoning of Callahan & Subhlok's counting lattice and is
  what derives the positive-before-negative top-node orderings of the
  paper's Theorem-2 construction.

If ``precedes(h, k)`` or ``precedes(k, h)`` holds, the two nodes can
never be simultaneously waiting on an execution wave — exactly the
property the NO-SYNC marking needs.

**Only the immediate dominator is read.**  The dominator clauses above
quantify over every strict dominator, but the solver reads only
``REL(idom(x), ·)``, the row of ``x``'s nearest rendezvous dominator.
Both systems have the same least fixpoint.  Reading fewer rows can only
derive fewer facts, so the idom-only fixpoint is contained in the full
one.  Conversely, at the idom-only fixpoint every strict dominator
``d`` of ``x`` has ``REL(d, ·) ⊆ REL(x, ·)``: by induction on the depth
of ``x`` in the dominator tree, ``d`` is either ``idom(x)`` (read
directly) or a strict dominator of ``idom(x)`` (so ``REL(d, ·) ⊆
REL(idom(x), ·) ⊆ REL(x, ·)``).  The idom-only fixpoint therefore
satisfies every clause of the full system, and contains its least
fixpoint.  Reflexivity puts ``idom(x)`` itself into the row, so the
"``h`` strictly dominates ``x``" clause is covered too.  The argument
uses neither transitivity nor acyclicity.  By the same argument
``precedes(h, k)`` ≡ ``REL(idom(k), h)`` for ``h ≠ k``.

**Partners.**  By the same argument, a sync partner strictly dominated
by another partner of ``x`` has a superset row at the fixpoint, so the
all-partners clause reads only the dominance-minimal partners.

**Cost.**  The facts live as one integer bitset row per node, over the
rendezvous ids ``0..N-1`` of ``graph.rendezvous_nodes``.  Nodes are
evaluated in dependency order: the strongly connected components of
the "reads" graph (immediate dominator, minimal partners) come after
the components they read, each component in dominator-depth order.
On the chain-shaped programs this checker sees, each node then settles
after one or two evaluations.  The transitive clause folds only
deltas: when ``x`` gains members it ORs in their rows once and
subscribes to them, and when a subscribed row later grows only the
growth is pushed to ``x``.  Members that arrive with ``REL(idom(x),
·)`` are not folded at all, since that row is closed at the fixpoint
and ``x`` reads it.  Each evaluation is O(N/w) word operations plus
O(1) per folded member, so the solver runs in O(N²) word operations
when each node is evaluated O(1) times, against an output of Θ(N²)
pairs.
"""

from __future__ import annotations

import warnings
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .. import obs
from ..cfg.dominators import idoms
from ..syncgraph.model import SyncGraph, SyncNode

__all__ = ["OrderingInfo", "compute_orderings", "strict_dominators"]


def transpose(rows: Sequence[int]) -> List[int]:
    """Transpose a square bit matrix given as int rows.

    Works on fixed-width binary strings, so the Θ(N²) bit moves run in
    C rather than one interpreted step per set bit.
    """
    n = len(rows)
    text = [format(row, f"0{n}b") for row in rows]
    # Column j of ``text`` holds bit n-1-j of every row, row 0 first.
    columns = [int("".join(col[::-1]), 2) for col in zip(*text)]
    columns.reverse()
    return columns


def row_members(
    nodes: Sequence[SyncNode], row: int
) -> FrozenSet[SyncNode]:
    """The nodes whose ids are set in ``row``."""
    members = []
    while row:
        low = row & -row
        members.append(nodes[low.bit_length() - 1])
        row ^= low
    return frozenset(members)


class OrderingInfo:
    """Prefix-sound must-ordering facts over rendezvous nodes.

    Held as bit rows over the rendezvous ids of ``nodes`` (the
    ``graph.rendezvous_nodes`` order): bit ``h`` of
    ``preceded_by_rows[k]`` says ``nodes[k]`` cannot be reached before
    ``nodes[h]`` has completed its rendezvous.  The forward rows are
    their transpose; they and the set-valued views (``precedes``,
    ``sequenceable_with``) are built on first use.
    """

    def __init__(
        self, nodes: Sequence[SyncNode], preceded_by_rows: List[int]
    ) -> None:
        self.nodes: Tuple[SyncNode, ...] = tuple(nodes)
        self.preceded_by_rows = preceded_by_rows
        self._precedes_rows: Optional[List[int]] = None
        self._ids: Optional[Dict[SyncNode, int]] = None
        self._seq_rows: Optional[List[int]] = None
        self._precedes: Optional[Dict[SyncNode, FrozenSet[SyncNode]]] = None
        # Symmetric closure per node, materialized on the first
        # sequenceable_with query (the reference backend asks once per
        # head per analysis).
        self._seq_with: Optional[Dict[SyncNode, FrozenSet[SyncNode]]] = None

    @property
    def ids(self) -> Dict[SyncNode, int]:
        """Rendezvous id of each node."""
        if self._ids is None:
            self._ids = {node: i for i, node in enumerate(self.nodes)}
        return self._ids

    @property
    def precedes_rows(self) -> List[int]:
        """Forward rows: bit ``k`` of row ``h`` iff ``precedes(h, k)``."""
        if self._precedes_rows is None:
            self._precedes_rows = transpose(self.preceded_by_rows)
        return self._precedes_rows

    @property
    def sequenceable_rows(self) -> List[int]:
        """Forward ∪ backward row per node (the SEQUENCEABLE vector)."""
        if self._seq_rows is None:
            self._seq_rows = [
                f | b
                for f, b in zip(self.precedes_rows, self.preceded_by_rows)
            ]
        return self._seq_rows

    @property
    def precedes(self) -> Dict[SyncNode, FrozenSet[SyncNode]]:
        """``precedes[a]``: the nodes not reached before ``a`` completed."""
        if self._precedes is None:
            nodes = self.nodes
            self._precedes = {
                node: row_members(nodes, row)
                for node, row in zip(nodes, self.precedes_rows)
            }
        return self._precedes

    def must_precede(self, a: SyncNode, b: SyncNode) -> bool:
        ids = self.ids
        i = ids.get(a)
        j = ids.get(b)
        if i is None or j is None:
            return False
        return bool((self.preceded_by_rows[j] >> i) & 1)

    def sequenceable(self, a: SyncNode, b: SyncNode) -> bool:
        return self.must_precede(a, b) or self.must_precede(b, a)

    def sequenceable_with(self, a: SyncNode) -> FrozenSet[SyncNode]:
        cache = self._seq_with
        if cache is None:
            nodes = self.nodes
            cache = {
                node: row_members(nodes, row)
                for node, row in zip(nodes, self.sequenceable_rows)
            }
            self._seq_with = cache
        return cache.get(a, frozenset())

    @property
    def pair_count(self) -> int:
        """Number of ordered pairs (for reporting/benchmarks)."""
        return sum(row.bit_count() for row in self.preceded_by_rows)


def _rendezvous_idoms(graph: SyncGraph) -> Tuple[List[int], List[int]]:
    """Per rendezvous id: its nearest strict rendezvous dominator within
    its task (``-1`` if none) and its depth in that dominator tree.

    Each task's control graph is rooted at ``b`` and holds the task's
    rendezvous nodes plus ``b``/``e`` with the control edges among them.
    """
    nodes = graph.rendezvous_nodes
    rid = {node: i for i, node in enumerate(nodes)}
    ridom = [-1] * len(nodes)
    depth = [0] * len(nodes)
    for task in graph.tasks:
        members = graph.nodes_of_task(task)
        if not members:
            continue
        # Local ids: b = 0, e = 1, then the task's nodes.
        local = {node: k for k, node in enumerate(members, start=2)}
        local[graph.e] = 1
        succ: List[List[int]] = [
            [local[d] for d in graph.control_successors(graph.b)
             if d in local],
            [],
        ]
        for node in members:
            succ.append(
                [local[d] for d in graph.control_successors(node)
                 if d in local]
            )
        idom = idoms(0, succ)
        for k, node in enumerate(members, start=2):
            d = idom[k]
            if d >= 2:
                ridom[rid[node]] = rid[members[d - 2]]
    for i in range(len(nodes)):
        if depth[i] or ridom[i] < 0:
            continue
        chain = []
        j = i
        while ridom[j] >= 0 and not depth[j]:
            chain.append(j)
            j = ridom[j]
        base = depth[j]
        for j in reversed(chain):
            base += 1
            depth[j] = base
    return ridom, depth


def _dominator_rows(ridom: List[int], depth: List[int]) -> List[int]:
    """Bit row of all strict rendezvous dominators per node."""
    rows = [0] * len(ridom)
    for x in sorted(range(len(ridom)), key=depth.__getitem__):
        d = ridom[x]
        if d >= 0:
            rows[x] = rows[d] | (1 << d)
    return rows


def strict_dominators(graph: SyncGraph) -> Dict[SyncNode, FrozenSet[SyncNode]]:
    """Strict rendezvous dominators of each node within its task.

    ``d ∈ strict_dominators[x]`` means every control path from program
    start to ``x`` in ``x``'s task passes through (and therefore
    completes) ``d`` first.
    """
    with obs.span("orderings.dominators"):
        ridom, depth = _rendezvous_idoms(graph)
    nodes = graph.rendezvous_nodes
    result: Dict[SyncNode, FrozenSet[SyncNode]] = {}
    for x in sorted(range(len(nodes)), key=depth.__getitem__):
        d = ridom[x]
        result[nodes[x]] = (
            result[nodes[d]] | {nodes[d]} if d >= 0 else frozenset()
        )
    return result


def _counting_seeds(
    graph: SyncGraph, rid: Dict[SyncNode, int], dom_rows: List[int]
) -> List[Tuple[int, int]]:
    """Counting-rule seed facts ``REL(last, other_side_node)`` as ids.

    For a signal whose accept (resp. send) nodes all sit in one task in
    a strict domination chain, with equally many nodes on the other
    side: completing the chain's last node forces completion of every
    node on the other side.  Only sound when nodes fire at most once,
    i.e. acyclic control flow — the caller checks that.
    """
    seeds: List[Tuple[int, int]] = []
    for signal in graph.signals:
        senders = graph.senders_of(signal)
        accepters = graph.accepters_of(signal)
        if not senders or not accepters or len(senders) != len(accepters):
            continue
        for side, other in ((accepters, senders), (senders, accepters)):
            if len({n.task for n in side}) != 1:
                continue
            ids = [rid[n] for n in side]
            mask = 0
            for i in ids:
                mask |= 1 << i
            chain = sorted(
                ids, key=lambda i: (dom_rows[i] & mask).bit_count()
            )
            if all(
                (dom_rows[b] >> a) & 1 for a, b in zip(chain, chain[1:])
            ):
                seeds.extend((chain[-1], rid[o]) for o in other)
    return seeds


def _evaluation_order(
    reads: List[Tuple[int, ...]], depth: List[int]
) -> List[int]:
    """Node ids with the rows each node reads evaluated before it where
    possible: the strongly connected components of the read graph in
    dependency order (Tarjan emits a component after every component
    it reads), each component in dominator-depth order."""
    n = len(reads)
    by_depth = sorted(range(n), key=lambda i: (depth[i], i))
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    order: List[int] = []
    counter = 0
    for root in by_depth:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(reads[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(reads[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == v:
                            break
                    component.sort(key=lambda i: (depth[i], i))
                    order.extend(component)
    return order


def compute_orderings(
    graph: SyncGraph, max_iterations: int = 10_000
) -> OrderingInfo:
    """Least fixpoint of the prefix-sound REL closure; see module docs.

    Works for cyclic control flow too (every clause reads "has
    completed at least once"), but the counting and transitivity
    strengthenings assume each node fires at most once and are only
    applied on acyclic control subgraphs.

    The fixpoint is solved with a priority worklist over integer
    bitsets: a node is re-evaluated only when a row it reads grew (its
    immediate dominator's, a sync partner's, or — for the transitive
    clause — a member's), and the pending node earliest in dependency
    order (see the module docs) goes first.  The work budget is
    ``max_iterations × |nodes|`` evaluations; exhausting it returns the
    partial fixpoint, which is sound (a subset of the derivable facts,
    so strictly less pruning) but imprecise, and warns.
    """
    with obs.span("orderings.compute"):
        return _compute_orderings(graph, max_iterations)


def _compute_orderings(graph: SyncGraph, max_iterations: int) -> OrderingInfo:
    nodes = graph.rendezvous_nodes
    n = len(nodes)
    if n == 0:
        return OrderingInfo(nodes, [])
    rid = {node: i for i, node in enumerate(nodes)}
    with obs.span("orderings.dominators"):
        ridom, depth = _rendezvous_idoms(graph)
    acyclic = not graph.has_control_cycle()
    dom_rows = _dominator_rows(ridom, depth)
    # The all-partners clause reads only the dominance-minimal partners:
    # a partner strictly dominated by another partner has a superset row
    # at the fixpoint (same argument as for idom), so it cannot shrink
    # the intersection.
    partner_ids: List[Tuple[int, ...]] = []
    for x in nodes:
        ids = [rid[p] for p in graph.sync_neighbors(x)]
        mask = 0
        for p in ids:
            mask |= 1 << p
        partner_ids.append(tuple(p for p in ids if not dom_rows[p] & mask))

    # ``pos`` ranks a node in evaluation order; the worklist is a bitset
    # over ranks, so its lowest bit is the pending node that comes first.
    order = _evaluation_order(
        [
            partner_ids[x] + ((ridom[x],) if ridom[x] >= 0 else ())
            for x in range(n)
        ],
        depth,
    )
    pos = [0] * n
    for p, x in enumerate(order):
        pos[x] = p

    # rel[x] = bitset of h with REL(x, h): "x completed => h completed".
    # Rows start empty; ``pending`` holds facts not yet folded into a
    # row — the seeds at first, then growth pushed from member rows.
    rel = [0] * n
    pending = [1 << i for i in range(n)]
    if acyclic:
        for x, h in _counting_seeds(graph, rid, dom_rows):
            pending[x] |= 1 << h

    # Static readers (as rank bits): when rel[y] grows, re-evaluate the
    # nodes whose immediate dominator or sync partner is y.
    readers = [0] * n
    for x in range(n):
        bit = 1 << pos[x]
        if ridom[x] >= 0:
            readers[ridom[x]] |= bit
        for p in partner_ids[x]:
            readers[p] |= bit
    # Transitive readers: member_of[y] = bitset of the x that folded
    # rel[y] into rel[x]; growth of rel[y] is pushed to them.
    member_of = [0] * n

    budget = max_iterations * n
    steps = 0
    exhausted = False
    worklist = (1 << n) - 1
    while worklist:
        if steps >= budget:
            exhausted = True
            break
        low = worklist & -worklist
        worklist ^= low
        x = order[low.bit_length() - 1]
        steps += 1
        cur = rel[x]
        new = cur | pending[x]
        pending[x] = 0
        d = ridom[x]
        if d >= 0:
            new |= rel[d]
        pids = partner_ids[x]
        if pids:
            common = rel[pids[0]]
            for p in pids[1:]:
                common &= rel[p]
                if not common:
                    break
            new |= common
        if new == cur:
            continue
        if acyclic:
            # Transitive closure: fold the row of every member gained in
            # this evaluation once, and subscribe x to later growth of
            # that row.  Members of rel[idom(x)] are skipped: the
            # idom's row is closed at the fixpoint and x reads it.
            bitx = 1 << x
            folded = cur | rel[d] if d >= 0 else cur
            todo = new & ~folded
            while todo:
                low = todo & -todo
                y = low.bit_length() - 1
                new |= rel[y]
                member_of[y] |= bitx
                folded |= low
                todo = new & ~folded
        delta = new & ~cur
        rel[x] = new
        worklist |= readers[x]
        if acyclic:
            m = member_of[x] & ~bitx
            while m:
                low = m & -m
                z = low.bit_length() - 1
                pending[z] |= delta
                worklist |= 1 << pos[z]
                m ^= low

    if exhausted:
        warnings.warn(
            f"compute_orderings exhausted its work budget "
            f"({max_iterations} sweep-equivalents over {n} nodes) before "
            f"convergence; returning the partial fixpoint (sound but "
            f"imprecise — fewer SEQUENCEABLE facts, less pruning)",
            RuntimeWarning,
            stacklevel=3,
        )
    if obs.is_enabled():
        obs.counter("orderings.worklist_steps").inc(steps)
        if exhausted:
            obs.counter("orderings.max_iterations_exhausted").inc()

    # precedes(h, k) iff REL(idom(k), h) and h != k.
    preceded_by = [
        rel[ridom[k]] & ~(1 << k) if ridom[k] >= 0 else 0 for k in range(n)
    ]
    return OrderingInfo(nodes, preceded_by)
