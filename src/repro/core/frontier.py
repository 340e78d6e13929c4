"""The frontier traversal: Figure 3's recursion as one explicit-stack loop.

The paper's joins are one recursion, ``simJoin(n)`` over a node and
``simJoin(n1, n2)`` over a node pair (Figure 3).  :func:`traverse` runs
it over a :class:`~repro.index.packed.PackedIndex`: pop a task, prune the
whole fanout² candidate block with one kernel call
(:mod:`repro.geometry.kernels`), push the survivors.  It yields the
join's *work units*, by packed node id:

* ``("group", a)`` — subtree ``a`` is one early-stopped group (line 2);
* ``("self", a)`` — leaf ``a`` joins with itself (lines 5-10);
* ``("cross", a, b)`` — leaves ``a`` and ``b`` join (lines 23-29);
* ``("pgroup", a, b)`` — the pair ``a``, ``b`` is one early-stopped
  group (line 20).

Every tree join consumes this one sequence: the serial joins execute each
unit as it is yielded (:mod:`repro.core.csj`), checkpointed and pool runs
list it up front and address units by position
(:class:`~repro.parallel.tasks.TaskState`), and the dual join starts it
at the pair of two roots (:mod:`repro.core.dual`).

* **Order** — subtasks are pushed in reverse, so the LIFO pop order is
  the recursion's preorder; a node's child pairs are pruned after all
  its child subtrees, as the recursion's pair loop runs after its child
  loop.
* **Counters** — given ``stats``, the loop charges ``nodes_visited``,
  ``node_pairs_visited`` and ``mbr_checks``, and calls ``budget.check``
  and ``pager.visit`` as it enters each node and node pair.  A candidate
  block's ``mbr_checks`` land when the block is pruned; an early-stop
  test's land when its node or pair is entered.  Without ``stats``
  nothing is charged.  Leaf distance computations and early stops belong
  to whoever executes the units.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from repro.stats.counters import JoinStats

if TYPE_CHECKING:
    from repro.index.packed import PackedIndex

__all__ = ["traverse"]

# Stack entry tags.  An entry is ``(tag, a, b, ud)``:
#   _NODE    simJoin(a)                     Figure 3 lines 1-18
#   _NPAIRS  the child-pair block of a, popped after its child subtrees
#   _PAIR    simJoin(a, b), ``ud`` its precomputed union diameter
#            (Figure 3 lines 19-41)
_NODE, _NPAIRS, _PAIR = 0, 1, 2


def traverse(
    packed: "PackedIndex",
    eps: float,
    compact: bool,
    stats: Optional[JoinStats] = None,
    budget=None,
    pager=None,
    other: Optional["PackedIndex"] = None,
) -> Iterator[tuple]:
    """Yield the canonical work units of one tree join, lazily.

    Self-joins start at the root of ``packed``.  Given ``other``, the
    walk starts at the pair of the two roots instead: units then name a
    node of ``packed`` first and a node of ``other`` second.
    ``compact`` enables the early stops of N-CSJ / CSJ(g).
    """
    p = packed
    q = p if other is None else other
    eps = float(eps)
    if stats is None:
        stats = JoinStats()  # charged, then dropped: the caller's stay untouched
    leaf1 = p.leaf.tolist()
    beg1, end1 = p.child_beg.tolist(), p.child_end.tolist()
    if q is p:
        leaf2, beg2, end2 = leaf1, beg1, end1
    else:
        leaf2 = q.leaf.tolist()
        beg2, end2 = q.child_beg.tolist(), q.child_end.tolist()
    diam = p.diam.tolist()
    if other is None:
        stack: list[tuple] = [(_NODE, 0, 0, 0.0)]
    else:
        root = np.zeros(1, dtype=np.intp)
        ud = float(p.union_diag(root, root, q)[0]) if compact else 0.0
        stack = [(_PAIR, 0, 0, ud)]
    push = stack.append

    def push_pairs(rows, cols, base1, base2) -> None:
        ids1 = rows + base1 if base1 else rows
        ids2 = cols + base2 if base2 else cols
        if compact:
            ud = p.union_diag(ids1, ids2, q)
            for i1, i2, u in zip(
                ids1[::-1].tolist(), ids2[::-1].tolist(), ud[::-1].tolist()
            ):
                push((_PAIR, i1, i2, u))
        else:
            for i1, i2 in zip(ids1[::-1].tolist(), ids2[::-1].tolist()):
                push((_PAIR, i1, i2, 0.0))

    while stack:
        tag, a, b, ud = stack.pop()
        if tag == _PAIR:
            stats.node_pairs_visited += 1
            if budget is not None:
                budget.check(stats)
            if pager is not None:
                pager.visit(p.nodes[a])
                pager.visit(q.nodes[b])
            if compact:
                # Early stop (line 20): both subtrees form one group.
                stats.mbr_checks += 1
                if ud < eps:
                    yield ("pgroup", a, b)
                    continue
            la = leaf1[a]
            lb = leaf2[b]
            if la and lb:
                yield ("cross", a, b)
            elif la:
                beg, end = beg2[b], end2[b]
                stats.mbr_checks += end - beg
                _, cols = p.prune_cross([a], slice(beg, end), eps, q)
                push_pairs(np.full(len(cols), a, dtype=np.intp), cols, 0, beg)
            elif lb:
                beg, end = beg1[a], end1[a]
                stats.mbr_checks += end - beg
                rows, _ = p.prune_cross(slice(beg, end), [b], eps, q)
                push_pairs(rows, np.full(len(rows), b, dtype=np.intp), beg, 0)
            else:
                b1, e1 = beg1[a], end1[a]
                b2, e2 = beg2[b], end2[b]
                stats.mbr_checks += (e1 - b1) * (e2 - b2)
                rows, cols = p.prune_cross(slice(b1, e1), slice(b2, e2), eps, q)
                push_pairs(rows, cols, b1, b2)
        elif tag == _NODE:
            stats.nodes_visited += 1
            if budget is not None:
                budget.check(stats)
            if pager is not None:
                pager.visit(p.nodes[a])
            if compact:
                # Early stop (line 2): the whole subtree is one group.
                stats.mbr_checks += 1
                if diam[a] < eps:
                    yield ("group", a)
                    continue
            if leaf1[a]:
                yield ("self", a)
                continue
            beg, end = beg1[a], end1[a]
            push((_NPAIRS, a, 0, 0.0))
            for cid in range(end - 1, beg - 1, -1):
                push((_NODE, cid, 0, 0.0))
        else:  # _NPAIRS
            beg, end = beg1[a], end1[a]
            k = end - beg
            stats.mbr_checks += k * (k - 1) // 2
            rows, cols = p.prune_self(beg, end, eps)
            push_pairs(rows, cols, beg, beg)
