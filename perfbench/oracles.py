"""Answer oracles written in plain Python over the generated edge sets.

None of this code uses the program under test: every expected answer is
computed here by a direct graph algorithm (chain walks, breadth-first
search, level-synchronised tree walks, set complements) from the same
edge sets the benchmark hands to the program.  Answers are compared as
sets of value tuples, in the order the goal's arguments appear.
"""

from __future__ import annotations

from collections import defaultdict, deque


def adjacency(edges) -> dict:
    succ = defaultdict(list)
    for a, b in edges:
        succ[a].append(b)
    return succ


def reach_from(succ, source) -> set:
    """Nodes reachable from *source* by one or more edges."""
    seen = set()
    queue = deque(succ.get(source, ()))
    while queue:
        node = queue.popleft()
        if node in seen:
            continue
        seen.add(node)
        queue.extend(succ.get(node, ()))
    return seen


def ancestors(parent: dict, node) -> set:
    """``anc(node, X)`` over ``par(child, parent)`` in a forest: the chain
    of parents up to the root."""
    found = set()
    while node in parent:
        node = parent[node]
        found.add(node)
    return found


def closure_answers(succ, source) -> set:
    """``anc(source, X)`` / ``tc(source, X)`` for any graph."""
    return {(source, y) for y in reach_from(succ, source)}


def closure_all(edges) -> set:
    succ = adjacency(edges)
    return {(x, y) for x in list(succ) for y in reach_from(succ, x)}


def same_generation(up, flat, down, source) -> set:
    """``sg(source, Y)``: walk ``k`` steps up, one ``flat`` step, ``k``
    steps down, for every ``k`` -- one level set at a time."""
    up_s, flat_s, down_s = adjacency(up), adjacency(flat), adjacency(down)
    found = set()
    level = {source}
    seen_levels = set()
    k = 0
    while level and frozenset(level) not in seen_levels:
        seen_levels.add(frozenset(level))
        targets = {v for u in level for v in flat_s.get(u, ())}
        for _ in range(k):
            targets = {w for v in targets for w in down_s.get(v, ())}
        found |= targets
        level = {p for u in level for p in up_s.get(u, ())}
        k += 1
    return {(source, y) for y in found}


def unreachable(nodes, edges, source) -> set:
    """``unreach(source, Y)``: every node with no path from *source*."""
    reached = reach_from(adjacency(edges), source)
    return {(source, y) for y in nodes if y not in reached}


def bom_clean(subpart, banned, source) -> set:
    """``clean(source, Y)``: the parts *source* needs, unless a banned
    part is *source* itself or anywhere below it."""
    needed = reach_from(adjacency(subpart), source)
    banned = set(banned)
    if source in banned or needed & banned:
        return set()
    return {(source, y) for y in needed}


def two_hop(succ, source) -> set:
    """``hop2(source, Y)``: targets of exactly two edges."""
    return {(source, y) for z in succ.get(source, ()) for y in succ.get(z, ())}


# --- property checks -----------------------------------------------------------

def same_answers(by_strategy: dict) -> bool:
    """Every strategy returned the same answer set."""
    answer_sets = list(by_strategy.values())
    return all(rows == answer_sets[0] for rows in answer_sets[1:])


def calls_correspond(alexander_calls, oldt_calls, predicates) -> bool:
    """Seki's correspondence: the ``(predicate, adornment, bound args)``
    calls of the Alexander rewriting equal OLDT's tabled calls, on the
    predicates of the rewritten stratum (lower strata are materialised
    bottom-up by the transform strategies, so OLDT alone tables them)."""
    def keep(calls):
        return {call for call in calls if call[0] in predicates}

    return keep(alexander_calls) == keep(oldt_calls)
