"""Show that every oracle and property check rejects a corrupted answer set.

Usage (from the root of a checkout)::

    python3 perfbench/selfcheck.py

For each oracle the program's real answer set is computed first and must
be accepted; then three corruptions of it -- one answer dropped, one
foreign answer added, one answer's value changed -- must each be
rejected.  The two property checks are corrupted the same way (one
strategy's answers, one Alexander call).  Exit status 0 when every check
behaves, 1 otherwise.
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402

from repro import Engine  # noqa: E402
from repro.workloads import programs  # noqa: E402

FOREIGN = -1


def corruptions(rows: set):
    rows = set(rows)
    if rows:
        victim = min(rows)
        yield "drop one", rows - {victim}
        yield "change one", (rows - {victim}) | {victim[:-1] + (FOREIGN,)}
    source = min(rows)[0] if rows else 0
    yield "add one", rows | {(source, FOREIGN)}


def answers(engine: Engine, goal: str, strategy: str = "alexander") -> set:
    return set(engine.query(goal, strategy=strategy).answer_rows)


def cases(rng: random.Random):
    forest = inputs.forest(rng, trees=4, tree_size=60, window=8)
    engine = Engine.from_source(inputs.ANC_PROGRAM + inputs.facts_text("par", forest.par_rows()))
    c = max(forest.parent)
    yield "reachability (forest ancestors)", answers(engine, f"anc({c}, X)?"), \
        {(c, a) for a in oracles.ancestors(forest.parent, c)}

    dag = inputs.window_dag(rng, components=3, size=12, out_degree=2, window=4)
    engine = Engine.from_source(inputs.TC_PROGRAM + inputs.facts_text("e", sorted(dag)))
    yield "reachability (graph closure)", answers(engine, "tc(0, X)?", "magic"), \
        oracles.closure_answers(oracles.adjacency(dag), 0)

    tree = inputs.sg_tree(3, 2)
    engine = Engine.from_source(inputs.SG_PROGRAM + tree.source())
    yield "same-generation", answers(engine, "sg(7, X)?", "oldt"), \
        oracles.same_generation(tree.up, tree.flat, tree.down, 7)

    sc = programs.unreachable("random", n=10, edge_probability=0.2, seed=3)
    edges = sc.database.rows("e")
    nodes = sorted(row[0] for row in sc.database.rows("node"))
    engine = Engine(sc.program, sc.database)
    yield "negation complement", answers(engine, f"unreach({nodes[0]}, X)?"), \
        oracles.unreachable(nodes, edges, nodes[0])

    sc = programs.bill_of_materials(depth=4, branching=2, banned_every=5)
    subpart = sc.database.rows("subpart")
    banned = [row[0] for row in sc.database.rows("banned")]
    engine = Engine(sc.program, sc.database)
    for part in (7, 0):
        yield f"bill-of-materials taint (part {part})", answers(engine, f"clean({part}, X)?", "supplementary"), \
            oracles.bom_clean(subpart, banned, part)

    view = inputs.window_dag(rng, components=2, size=10, out_degree=3, window=4)
    engine = Engine.from_source(inputs.VIEW_PROGRAM + inputs.facts_text("e", sorted(view)))
    yield "two-hop view", answers(engine, "hop2(0, X)?", "seminaive"), \
        oracles.two_hop(oracles.adjacency(view), 0)

    live = set(dag)
    incremental = Engine.from_source(inputs.TC_PROGRAM + inputs.facts_text("e", sorted(live))).incremental(
        maintenance="dred")
    before = oracles.closure_all(live)
    removed = (0, min(b for a, b in live if a == 0))
    incremental.remove_many([f"e({removed[0]}, {removed[1]})"])
    live.discard(removed)
    model = {incremental.database.decode_row(r) for r in incremental.database.rows("tc")}
    expected = oracles.closure_all(live)
    yield "live edge set (after a delete)", model, expected
    if before != expected:
        yield "live edge set (stale: pre-delete model)", before, expected, False


def main() -> int:
    rng = random.Random(7)
    ok = True
    for case in cases(rng):
        name, got, expected = case[:3]
        accepted = got == expected
        if len(case) == 4:  # a stale model, which must be rejected
            verdict = "rejected" if not accepted else "ACCEPTED"
            ok &= not accepted
            print(f"{name:45} {verdict}")
            continue
        print(f"{name:45} real answers ({len(got)}): {'accepted' if accepted else 'REJECTED'}")
        ok &= accepted
        for label, corrupted in corruptions(got):
            rejected = corrupted != expected
            ok &= rejected
            print(f"{'':45}   {label}: {'rejected' if rejected else 'ACCEPTED'}")

    sc = programs.ancestor("random", "right", n=14, edge_probability=0.15, seed=5)
    engine = Engine(sc.program, sc.database)
    goal = "anc(0, X)?"
    results = {s: engine.query(goal, strategy=s) for s in ("alexander", "magic", "supplementary", "oldt")}
    by_strategy = {s: set(r.answer_rows) for s, r in results.items()}
    real = oracles.same_answers(by_strategy)
    corrupted = dict(by_strategy, magic=next(c for _, c in corruptions(by_strategy["magic"])))
    print(f"{'property: four strategies agree':45} real: {'accepted' if real else 'REJECTED'}; "
          f"one strategy corrupted: {'rejected' if not oracles.same_answers(corrupted) else 'ACCEPTED'}")
    ok &= real and not oracles.same_answers(corrupted)

    alex, oldt = results["alexander"].calls, results["oldt"].calls
    real = oracles.calls_correspond(alex, oldt, {"anc"})
    dropped = oracles.calls_correspond(set(alex) - {min(alex)}, oldt, {"anc"})
    added = oracles.calls_correspond(set(alex) | {("anc", "bf", (FOREIGN,))}, oldt, {"anc"})
    print(f"{'property: Alexander calls = OLDT calls':45} real ({len(alex)} calls): "
          f"{'accepted' if real else 'REJECTED'}; call dropped: {'rejected' if not dropped else 'ACCEPTED'}; "
          f"call added: {'rejected' if not added else 'ACCEPTED'}")
    ok &= real and not dropped and not added
    print("all oracles and property checks behave" if ok else "SOME CHECK MISBEHAVED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
