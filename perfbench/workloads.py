"""The in-process workloads: prepared-reads, cold-queries, update-stream.

Each workload drives the program through its public API only, checks
every answer against :mod:`oracles`, and runs in *rounds*: a round is a
fixed multiset of operations (its order may be seeded), and a run
attempts whole rounds until its time is up, so every run attempts the
same operation mix.
"""

from __future__ import annotations

import json
import random
import resource
import sys

import inputs
import oracles

from repro import Engine
from repro.core import engine as core_engine
from repro.core import prepare as core_prepare
from repro.core import strategy as core_strategy
from repro.core.prepare import PreparedQuery
from repro.engine import scheduler as engine_scheduler
from repro.engine import seminaive as engine_seminaive
from repro.engine import stratified as engine_stratified
from repro.engine.incremental import IncrementalEngine
from repro.serve import QueryService
from repro.serve import service as serve_service
from repro.serve.cache import PreparedQueryCache
from repro.topdown.oldt import OLDTEngine
from repro.transform.common import TransformedProgram
from repro.workloads import programs

READ = "query"

# The wire encoding a server applies to every payload; indirected so the
# traced run can wrap it like any other layer.
encode = json.dumps


def rows_of(payload) -> set:
    return {tuple(row) for row in payload["answers"]["rows"]}


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """Base class: subclasses set ``name`` and implement the hooks."""

    name = ""
    in_process = True

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.layer_data: dict = {}

    def make_inputs(self) -> None:
        """Generate this seed's inputs: the benchmark's own work, outside
        every timed span."""
        raise NotImplementedError

    def setup(self) -> None:
        """Hand the inputs to the program and warm it: the timed set-up."""
        raise NotImplementedError

    def round(self, tally) -> None:
        raise NotImplementedError

    def install_trace(self, tracer) -> None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self, tally) -> None:
        pass

    def collect(self, key: str, value: float) -> None:
        total, count = self.layer_data.get(key, (0.0, 0))
        self.layer_data[key] = (total + value, count + 1)

    def mean(self, key: str) -> float:
        total, count = self.layer_data.get(key, (0.0, 0))
        return total / count if count else 0.0


def record_payload(workload, payload) -> None:
    if "answers" not in payload:  # an update's reply
        return
    stats = payload.get("stats") or {}
    workload.collect("attempts", stats.get("attempts", 0))
    workload.collect("inferences", stats.get("inferences", 0))
    workload.collect("hits", 1.0 if payload.get("cache_hit") else 0.0)


def _wrap_service_layers(tracer, workload) -> None:
    """Spans shared by the two workloads that go through QueryService."""
    this_module = sys.modules[__name__]

    completed = {}

    def remember_completed(args, result):
        completed["db"] = result[0]

    def count_rows(args, result):
        prepared, goal = args[0], args[1]
        if prepared.mode == "transform":
            database = completed.pop("db", None)
            predicate = prepared.transformed.goal.predicate
        else:
            database = prepared.base
            predicate = goal.predicate
        rows = len(database.relation(predicate)) if database is not None and predicate in database else 0
        workload.collect("rows", rows)
        workload.collect("answers", len(result.answers))

    tracer.wrap(QueryService, "query", "serve.service.query")
    tracer.wrap(QueryService, "render_answers", "serve.service.render")
    tracer.wrap(this_module, "encode", "serve.service.encode")
    tracer.wrap(QueryService, "update", "serve.service.update")
    tracer.wrap(QueryService, "prepare", "serve.service.prepare")
    tracer.wrap(serve_service, "parse_query", "datalog.parser.parse")
    tracer.wrap(serve_service, "prepared_cache_key", "serve.cache.lookup")
    tracer.wrap(serve_service, "database_fingerprint", "core.snapshot.fingerprint")
    tracer.wrap(serve_service, "prepare_query", "core.prepare.prepare")
    tracer.wrap(PreparedQueryCache, "get_or_prepare", "serve.cache.lookup")
    tracer.wrap(PreparedQueryCache, "rekey_dataset", "serve.cache.rekey")
    tracer.wrap(PreparedQuery, "execute", "core.prepare.execute", after=count_rows)
    tracer.wrap(core_prepare, "run_fixpoint", "engine.fixpoint", after=remember_completed)
    tracer.wrap(core_prepare, "stratified_fixpoint", "engine.fixpoint")
    tracer.wrap(core_prepare, "compile_fixpoint", "engine.compile")
    _wrap_incremental(tracer, workload)


def _wrap_incremental(tracer, workload) -> None:
    """Maintenance spans, and join attempts per maintenance call (the
    engine's lifetime ``stats`` grows by each operation's attempts)."""
    for method, name in (("add_many", "engine.incremental.insert"),
                         ("remove_many", "engine.incremental.delete")):
        original = vars(IncrementalEngine)[method]

        def counted(self, atoms, _original=original):
            before = self.stats.attempts
            result = _original(self, atoms)
            workload.collect("maintain_attempts", self.stats.attempts - before)
            return result

        tracer.patch(IncrementalEngine, method, counted)
        tracer.wrap(IncrementalEngine, method, name)


class PreparedReads(Workload):
    """Warm-cache ``anc(c, X)?`` over a random-window forest and
    ``sg(c, Y)?`` over a balanced tree, through an in-process
    QueryService with the default strategy (Alexander).

    A round is 48 reads (36 anc, 12 sg), then one re-parenting write
    (a delete and an insert on the forest), then one re-preparation of
    the anc shape the write invalidated -- so reads stay warm-cache.
    """

    name = "prepared-reads"
    TREES, TREE_SIZE, WINDOW = 40, 200, 8
    SG_DEPTH, SG_BRANCHING = 5, 3
    READS_PER_ROUND, SG_EVERY = 48, 4

    def make_inputs(self) -> None:
        self.forest = inputs.forest(self.rng, self.TREES, self.TREE_SIZE, self.WINDOW)
        self.tree = inputs.sg_tree(self.SG_DEPTH, self.SG_BRANCHING)
        nodes = set(self.forest.parent) | set(self.forest.parent.values())
        # anc reads are drawn one from each depth stratum per round: the
        # cone sizes of a run then follow the forest's depth distribution
        # closely, instead of the luck of iid draws, and latency grows
        # steeply with depth near the 90th percentile.
        by_depth = sorted(nodes, key=lambda c: (len(oracles.ancestors(self.forest.parent, c)), c))
        k = self.READS_PER_ROUND - self.READS_PER_ROUND // self.SG_EVERY
        self.strata = [by_depth[i * len(by_depth) // k:(i + 1) * len(by_depth) // k] for i in range(k)]
        self.facts = {
            "forest": inputs.facts_text("par", self.forest.par_rows()),
            "tree": self.tree.source(),
        }

    def setup(self) -> None:
        self.service = QueryService()
        self.service.load("forest", inputs.ANC_PROGRAM, self.facts["forest"])
        self.service.load("tree", inputs.SG_PROGRAM, self.facts["tree"])
        self.service.prepare("forest", "anc(1, X)?")
        self.service.prepare("tree", "sg(1, X)?")

    def query(self, dataset, goal):
        payload = self.service.query(dataset, goal)
        encode(payload)
        return payload

    def update(self, **change):
        return self.service.update("forest", **change)

    def check_payload(self, tally, payload) -> None:
        record_payload(self, payload)

    def reads_and_write(self, tally) -> None:
        """The round's reads, then one re-parenting write on the forest."""
        t = self.tree
        anc_nodes = [self.rng.choice(stratum) for stratum in self.strata]
        self.rng.shuffle(anc_nodes)
        for i in range(self.READS_PER_ROUND):
            if i % self.SG_EVERY == self.SG_EVERY - 1:
                c = self.rng.choice(t.nodes[1:])
                goal, dataset = f"sg({c}, X)?", "tree"
                expected = lambda c=c: oracles.same_generation(t.up, t.flat, t.down, c)  # noqa: E731
            else:
                c = anc_nodes.pop()
                goal, dataset = f"anc({c}, X)?", "forest"
                expected = lambda c=c: {(c, a) for a in oracles.ancestors(self.forest.parent, c)}  # noqa: E731

            def check(payload, expected=expected):
                self.check_payload(tally, payload)
                return rows_of(payload) == expected()

            tally.timed(READ, lambda dataset=dataset, goal=goal: self.query(dataset, goal), check)
        removed, added = self.forest.reparent(self.rng)
        for kind, field, edge in (("delete", "remove", removed), ("insert", "add", added)):
            fact = f"par({edge[0]}, {edge[1]})"

            def check(info, field=field):
                self.check_payload(tally, info)
                return info["removed" if field == "remove" else "added"] == 1

            tally.timed(kind, lambda field=field, fact=fact: self.update(**{field: [fact]}), check)

    def round(self, tally) -> None:
        self.reads_and_write(tally)
        tally.untimed("rewarm", lambda: self.service.prepare("forest", "anc(1, X)?"),
                      lambda info: info["mode"] == "transform")

    def install_trace(self, tracer) -> None:
        _wrap_service_layers(tracer, self)


class UpdateStream(Workload):
    """A seeded interleaving of edge inserts, edge deletes and point
    queries through QueryService.update/query on maintained shapes:
    DRed over recursive ``tc`` and counting over the non-recursive
    ``hop2`` view.

    A round is 9 tc queries, 3 hop2 queries, and eight delete/re-insert
    pairs of randomly drawn live edges (six on tc, two on hop2), in a
    seeded order with each delete before its re-insert.  Re-inserting
    keeps the graphs from drifting within a run; the tc graph has one
    forward edge per node, so nearly every delete removes facts and
    every re-insert restores them.  The uneven tc/hop2 split keeps each
    percentile inside one class of operation.
    """

    name = "update-stream"
    SHAPES = {
        "tc": dict(components=30, size=24, out_degree=1, window=4),
        "view": dict(components=40, size=20, out_degree=3, window=6),
    }
    PREDICATE = {"tc": "tc", "view": "hop2"}
    PROGRAM = {"tc": inputs.TC_PROGRAM, "view": inputs.VIEW_PROGRAM}
    CONFIG = {
        "tc": dict(strategy="seminaive", maintain="dred"),
        "view": dict(strategy="seminaive", maintain="counting"),
    }
    QUERIES = [("query", "tc")] * 9 + [("query", "view")] * 3
    PAIRS = ["tc"] * 6 + ["view"] * 2

    def make_inputs(self) -> None:
        self.live = {name: inputs.window_dag(self.rng, **shape) for name, shape in self.SHAPES.items()}
        self.succ = {name: None for name in self.live}
        self.facts = {name: inputs.facts_text("e", sorted(edges)) for name, edges in self.live.items()}

    def setup(self) -> None:
        self.service = QueryService()
        for name in self.live:
            self.service.load(name, self.PROGRAM[name], self.facts[name])
            self.service.prepare(name, f"{self.PREDICATE[name]}(0, X)?", **self.CONFIG[name])

    def _adjacency(self, name):
        if self.succ[name] is None:
            self.succ[name] = oracles.adjacency(self.live[name])
        return self.succ[name]

    def _query(self, tally, name) -> None:
        shape = self.SHAPES[name]
        c = self.rng.randrange(shape["components"] * shape["size"])
        oracle = oracles.closure_answers if name == "tc" else oracles.two_hop

        def op():
            payload = self.service.query(name, f"{self.PREDICATE[name]}({c}, X)?", **self.CONFIG[name])
            encode(payload)
            return payload

        def check(payload):
            record_payload(self, payload)
            return rows_of(payload) == oracle(self._adjacency(name), c)

        tally.timed(READ, op, check)

    def _update(self, tally, name, kind, edge) -> None:
        live = self.live[name]
        if kind == "insert":
            live.add(edge)
            field, counted = "add", "added"
        else:
            live.discard(edge)
            field, counted = "remove", "removed"
        self.succ[name] = None
        fact = f"e({edge[0]}, {edge[1]})"
        tally.timed(
            kind,
            lambda: self.service.update(name, **{field: [fact]}),
            lambda info: info[counted] == 1 and info["cache_entries_patched"] == 1,
        )

    def round(self, tally) -> None:
        ops = list(self.QUERIES) + [("pair", k) for k in range(len(self.PAIRS))] * 2
        self.rng.shuffle(ops)
        pending = {}
        for kind, arg in ops:
            if kind == "query":
                self._query(tally, arg)
                continue
            name = self.PAIRS[arg]
            if arg not in pending:
                pending[arg] = self.rng.choice(sorted(self.live[name]))
                self._update(tally, name, "delete", pending[arg])
            else:
                self._update(tally, name, "insert", pending.pop(arg))

    def install_trace(self, tracer) -> None:
        _wrap_service_layers(tracer, self)


# --- cold-queries ----------------------------------------------------------------

STRATEGIES = ("alexander", "magic", "supplementary", "oldt")


def _rows(database, predicate):
    if predicate not in database:
        return []
    return [database.decode_row(row) for row in database.rows(predicate)]


def _source(scenario) -> str:
    rules = "\n".join(str(rule) for rule in scenario.program.rules)
    facts = "\n".join(f"{atom}." for atom in scenario.database.all_atoms())
    return rules + "\n" + facts + "\n"


class Instance:
    """One small program from :mod:`repro.workloads`, rendered to source
    text, with the oracle for its bound goal and the predicates of the
    goal's stratum (where Seki's call correspondence applies)."""

    def __init__(self, family, scenario, edge_pred, goal_pred, stratum, sources, oracle):
        self.family = family
        self.text = _source(scenario)
        self.scenario = scenario
        self.edges = _rows(scenario.database, edge_pred)
        self.edge_pred = edge_pred
        self.goal_pred = goal_pred
        self.stratum = stratum
        self.sources = sources
        self.oracle = oracle


# Closure sizes of these random digraphs vary threefold from one graph to
# the next; drawing only graphs whose closure size lies between the 40th
# and 60th percentile keeps the work of one run's instances close to any
# other run's.
CLOSURE_BAND = {(14, 0.15): (127, 145), (12, 0.18): (96, 110), (10, 0.2): (60, 72)}


def _graph_seed(rng: random.Random, n: int, p: float) -> int:
    lo, hi = CLOSURE_BAND[(n, p)]
    while True:
        seed = rng.randrange(1 << 30)
        edges = programs.make_edges("random", n=n, edge_probability=p, seed=seed)
        if lo <= len(oracles.closure_all(edges)) <= hi:
            return seed


def _families(rng: random.Random):
    seeds = {key: _graph_seed(rng, *key) for key in CLOSURE_BAND}

    def tc_family(name, variant, n, p):
        sc = programs.ancestor("random", variant, n=n, edge_probability=p, seed=seeds[(n, p)])
        edges = _rows(sc.database, "par")
        nodes = sorted({v for e in edges for v in e})
        return Instance(name, sc, "par", "anc", {"anc"}, nodes,
                        lambda c, e=edges: oracles.closure_answers(oracles.adjacency(e), c))

    sg = programs.same_generation(depth=4, branching=2)
    up, down, flat = (_rows(sg.database, p) for p in ("up", "down", "flat"))
    unreach = programs.unreachable("random", n=10, edge_probability=0.2, seed=seeds[(10, 0.2)])
    e_rows = _rows(unreach.database, "e")
    nodes = sorted(row[0] for row in _rows(unreach.database, "node"))
    bom = programs.bill_of_materials(depth=4, branching=2, banned_every=rng.randint(5, 9))
    subpart = _rows(bom.database, "subpart")
    banned = [row[0] for row in _rows(bom.database, "banned")]
    parts = sorted(row[0] for row in _rows(bom.database, "part"))
    return [
        tc_family("anc-right", "right", 14, 0.15),
        tc_family("anc-left", "left", 14, 0.15),
        tc_family("nltc", "nonlinear", 12, 0.18),
        Instance("sg", sg, "up", "sg", {"sg"}, sorted({v for e in up for v in e} - {0}),
                 lambda c: oracles.same_generation(up, flat, down, c)),
        Instance("unreach", unreach, "e", "unreach", {"unreach"}, nodes,
                 lambda c: oracles.unreachable(nodes, e_rows, c)),
        Instance("bom", bom, "subpart", "clean", {"clean"}, parts,
                 lambda c: oracles.bom_clean(subpart, banned, c)),
    ]


class ColdQueries(Workload):
    """One-shot ``Engine.from_source(text).query(goal, strategy)`` on small
    programs from :mod:`repro.workloads` (ancestor right/left, nonlinear
    tc, same-generation, unreachable, bill-of-materials), each under
    alexander, magic, supplementary and oldt with a fresh engine.

    A round takes the next instance of every family and runs its goal
    under all four strategies (24 queries), checks the two properties
    per goal, and applies one insert and one delete to an incremental
    engine for each of the three closure families (``Engine.incremental``,
    DRed), checking the maintained model against the oracle closure.
    """

    name = "cold-queries"
    # Instances per family; a run cycles through them, so the mix of
    # graph shapes in one run is close to the mix in any other.
    POOL = 96
    # Every strategy gets the default SIPS passed explicitly; run_strategy
    # then looks the rewriting up by name, which the traced run can wrap.
    SIPS = "left_to_right"
    # Inserted edges lead to a node outside every generated graph, so each
    # insert adds closure facts and each delete removes them again: every
    # write does maintenance work, with no cliff between no-op and real
    # updates for a percentile to sit on.
    FRESH_NODE = 1000
    # The first three families (the closure families) also take writes.
    WRITTEN = 3

    def make_inputs(self) -> None:
        self.pool = [_families(self.rng) for _ in range(self.POOL)]
        self.position = 0

    def setup(self) -> None:
        """Materialise the maintained model of every closure-family
        instance that a round writes to."""
        self.incremental = [
            [(Engine(inst.scenario.program, inst.scenario.database).incremental(maintenance="dred"),
              set(map(tuple, inst.edges)))
             for inst in families[:self.WRITTEN]]
            for families in self.pool
        ]

    def _query(self, tally, inst, goal, strategy, expected):
        def op():
            return Engine.from_source(inst.text).query(goal, strategy=strategy, sips=self.SIPS)

        def check(result):
            self.collect("attempts", result.stats.attempts)
            self.collect("inferences", result.stats.inferences)
            if result.transformed is not None:
                self.collect("rules_out", len(result.transformed.program.rules))
            return set(result.answer_rows) == expected

        return tally.timed(READ, op, check)

    def _write(self, tally, inst, engine, live) -> None:
        nodes = sorted({v for e in inst.edges for v in e})
        edge = (self.rng.choice(nodes), self.FRESH_NODE)
        fact = f"{inst.edge_pred}({edge[0]}, {edge[1]})"
        for kind, method in (("insert", engine.add_many), ("delete", engine.remove_many)):
            if kind == "insert":
                live.add(edge)
            else:
                live.discard(edge)
            expected = oracles.closure_all(live)
            tally.timed(
                kind,
                lambda method=method: method([fact]),
                lambda _result, expected=expected: set(_rows(engine.database, inst.goal_pred)) == expected,
            )

    def round(self, tally) -> None:
        index = self.position % self.POOL
        families = self.pool[index]
        self.position += 1
        for inst in families:
            c = self.rng.choice(inst.sources)
            goal = f"{inst.goal_pred}({c}, X)?"
            expected = inst.oracle(c)
            results = {}
            for strategy in STRATEGIES:
                result = self._query(tally, inst, goal, strategy, expected)
                if result is not None:
                    results[strategy] = result
            tally.untimed(
                "same-answers",
                lambda: len(results) == len(STRATEGIES),
                lambda ok: ok and oracles.same_answers({s: set(r.answer_rows) for s, r in results.items()}),
            )
            tally.untimed(
                "calls-correspond",
                lambda: "alexander" in results and "oldt" in results,
                lambda ok: ok and oracles.calls_correspond(
                    results["alexander"].calls, results["oldt"].calls, inst.stratum),
            )
        for inst, (engine, live) in zip(families, self.incremental[index]):
            self._write(tally, inst, engine, live)

    def install_trace(self, tracer) -> None:
        tracer.wrap(core_engine, "parse_program", "datalog.parser.parse")
        tracer.wrap(core_engine, "parse_query", "datalog.parser.parse")
        tracer.wrap(Engine, "__init__", "core.engine.load")
        tracer.wrap(core_engine, "run_strategy", "core.strategy")
        for name in ("alexander_templates", "magic_sets", "supplementary_magic_sets", "stratify"):
            tracer.wrap(core_strategy, name, "transform.rewrite")
        tracer.wrap(TransformedProgram, "evaluation_program", "transform.rewrite")
        for name in ("seminaive_fixpoint", "stratified_fixpoint"):
            tracer.wrap(core_strategy, name, "engine.fixpoint")
        tracer.wrap(engine_stratified, "seminaive_fixpoint", "engine.fixpoint")
        for module in (engine_scheduler, engine_seminaive):
            for name in ("compile_rule", "compile_executors"):
                tracer.wrap(module, name, "engine.compile")
        tracer.wrap(engine_scheduler, "build_schedule", "engine.compile")
        tracer.wrap(engine_scheduler, "component_planner", "engine.compile")
        tracer.wrap(OLDTEngine, "__init__", "topdown.oldt")
        tracer.wrap(OLDTEngine, "query", "topdown.oldt")
        _wrap_incremental(tracer, self)


IN_PROCESS = {cls.name: cls for cls in (PreparedReads, ColdQueries, UpdateStream)}
