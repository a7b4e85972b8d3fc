"""Seeded op streams for the three benchmark workloads, with independent answers.

Every request the program receives comes from here, and every request
carries the verdict it must produce, decided *without* ``repro``: either by
construction (a path on n vertices has treedepth ceil(log2(n+1)), a tree on n
vertices has treedepth at most floor(log2 n) + 1, a triangle chain has no
cycle longer than 3, an odd cycle is not bipartite) or by a networkx check
on the same graph (``is_tree``, ``is_bipartite``, ``simple_cycles``,
``diameter``, degrees).  ``repro`` is used only to *build* the graph a
``family:size`` specifier names, so the checker looks at exactly the
instance the server decides.

The streams:

* ``certify_cold_rounds`` — endless rounds of single ``certify`` requests;
  no (scheme or formula, params, graph structure) triple repeats, and no
  graph structure or formula text is used twice in a run, so no request
  finds a cache entry that another request inserted.
* ``batch_shared_plan`` — per round, one ``batch`` for each of two
  connections; both ask the same few fresh oracle-heavy instances several
  times, mixed with re-asks of a small working set warmed before timing.
* ``sweep_drive_ops`` — a fixed cycle of shard-driver specs: a Section 7
  lower-bound simulation and two no-instance sweeps with many adversarial
  trials, where the ground truth is trivial and the engines do the work.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import Any, Dict, Iterator, List, Optional, Tuple

import networkx as nx

from repro.graphs.generators import build_graph_spec

#: Wire deadline of one certify request, one batch and one driven shard.
CERTIFY_DEADLINE_S = 30.0
BATCH_DEADLINE_S = 90.0
SHARD_DEADLINE_S = 90.0

#: The catalogue schemes and the formula route the oracle metrics are split by.
LABELS = (
    "treedepth",
    "cycle-minor-free",
    "mso-treedepth",
    "treewidth",
    "path-minor-free",
    "tree",
    "bipartite",
    "formula",
)

#: Theorem 2.6 treedepth-route sentences, with the networkx check each one
#: states.  ``{i}`` is replaced by a per-request suffix so that no two
#: requests share a formula-compilation cache key.
FORMULAS = {
    "dominating-vertex": "exists x{i}. forall y{i}. (x{i} = y{i} | x{i} ~ y{i})",
    "dominating-pair": (
        "exists x{i}. exists y{i}. forall z{i}. "
        "(z{i} = x{i} | z{i} = y{i} | z{i} ~ x{i} | z{i} ~ y{i})"
    ),
    "triangle": "exists x{i}. exists y{i}. exists z{i}. (x{i} ~ y{i} & y{i} ~ z{i} & x{i} ~ z{i})",
    "diameter-2": (
        "forall x{i}. forall y{i}. (x{i} = y{i} | x{i} ~ y{i} | "
        "exists z{i}. (x{i} ~ z{i} & z{i} ~ y{i}))"
    ),
}


# -- independent answers -------------------------------------------------------


def has_dominating_vertex(graph: nx.Graph) -> bool:
    n = graph.number_of_nodes()
    return any(degree == n - 1 for _, degree in graph.degree())


def has_dominating_pair(graph: nx.Graph) -> bool:
    everything = set(graph.nodes())
    closed = {v: set(graph[v]) | {v} for v in graph.nodes()}
    return any(
        closed[x] | closed[y] == everything
        for x, y in itertools.combinations_with_replacement(graph.nodes(), 2)
    )


def has_triangle(graph: nx.Graph) -> bool:
    return any(count > 0 for count in nx.triangles(graph).values())


def diameter_at_most_two(graph: nx.Graph) -> bool:
    return nx.is_connected(graph) and nx.diameter(graph) <= 2


#: What each sentence (catalogue name or formula template) says, by networkx.
SENTENCE_CHECKS = {
    "has-dominating-vertex": has_dominating_vertex,
    "has-triangle": has_triangle,
    "triangle-free": lambda graph: not has_triangle(graph),
    "diameter-at-most-2": diameter_at_most_two,
    "dominating-vertex": has_dominating_vertex,
    "dominating-pair": has_dominating_pair,
    "triangle": has_triangle,
    "diameter-2": diameter_at_most_two,
}


def tree_treedepth_upper(n: int) -> int:
    """A tree on n vertices has treedepth at most floor(log2 n) + 1 (centroids)."""
    return n.bit_length()


def path_treedepth(vertices: int) -> int:
    """The path on ``vertices`` vertices has treedepth ceil(log2(vertices + 1))."""
    return (vertices).bit_length()


def tree_longest_path_vertices(graph: nx.Graph) -> int:
    """Vertices on a longest path of a tree: its diameter plus one."""
    return nx.diameter(graph) + 1 if graph.number_of_nodes() > 1 else 1


def has_cycle_of_length_at_least(graph: nx.Graph, t: int) -> bool:
    """A C_t minor exists iff some cycle has at least t vertices."""
    return any(len(cycle) >= t for cycle in nx.simple_cycles(graph))


def fingerprint(graph: nx.Graph) -> Tuple[int, frozenset]:
    """Exact labelled structure: the key every graph-keyed cache uses."""
    return (
        graph.number_of_nodes(),
        frozenset(frozenset(edge) for edge in graph.edges()),
    )


# -- instances -------------------------------------------------------------------


class Instance:
    """One certify question plus the verdict it must produce."""

    __slots__ = ("label", "scheme", "formula", "params", "graph", "seed", "expect", "key")

    def __init__(
        self,
        label: str,
        params: Dict[str, Any],
        graph: str,
        seed: int,
        expect: bool,
        structure: Tuple[int, frozenset],
        scheme: Optional[str] = None,
        formula: Optional[str] = None,
    ) -> None:
        self.label = label
        self.scheme = scheme
        self.formula = formula
        self.params = params
        self.graph = graph
        self.seed = seed
        self.expect = expect
        # The holds-cache identity: scheme (or formula text) + params + structure.
        self.key = (
            scheme or formula,
            json.dumps(params, sort_keys=True),
            structure,
        )

    @property
    def family(self) -> str:
        return self.graph.partition(":")[0]

    @property
    def size(self) -> int:
        return int(self.graph.partition(":")[2])

    def request(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "op": "certify",
            "graph": self.graph,
            "params": self.params,
            "seed": self.seed,
            "deadline_s": CERTIFY_DEADLINE_S,
        }
        if self.formula is not None:
            data["formula"] = self.formula
        else:
            data["scheme"] = self.scheme
        return data


class _Draw:
    """Seeded instance factory that never hands out a graph structure twice."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.structures: set = set()
        self.formula_counter = itertools.count()

    def graph(self, spec: str, fixed: bool = False):
        """A fresh (graph, seed) for ``spec``, or None when it cannot be fresh."""
        for _ in range(1 if fixed else 50):
            seed = self.rng.randrange(1, 2**31)
            graph = build_graph_spec(spec, seed=seed)
            key = fingerprint(graph)
            if key not in self.structures:
                self.structures.add(key)
                return graph, seed, key
        return None

    def formula_text(self, name: str) -> str:
        return FORMULAS[name].format(i=next(self.formula_counter))


def _catalogue(draw: _Draw, scheme: str, params: Dict[str, Any], spec: str, decide, fixed=False):
    built = draw.graph(spec, fixed=fixed)
    if built is None:
        return None
    graph, seed, key = built
    return Instance(scheme, params, spec, seed, bool(decide(graph)), key, scheme=scheme)


def _formula(draw: _Draw, name: str, t: int, spec: str):
    built = draw.graph(spec)
    if built is None:
        return None
    graph, seed, key = built
    text = draw.formula_text(name)
    # td <= t holds by construction for every graph this is called with.
    return Instance(
        "formula", {"t": t}, spec, seed, SENTENCE_CHECKS[name](graph), key, formula=text
    )


# Random-family classes: one fresh instance of each per round.  Each class
# has a fixed size, so its cost varies only with the drawn structure and a
# run's mix costs the same across seeds.


def _treedepth_tree_yes(draw: _Draw):
    n = 14
    return _catalogue(
        draw, "treedepth", {"t": tree_treedepth_upper(n)}, f"random-tree:{n}", lambda g: True
    )


def _treedepth_tree_no(draw: _Draw):
    n = 14
    built = draw.graph(f"random-tree:{n}")
    if built is None:
        return None
    graph, seed, key = built
    # td(G) >= td(longest path) >= 2, so one below that bound is a no-instance.
    t = path_treedepth(tree_longest_path_vertices(graph)) - 1
    return Instance("treedepth", {"t": t}, f"random-tree:{n}", seed, False, key, scheme="treedepth")


def _treedepth_bounded(draw: _Draw):
    return _catalogue(draw, "treedepth", {"t": 4}, "bounded-treedepth:4", lambda g: True)


def _cycle_minor_connected(draw: _Draw):
    t = draw.rng.randint(3, 5)
    return _catalogue(
        draw,
        "cycle-minor-free",
        {"t": t},
        "random-connected:12",
        lambda g: not has_cycle_of_length_at_least(g, t),
    )


def _cycle_minor_tree(draw: _Draw):
    n = 40
    t = draw.rng.randint(3, 6)
    return _catalogue(draw, "cycle-minor-free", {"t": t}, f"random-tree:{n}", lambda g: True)


def _mso_tree(draw: _Draw):
    n = 13
    name = draw.rng.choice(("has-dominating-vertex", "has-triangle", "triangle-free", "diameter-at-most-2"))
    return _catalogue(
        draw,
        "mso-treedepth",
        {"t": tree_treedepth_upper(n), "formula": name},
        f"random-tree:{n}",
        SENTENCE_CHECKS[name],
    )


def _mso_bounded(draw: _Draw):
    name = draw.rng.choice(("has-dominating-vertex", "has-triangle", "triangle-free", "diameter-at-most-2"))
    return _catalogue(
        draw, "mso-treedepth", {"t": 4, "formula": name}, "bounded-treedepth:4", SENTENCE_CHECKS[name]
    )


def _formula_tree(draw: _Draw):
    n = 13
    return _formula(draw, draw.rng.choice(sorted(FORMULAS)), tree_treedepth_upper(n), f"random-tree:{n}")


def _formula_bounded(draw: _Draw):
    return _formula(draw, draw.rng.choice(sorted(FORMULAS)), 4, "bounded-treedepth:4")


def _treewidth_tree(draw: _Draw):
    n = 40
    k = draw.rng.choice((0, 1))
    return _catalogue(draw, "treewidth", {"k": k}, f"random-tree:{n}", lambda g: k >= 1)


def _treewidth_connected(draw: _Draw):
    return _catalogue(draw, "treewidth", {"k": 1}, "random-connected:12", nx.is_forest)


def _path_minor_tree(draw: _Draw):
    n = 12
    t = draw.rng.choice((4, 5))
    return _catalogue(
        draw,
        "path-minor-free",
        {"t": t},
        f"random-tree:{n}",
        lambda g: tree_longest_path_vertices(g) < t,
    )


def _tree(draw: _Draw):
    family = draw.rng.choice(("random-tree", "random-connected"))
    n = 32
    return _catalogue(draw, "tree", {}, f"{family}:{n}", nx.is_tree)


def _bipartite(draw: _Draw):
    family = draw.rng.choice(("random-tree", "random-connected"))
    n = 32
    return _catalogue(draw, "bipartite", {}, f"{family}:{n}", nx.is_bipartite)


RANDOM_CLASSES = (
    _treedepth_tree_yes,
    _treedepth_tree_no,
    _treedepth_bounded,
    _cycle_minor_connected,
    _cycle_minor_tree,
    _mso_tree,
    _mso_bounded,
    _formula_tree,
    _formula_bounded,
    _treewidth_tree,
    _treewidth_connected,
    _path_minor_tree,
    _tree,
    _bipartite,
)


def _structured_pool(draw: _Draw) -> List[Instance]:
    """Every structured-family instance of a run, each graph used once.

    Sizes follow the registry's families and the existing bench suites;
    families are interleaved so each stretch of the stream sees all of them.
    """
    per_family: List[List[Tuple]] = [
        # (scheme, params, spec, decide)
        [
            ("treedepth", {"t": path_treedepth(n) - (n % 2)}, f"path:{n}",
             (lambda n: lambda g: n % 2 == 0)(n))
            for n in range(2, 19)
        ],
        [
            ("treedepth", {"t": 2 - (n % 2)}, f"star:{n}", (lambda n: lambda g: n % 2 == 0)(n))
            for n in range(3, 15)
        ],
        [
            ("cycle-minor-free", {"t": 3 + (links % 4)}, f"triangle-chain:{links}",
             (lambda t: lambda g: not has_cycle_of_length_at_least(g, t))(3 + (links % 4)))
            for links in range(2, 15)
        ],
        [("bipartite", {}, f"cycle:{n}", nx.is_bipartite) for n in range(3, 41)],
        [
            ("treewidth", {"k": 1 + (n % 2)}, f"cycle:{n}", (lambda n: lambda g: n % 2 == 1)(n))
            for n in range(41, 61)
        ],
        [
            ("path-minor-free", {"t": 3 + (i % 2)}, f"star:{n}",
             (lambda t: lambda g: tree_longest_path_vertices(g) < t)(3 + (i % 2)))
            for i, n in enumerate(range(16, 129, 8))
        ],
        [
            ("path-minor-free", {"t": 5}, f"caterpillar:{spine}",
             lambda g: tree_longest_path_vertices(g) < 5)
            for spine in range(1, 7)
        ],
        [("tree", {}, f"grid:{side}", nx.is_tree) for side in range(2, 8)],
        [("bipartite", {}, f"binary-tree:{depth}", nx.is_bipartite) for depth in range(1, 7)],
        [("tree", {}, f"spider:{legs}", nx.is_tree) for legs in range(2, 13)],
    ]
    for entries in per_family:
        draw.rng.shuffle(entries)
    pool: List[Instance] = []
    for row in itertools.zip_longest(*per_family):
        for entry in row:
            if entry is None:
                continue
            scheme, params, spec, decide = entry
            instance = _catalogue(draw, scheme, params, spec, decide, fixed=True)
            if instance is not None:
                pool.append(instance)
    return pool


def certify_cold_rounds(seed: int) -> Iterator[List[Instance]]:
    """Endless rounds of cold certify requests (order shuffled per round).

    Each round holds one fresh instance of every random-family class and the
    next structured-family instance, until the structured pool runs out.
    """
    draw = _Draw(random.Random(f"certify-cold:{seed}"))
    pool = _structured_pool(draw)
    for round_index in itertools.count():
        batch = [make(draw) for make in RANDOM_CLASSES]
        if round_index < len(pool):
            batch.append(pool[round_index])
        batch = [instance for instance in batch if instance is not None]
        draw.rng.shuffle(batch)
        yield batch


# -- batch-shared ----------------------------------------------------------------

#: Working set re-asked every round; decided once before timing.
WORKING_SET_SIZE = 12
#: Fresh oracle-heavy instances per round, each asked ASKS_PER_BATCH times
#: in *each* connection's batch.  The round's fresh asks start together on
#: the service's default pool of 4 threads, so each misses on a key another
#: thread is computing and the duplicate work per round does not depend on
#: thread timing.  Two fresh instances per round (four computations at
#: once) made runs spread up to 0.30 between seeds; one keeps them near 0.1.
FRESH_PER_ROUND = 1
ASKS_PER_BATCH = 1
#: Working-set re-asks per connection per round.
WARM_PER_BATCH = 6
CONNECTIONS = 2

#: Working-set classes whose re-ask (holds cached, prove and verify re-run)
#: is cheap and costs about the same on every draw, so a seed does not
#: change what a warm hit costs.
_WORKING_SET_CLASSES = (
    _treedepth_tree_yes,
    _treedepth_tree_no,
    _treedepth_bounded,
    _formula_tree,
    _formula_bounded,
    _mso_bounded,
    _cycle_minor_connected,
    _treewidth_connected,
    _path_minor_tree,
    _tree,
    _bipartite,
    _tree,
)


def _fresh_heavy(draw: _Draw):
    """A fresh instance whose ground truth is an exact treewidth search.

    Exact treewidth on 12 vertices costs about the same on every random
    connected graph, so a round's work varies with the stampede, not with
    the draw.
    """
    return _catalogue(draw, "treewidth", {"k": 1}, "random-connected:12", nx.is_forest)


class BatchRound:
    """One round of batch-shared: a member list per connection."""

    __slots__ = ("fresh", "batches")
    #: Batch ops mix schemes, so per-scheme splits see them as one label.
    label = "batch"
    family = "-"
    size = 0

    def __init__(self, fresh: List[Instance], batches: List[List[Instance]]) -> None:
        self.fresh = fresh
        self.batches = batches

    def shared_share(self) -> float:
        """Share of the round's requests whose ground truth another in-flight
        request of the round also needs (same holds-cache key)."""
        counts: Dict[Any, int] = {}
        for batch in self.batches:
            for instance in batch:
                counts[instance.key] = counts.get(instance.key, 0) + 1
        members = sum(len(batch) for batch in self.batches)
        shared = sum(count for count in counts.values() if count > 1)
        return shared / members


def batch_shared_plan(seed: int) -> Tuple[List[Instance], Iterator[BatchRound]]:
    """The working set (warmed before timing) and the endless round stream."""
    draw = _Draw(random.Random(f"batch-shared:{seed}"))
    working = [make(draw) for make in _WORKING_SET_CLASSES]
    working = [instance for instance in working if instance is not None][:WORKING_SET_SIZE]

    def rounds() -> Iterator[BatchRound]:
        for _ in itertools.count():
            fresh = [
                instance
                for instance in (_fresh_heavy(draw) for _ in range(FRESH_PER_ROUND))
                if instance is not None
            ]
            batches = []
            for _ in range(CONNECTIONS):
                # Fresh asks lead each batch, so both connections' copies
                # reach the worker pool together and miss on in-flight keys.
                members = [f for _ in range(ASKS_PER_BATCH) for f in fresh]
                members += draw.rng.sample(working, WARM_PER_BATCH)
                batches.append(members)
            yield BatchRound(fresh, batches)

    return working, rounds()


def batch_request(members: List[Instance]) -> Dict[str, Any]:
    requests = []
    for instance in members:
        request = instance.request()
        request.pop("deadline_s")
        requests.append(request)
    return {"op": "batch", "requests": requests, "deadline_s": BATCH_DEADLINE_S}


# -- sweep-drive ------------------------------------------------------------------


class DriveOp:
    """One shard-driver run: an experiment spec and the per-point truth."""

    __slots__ = ("label", "spec", "expect_points")

    def __init__(self, label: str, spec: Dict[str, Any], expect_points: int) -> None:
        self.label = label
        self.spec = spec
        self.expect_points = expect_points

    @property
    def family(self) -> str:
        return self.spec.get("family", self.spec.get("construction"))

    size = 0


#: Adversarial trials per no-instance grid point.
SWEEP_TRIALS = 3000


def sweep_drive_ops(seed: int) -> Iterator[DriveOp]:
    """An endless fixed cycle of drives, each with its own derived seed.

    Sweeps ask only no-instances whose truth is known by construction (odd
    cycles are not bipartite, cycles are not trees), so ``holds`` is trivial
    and each point's work is the adversarial-trial verification.  The
    lower-bound drive simulates the Theorem 2.3 protocol, whose dichotomy
    and protocol checks must both hold.
    """
    rng = random.Random(f"sweep-drive:{seed}")
    cycle = (
        ("lower-bound", lambda s: {
            "kind": "lower-bound", "construction": "automorphism", "sizes": [2, 3, 2, 3],
            "simulate": True, "max_side_bits": 16, "seed": s,
        }),
        ("bipartite", lambda s: {
            "kind": "sweep", "scheme": "bipartite", "family": "cycle",
            "sizes": [9, 15, 21, 27], "trials": SWEEP_TRIALS, "seed": s,
        }),
        ("tree", lambda s: {
            "kind": "sweep", "scheme": "tree", "family": "cycle",
            "sizes": [8, 12, 16, 20], "trials": SWEEP_TRIALS, "seed": s,
        }),
    )
    while True:
        for label, make in cycle:
            spec = make(rng.randrange(1, 2**31))
            yield DriveOp(label, spec, len(spec["sizes"]))


def drive_point_ok(op: DriveOp, point: Dict[str, Any]) -> bool:
    """The independent verdict on one merged grid point."""
    if op.label == "lower-bound":
        # Theorem 2.3: the gadget dichotomy holds and the 1-bit protocol fails.
        return point.get("dichotomy_ok") is True and point.get("protocol_ok") is True
    if op.label == "bipartite":
        expect = point.get("n", 0) % 2 == 0
    else:
        expect = False  # a cycle is never a tree
    if point.get("holds") is not expect:
        return False
    return point.get("soundness_ok") is True if not expect else point.get("completeness_ok") is True
