"""Seeded inputs, timed operations and their oracles, per workload.

Every operation starts from JSON text or an instance file and ends with
an answer; the part that is timed is `Op.run`.  `Op.prepare` (writing the
input file) and `Op.check` (the oracle) run outside the timed region and
with tracing off.  Every expected answer comes from how the input was
built, not from the code under test:

* a finite-order map is recurrent with identity power equal to the lcm
  of the cycle lengths of the vertex permutation written into its file;
* a folding map is negative, and its collapsing pair is re-checked by
  evaluating both points;
* a rotation with N arms has identity power N, the identity on a star 1,
  an interval involution 2; the centre of a bare star with k edges is a
  branch point of order k;
* a hull answer must lie in the hull and return after n steps;
* a CLI report must match the exit code and sha256 in ``golden.json``,
  recorded once from the program and required to stay byte-identical.

Every pass draws fresh inputs: the suite draws new seeds, and the ladder
and analysis instances have every edge length multiplied by a seeded
rational.  That rescaling changes no verdict and no CLI report, so the
oracles hold on every pass, while a memo shared across calls never sees
the same input twice.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import dendrodyn as dd
from dendrodyn import cli, fixtures
from dendrodyn import io as dio

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


@dataclass
class Op:
    """One timed operation and the oracle for its answer.

    `family` and `rung` place the op on a size ladder: `rung` is None for
    ops off the ladder, otherwise a key whose largest value is the
    family's top rung; `size` is the x value of the scaling fit.
    """

    label: str
    family: str
    rung: object
    size: float
    run: Callable[[], object]
    check: Callable[[object], str | None]
    prepare: Callable[[], None] = lambda: None


def _dump(obj: dict) -> str:
    """The program's own file layout (see `dendrodyn.io.dump_instance`)."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def rescaled(obj: dict, factor: Fraction) -> dict:
    """A copy of an instance with every edge length multiplied by `factor`."""
    out = dict(obj)
    out["edges"] = [
        {**e, "length": dio.fraction_to_str(Fraction(e["length"]) * factor)}
        for e in obj["edges"]
    ]
    return out


def pass_factor(rng: random.Random) -> Fraction:
    """A small rational other than 1, so no pass repeats an earlier input."""
    while True:
        q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if q != 1:
            return q


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _remove(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def _run_cli(argv: list) -> tuple:
    """cli.main with its stderr kept; the exit code is the answer."""
    err = stdio.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


# -- generators ----------------------------------------------------------------


def star_json(k: int) -> dict:
    """`star_dendrite(k)` written directly as JSON, without building a tree.

    Building the quadratic tables of an 800-vertex tree would set the
    process's peak RSS before the first timed op.
    """
    verts = ["s", "c"] + [f"l{j}" for j in range(2, k + 1)]
    edges = [{"ends": ["s", "c"], "id": "stem", "length": "1/1"}]
    edges += [
        {"ends": ["c", f"l{j}"], "id": f"arm{j}", "length": f"1/{j}"}
        for j in range(2, k + 1)
    ]
    # ids in the order `dendrodyn.io.tree_to_json` writes them
    return {"edges": sorted(edges, key=lambda e: e["id"]), "vertices": sorted(verts)}


def involution(k: int, rng: random.Random):
    """The unit interval with breakpoints 0 = t_0 < ... < t_k = 1, where
    t_i maps to t_{k-i}; linear in between, so f^2 = id.

    The gaps t_{i+1} - t_i are a seeded permutation of 1..k over k(k+1)/2:
    unequal, with the same denominators for every seed.  Adjacent pieces
    get different slopes, so `normalize` cannot merge them.
    """
    while True:
        gaps = rng.sample(range(1, k + 1), k)
        # piece i has slope -gaps[k-1-i] / gaps[i]
        if all(gaps[k - 1 - i] * gaps[i + 1] != gaps[k - 2 - i] * gaps[i] for i in range(k - 1)):
            break
    total = k * (k + 1) // 2
    ts = [Fraction(sum(gaps[:i]), total) for i in range(k + 1)]
    tree = dd.MetricTree(["v0", "v1"], [("e", ("v0", "v1"), 1)])

    def point(t):
        if t == 0:
            return tree.vertex_point("v0")
        if t == 1:
            return tree.vertex_point("v1")
        return tree.edge_point("e", t)

    return tree, dd.PLTreeMap(tree, {"e": [(ts[i], point(ts[k - i])) for i in range(k + 1)]})


def _random_point(rng: random.Random, tree):
    if rng.random() < 0.4:
        return tree.vertex_point(rng.choice(tree.vertex_ids))
    return tree.edge_point(rng.choice(tree.edge_ids), Fraction(rng.randint(1, 9), 10))


def _random_pl_map(rng: random.Random, n_vertices: int):
    """A random tree and a random PL self-map, as in acceptance criterion 4."""
    verts = [f"n{i}" for i in range(n_vertices)]
    edges = []
    for i in range(1, n_vertices):
        length = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        edges.append((f"e{i}", (verts[rng.randrange(i)], verts[i]), length))
    tree = dd.MetricTree(verts, edges)
    vimg = {v: _random_point(rng, tree) for v in tree.vertex_ids}
    table = {}
    for eid in tree.edge_ids:
        u, w = tree.edge_ends(eid)
        inner = sorted(rng.sample([Fraction(j, 8) for j in range(1, 8)], rng.randint(0, 2)))
        table[eid] = (
            [(Fraction(0), vimg[u])]
            + [(t, _random_point(rng, tree)) for t in inner]
            + [(Fraction(1), vimg[w])]
        )
    return tree, dd.PLTreeMap(tree, table)


def covering_hull_instance(rng: random.Random, n: int, pool_size: int = 8, draws: int = 24):
    """(instance text, point objects) with hull(f^n(P)) containing hull(P).

    Most random point sets do not cover, so each map gets a pool of
    candidate points whose n-th images are computed once, and subsets of
    one to three of them are drawn from the pool until one covers.  A hull
    contains hull(P) exactly when it contains every point of P, and the
    hull of A is the union of the arcs from A[0] to the other points.
    """
    while True:
        tree, f = _random_pl_map(rng, rng.randint(3, 7))
        pool = [_random_point(rng, tree) for _ in range(pool_size)]
        advanced = []
        for p in pool:
            for _ in range(n):
                p = f.evaluate(p)
            advanced.append(p)

        dist = {}

        def d(a, b):  # distance between pool[a] (or advanced[a - pool_size]) and b
            if (a, b) not in dist:
                pa, pb = ((pool + advanced)[i] for i in (a, b))
                dist[a, b] = dist[b, a] = tree.distance(pa, pb)
            return dist[a, b]

        def in_cover(i, pick):
            a = pool_size + pick[0]
            return any(d(a, i) + d(i, pool_size + j) == d(a, pool_size + j) for j in pick)

        for _ in range(draws):
            pick = rng.sample(range(pool_size), rng.randint(1, 3))
            if all(in_cover(i, pick) for i in pick):
                points = [dio.point_to_json(pool[i]) for i in pick]
                return dio.dump_instance(tree, f), points


def permutation_order(vertex_images: dict) -> int:
    """lcm of the cycle lengths of a vertex permutation given as JSON points."""
    images = {}
    for v, p in vertex_images.items():
        if "vertex" not in p:
            raise ValueError(f"vertex {v!r} maps to an edge point")
        images[v] = p["vertex"]
    if sorted(images.values()) != sorted(images):
        raise ValueError("the vertex images are not a permutation")
    order, seen = 1, set()
    for v in images:
        length, w = 0, v
        while w not in seen:
            seen.add(w)
            w = images[w]
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


# -- oracles -------------------------------------------------------------------


def expect_recurrent(power: int):
    def check(answer):
        _f, v = answer
        if not v.pointwise_recurrent:
            return f"expected recurrent with power {power}, got {v.reason}"
        if v.identity_power != power:
            return f"expected identity power {power}, got {v.identity_power}"
        return None

    return check


def check_folding(answer):
    f, v = answer
    if v.pointwise_recurrent:
        return "a folding map was judged recurrent"
    w = v.witness
    if w is None or w.kind != "non-injective" or len(w.points) != 2:
        return f"expected a non-injective witness, got {w!r}"
    a, b = w.points
    if a == b or f.evaluate(a) != f.evaluate(b):
        return f"the witness pair {a!r}, {b!r} does not collapse"
    return None


def _param_on_edge(p, eid, ends):
    if p.is_vertex:
        return {ends[0]: Fraction(0), ends[1]: Fraction(1)}.get(p.vertex)
    return p.t if p.edge == eid else None


def fixes_a_point_of(g, hull) -> bool:
    """Whether the map g fixes some point of the subtree `hull`.

    Solved exactly piece by piece, as in the acceptance gate's oracle for
    criterion 4, independently of `fixed_point_set` and the hull solver.
    """
    tree = g.domain
    for v in hull.vertices:
        if g.evaluate(tree.vertex_point(v)) == tree.vertex_point(v):
            return True
    for eid, intervals in hull.segments.items():
        ends = tree.edge_ends(eid)
        edge = dd.Subtree.build(tree, [(eid, Fraction(0), Fraction(1))], list(ends))

        def inside(lo, hi):
            return any(max(lo, a) <= min(hi, b) for a, b in intervals)

        bps = g.breakpoints(eid)
        for (t0, p0), (t1, p1) in zip(bps, bps[1:]):
            if p0 == p1:
                tau = _param_on_edge(p0, eid, ends)
                if tau is not None and t0 <= tau <= t1 and inside(tau, tau):
                    return True
                continue
            arc = tree.arc(p0, p1)
            for s1, s2 in edge.intersect_arc(arc):
                a1 = _param_on_edge(arc.point_at(s1), eid, ends)
                a2 = _param_on_edge(arc.point_at(s2), eid, ends)
                ta = t0 + (t1 - t0) * s1 / arc.length
                tb = t0 + (t1 - t0) * s2 / arc.length
                if ta == tb:
                    if a1 == ta and inside(ta, ta):
                        return True
                    continue
                slope = (a2 - a1) / (tb - ta)
                if slope == 1:
                    if a1 == ta and inside(ta, tb):
                        return True
                    continue
                t_star = (a1 - slope * ta) / (1 - slope)
                if ta <= t_star <= tb and inside(t_star, t_star):
                    return True
    return False


def check_hull(answer):
    """x in the hull with f^n(x) = x; or, when the solver reports that there
    is none (covering does not guarantee one), a check that there is none."""
    tree, f, points, n, x = answer
    hull = tree.connected_hull(points)
    if x is None:
        return "the solver found no point, but one exists" if fixes_a_point_of(f.iterate(n), hull) else None
    if not hull.contains(x):
        return f"{x!r} is outside the hull"
    y = x
    for _ in range(n):
        y = f.evaluate(y)
    if y != x:
        return f"{x!r} does not return after {n} steps"
    return None


def expect_report(out_path: str, code: int, digest: str | None):
    """The exit code and the sha256 of the JSON report (None: no report)."""

    def check(answer):
        got_code, _stderr = answer
        got = None
        if os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                got = hashlib.sha256(fh.read()).hexdigest()
        if got_code != code:
            return f"exit code {got_code}, expected {code}"
        if got != digest:
            return f"report sha256 {got}, expected {digest}"
        return None

    return check


# -- suite ---------------------------------------------------------------------

# one pass, in shuffled order: 40% finite-order, 40% folding, 20% hull with
# n = 1, 2, 3 equally often; fixed counts keep the mix the same in every run
SUITE_PASS = {"finite_order": 24, "folding": 24, 1: 4, 2: 4, 3: 4}


def _suite_rung(n_vertices: int) -> int:
    return 0 if n_vertices <= 4 else 1 if n_vertices <= 7 else 2


def _decide_op(label: str, family: str, text: str, check, rung, size) -> Op:
    def run():
        _tree, f = dd.load_instance(text)
        return f, dd.decide_pointwise_recurrent(f)

    return Op(label, family, rung, size, run, check)


def finite_order_op(rng: random.Random) -> Op:
    """A finite-order map; trees with fewer than three vertices are redrawn,
    since the generator returns a bare point almost half the time."""
    while True:
        tree, f = fixtures.random_finite_order_map(rng.randrange(2**31), rng.randrange(2**31))
        if len(tree.vertex_ids) >= 3:
            break
    obj = dio.map_to_json(f)
    size = len(tree.vertex_ids)
    check = expect_recurrent(permutation_order(obj["vertex_images"]))
    return _decide_op("finite_order", "finite_order", _dump(obj), check, _suite_rung(size), size)


def folding_op(rng: random.Random) -> Op:
    tree, f = fixtures.random_folding_map(rng.randrange(2**31))
    size = len(tree.vertex_ids)
    text = dio.dump_instance(tree, f)
    return _decide_op("folding", "folding", text, check_folding, _suite_rung(size), size)


# how find_periodic_in_hull reports that f^n fixes no point of the hull
NO_POINT = "no fixed point of the n-th iterate in the hull"


def hull_op(rng: random.Random, n: int) -> Op:
    text, points = covering_hull_instance(rng, n)
    size = len(json.loads(text)["vertices"])

    def run():
        tree, f = dd.load_instance(text)
        pts = [dio.point_from_json(p, tree) for p in points]
        try:
            x = dd.find_periodic_in_hull(f, pts, n)
        except dd.ConsistencyError as exc:
            if str(exc) != NO_POINT:
                raise
            x = None
        return tree, f, pts, n, x

    return Op("hull", "hull", _suite_rung(size), size, run, check_hull)


# Each workload's `pass_s` is the time of one pass at reference speed (see
# run.py) on the commit that defined the benchmark.  A run does the number
# of passes that took --seconds then, so both sides of a comparison do the
# same work and draw the same op-time percentiles.


class Suite:
    name = "suite"
    pass_s = 0.128

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def pass_ops(self, key: str) -> list:
        """Fresh seeds on every pass."""
        rng = random.Random(f"suite:{self.seed}:{key}")
        kinds = [kind for kind, count in SUITE_PASS.items() for _ in range(count)]
        rng.shuffle(kinds)
        makers = {"finite_order": finite_order_op, "folding": folding_op}
        return [makers[k](rng) if k in makers else hull_op(rng, k) for k in kinds]

    def warmup_ops(self) -> list:
        rng = random.Random(f"suite:{self.seed}:warmup")
        return [finite_order_op(rng), folding_op(rng)] + [hull_op(rng, n) for n in (1, 2, 3)]


# -- ladder --------------------------------------------------------------------

LADDER_SIZES = {
    "rotation": (25, 50, 100, 200),
    "star_identity": (25, 50, 100, 200),
    "involution": (25, 50, 100, 200),
    "star_classify": (100, 200, 400, 800),
}


class Ladder:
    """Four families at growing size; the quadratic tree tables and the
    pairwise injectivity test dominate here."""

    name = "ladder"
    pass_s = 5.05

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        rng = random.Random(f"ladder:{seed}")
        self.base = {}
        for n in LADDER_SIZES["rotation"]:
            _tree, f = fixtures.rotation_star(n)
            self.base["rotation", n] = (dio.map_to_json(f), n)
        for k in LADDER_SIZES["star_identity"]:
            tree = fixtures.star_dendrite(k)
            self.base["star_identity", k] = (dio.map_to_json(dd.identity_map(tree)), 1)
        for k in LADDER_SIZES["involution"]:
            _tree, f = involution(k, rng)
            self.base["involution", k] = (dio.map_to_json(f), 2)
        for k in LADDER_SIZES["star_classify"]:
            self.base["star_classify", k] = (star_json(k), k)

    def _op(self, family: str, size: int, factor: Fraction) -> Op:
        obj, expected = self.base[family, size]
        obj = rescaled(obj, factor)
        label = f"{family}-{size}"
        if family != "star_classify":
            check = expect_recurrent(expected)
            return _decide_op(label, family, _dump(obj), check, size, size)
        path = os.path.join(self.workdir, f"{label}.json")
        out = os.path.join(self.workdir, f"{label}.out.json")
        argv = ["classify", path, "--point", "c", "--format", "json", "-o", out]
        want = {
            "class": "branchpoint",
            "command": "classify",
            "eventual_period": None,
            "order": expected,
            "period": None,
            "point": {"vertex": "c"},
            "preperiod": None,
        }

        def prepare():
            _write(path, _dump(obj))
            _remove(out)

        def check(answer):
            code, stderr = answer
            if code != 0:
                return f"classify exited {code}: {stderr.strip()}"
            with open(out, encoding="utf-8") as fh:
                got = json.load(fh)
            return None if got == want else f"classify report {got}"

        return Op(label, family, size, size, lambda: _run_cli(argv), check, prepare)

    def pass_ops(self, key: str) -> list:
        factor = pass_factor(random.Random(f"ladder:{self.seed}:{key}"))
        # rung by rung across families, smallest first
        return [
            self._op(family, sizes[i], factor)
            for i in range(4)
            for family, sizes in LADDER_SIZES.items()
        ]

    def warmup_ops(self) -> list:
        return self.pass_ops("warmup")[:4]


# -- analysis ------------------------------------------------------------------

ANALYSIS_COMMANDS = ("recurrence", "analyze", "odometer", "verify")


def analysis_instances() -> dict:
    """name -> (tree, map); the towers form the ladder of this workload."""
    return {
        "tower-2-4-8": fixtures.odometer_tower(3, (2, 4, 8)),
        "tower-3-6-12": fixtures.odometer_tower(3, (3, 6, 12)),
        "tower-2-4-8-16": fixtures.odometer_tower(4, (2, 4, 8, 16)),
        "tower-2-4-8-16-32": fixtures.odometer_tower(5, (2, 4, 8, 16, 32)),
        "rotation-6": fixtures.rotation_star(6),
        "stem-collapse-5": fixtures.stem_collapse_map(5),
        "stem-sweep-3": fixtures.stem_sweep_map(3),
        "tent": fixtures.shift_and_tent()["tent"],
    }


class Analysis:
    """Every CLI analysis command on towers and on the negative fixtures."""

    name = "analysis"
    pass_s = 2.34

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            self.golden = json.load(fh)
        self.base = {}
        for name, (tree, f) in analysis_instances().items():
            self.base[name] = (dio.map_to_json(f), len(tree.vertex_ids))

    def _ops(self, name: str, factor: Fraction) -> list:
        obj, n_vertices = self.base[name]
        path = os.path.join(self.workdir, f"{name}.json")
        text = _dump(rescaled(obj, factor))
        rung = n_vertices if name.startswith("tower") else None
        ops = []
        for i, cmd in enumerate(ANALYSIS_COMMANDS):
            out = os.path.join(self.workdir, f"{name}.{cmd}.out.json")
            code, digest = self.golden[f"{name} {cmd}"]
            argv = [cmd, path, "--format", "json", "-o", out]

            def prepare(out=out, first=i == 0):
                if first:  # the four commands read one file
                    _write(path, text)
                _remove(out)

            run = lambda argv=argv: _run_cli(argv)  # noqa: E731
            check = expect_report(out, code, digest)
            ops.append(Op(f"{cmd}:{name}", cmd, rung, n_vertices, run, check, prepare))
        return ops

    def pass_ops(self, key: str) -> list:
        factor = pass_factor(random.Random(f"analysis:{self.seed}:{key}"))
        return [op for name in self.base for op in self._ops(name, factor)]

    def warmup_ops(self) -> list:
        return self._ops("tent", Fraction(1)) + self._ops("rotation-6", Fraction(1))


WORKLOADS = {cls.name: cls for cls in (Suite, Ladder, Analysis)}
