"""Ready-made trees and maps: canonical examples and seeded generators.

The named constructors give the small instances every discussion keeps
coming back to: interval maps with known verdicts, rotating stars, a
star with a collapsing stem whose fixed set creeps arbitrarily close to
the branch vertex, a stem that sweeps across every arm so the second
iterate tears, and nested towers that realize adding-machine cycles at
finite depth.  The seeded generators produce unlimited positive
instances (finite-order automorphisms) and negative ones (maps with a
forced fold), deterministically per seed.

Infinite constructions are truncated, never imitated: each truncation
parameter k comes with a quantitative statement of what the finite
instance shows, e.g. fixed points within 1/(2k) of a non-fixed vertex,
or a definite second-iterate spread inside a small ball.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import PreconditionError, StructureError
from .odometer import OdometerType
from .plmap import PLTreeMap, identity_map, map_from_vertex_images
from .tree import MetricTree, TreePoint


def interval_tree() -> MetricTree:
    return MetricTree(["v0", "v1"], [("e", ("v0", "v1"), 1)])


def _interval_point(tree: MetricTree, t) -> TreePoint:
    t = Fraction(t)
    if t == 0:
        return tree.vertex_point("v0")
    if t == 1:
        return tree.vertex_point("v1")
    return tree.edge_point("e", t)


def interval_flip():
    """x maps to 1 - x; the square is the identity."""
    tree = interval_tree()
    f = PLTreeMap(
        tree, {"e": [(0, _interval_point(tree, 1)), (1, _interval_point(tree, 0))]}
    )
    return tree, f


def shift_and_tent():
    """The two canonical negative instances on the unit interval.

    The shift x -> (x+1)/2 slides everything toward 1 and misses half
    the interval; the tent folds the interval over itself.
    """
    out = {}
    tree = interval_tree()
    shift = PLTreeMap(
        tree,
        {"e": [(0, _interval_point(tree, Fraction(1, 2))), (1, _interval_point(tree, 1))]},
    )
    out["shift"] = (tree, shift)
    tree2 = interval_tree()
    tent = PLTreeMap(
        tree2,
        {
            "e": [
                (0, _interval_point(tree2, 0)),
                (Fraction(1, 2), _interval_point(tree2, 1)),
                (1, _interval_point(tree2, 0)),
            ]
        },
    )
    out["tent"] = (tree2, tent)
    return out


def rotation_star(arms: int, arm_length=1):
    """Star whose arms advance cyclically by one; recurrent with N = arms."""
    if arms < 2:
        raise PreconditionError("a rotation needs at least two arms")
    length = Fraction(arm_length)
    verts = ["c"] + [f"l{i}" for i in range(arms)]
    edges = [(f"a{i}", ("c", f"l{i}"), length) for i in range(arms)]
    tree = MetricTree(verts, edges)
    images = {"c": tree.vertex_point("c")}
    for i in range(arms):
        images[f"l{i}"] = tree.vertex_point(f"l{(i + 1) % arms}")
    return tree, map_from_vertex_images(tree, images)


# -- the collapsing-stem star ---------------------------------------------------


def star_dendrite(k: int) -> MetricTree:
    """Unit stem plus arms of lengths 1/2 ... 1/k at a common branch vertex."""
    if k < 2:
        raise PreconditionError("the star needs at least the length-1/2 arm")
    verts = ["s", "c"] + [f"l{j}" for j in range(2, k + 1)]
    edges = [("stem", ("s", "c"), 1)]
    for j in range(2, k + 1):
        edges.append((f"arm{j}", ("c", f"l{j}"), Fraction(1, j)))
    return MetricTree(verts, edges)


def stem_collapse_map(k: int):
    """Stem collapses to its far endpoint; outer arm halves stand still.

    Each inner arm half stretches over the stem, so the only fixed
    points are the far endpoint and the outer halves.  The fixed set
    misses the branch vertex but reaches within 1/(2k) of it, and that
    gap shrinks as the truncation grows.
    """
    tree = star_dendrite(k)
    s = tree.vertex_point("s")
    c = tree.vertex_point("c")
    table = {"stem": [(0, s), (1, s)]}
    for j in range(2, k + 1):
        mid = tree.edge_point(f"arm{j}", Fraction(1, 2))
        tip = tree.vertex_point(f"l{j}")
        table[f"arm{j}"] = [
            (0, s),
            (Fraction(j, 2 * j + 1), c),
            (Fraction(1, 2), mid),
            (1, tip),
        ]
    return tree, PLTreeMap(tree, table)


def stem_sweep_map(k: int):
    """The stem sweeps out over every arm; arms behave as in the collapse map.

    The stem is cut at heights 1/2, 1/4, ..., 1/2^k above its far
    endpoint; the top segment maps over the whole stem and each lower
    segment sweeps out and back across one arm, deeper segments
    reaching further-indexed arms.  Every edge restriction is plain PL;
    the tear only shows in the second iterate, which `stem_sweep_spread`
    quantifies.
    """
    if k < 2:
        raise PreconditionError("the sweep needs at least two stem segments")
    tree = star_dendrite(k + 1)
    s = tree.vertex_point("s")
    c = tree.vertex_point("c")
    # stem parameterized from s (t = 0) to c (t = 1); the cut at height
    # 1/2^m sits at t = 1/2^m.  Below the deepest cut the map is constant
    # at the branch vertex (the truncated remainder of the sweep); the
    # segment between heights 1/2^(m+1) and 1/2^m goes out and back over
    # arm m+1; the top half maps over the whole stem, reversed.
    bps = [(Fraction(0), c), (Fraction(1, 2 ** (k + 1)), c)]
    for m in range(k, 0, -1):
        lo = Fraction(1, 2 ** (m + 1))
        hi = Fraction(1, 2**m)
        bps.append(((lo + hi) / 2, tree.vertex_point(f"l{m + 1}")))
        bps.append((hi, c))
    bps.append((Fraction(1), s))
    table = {"stem": bps}
    for j in range(2, k + 2):
        mid = tree.edge_point(f"arm{j}", Fraction(1, 2))
        tip = tree.vertex_point(f"l{j}")
        table[f"arm{j}"] = [
            (0, s),
            (Fraction(j, 2 * j + 1), c),
            (Fraction(1, 2), mid),
            (1, tip),
        ]
    return tree, PLTreeMap(tree, table)


def stem_sweep_spread(k: int, radius=None) -> Fraction:
    """Diameter of the second-iterate image of the stem piece within
    `radius` of the far endpoint (default: the deepest cut height)."""
    tree, f = stem_sweep_map(k)
    radius = Fraction(1, 2**k) if radius is None else Fraction(radius)
    if not 0 < radius <= 1:
        raise PreconditionError("radius must lie in (0, 1]")
    ball = tree.arc(tree.vertex_point("s"), tree.edge_point("stem", radius))
    once = f.image_of_arc(ball)
    twice = f.image_of_subtree(once)
    corners = twice.corner_points()
    return max(
        (tree.distance(a, b) for a in corners for b in corners),
        default=Fraction(0),
    )


# -- odometer towers -------------------------------------------------------------


def odometer_tower(depth: int, periods):
    """Nested branch cycles realizing an adding machine truncation.

    Level-i vertices are permuted with period `periods[i-1]`; a
    pointwise-fixed stem hangs at the root so every attachment vertex,
    the root included, is a branch vertex.  Edge names carry zero-padded
    construction indices, so the default root convention in cycle
    detection reproduces the construction order.
    """
    if isinstance(periods, OdometerType):
        otype = periods
    else:
        try:
            otype = OdometerType(tuple(periods))
        except StructureError as exc:
            raise PreconditionError(str(exc)) from None
    if otype.depth != depth:
        raise PreconditionError(
            f"depth {depth} needs exactly {depth} periods, got {otype.depth}"
        )
    ms = otype.periods

    verts = ["r", "s"]
    edges = [("stem", ("r", "s"), 1)]
    images = {"r": "r", "s": "s"}
    width = len(str(ms[-1] - 1))
    prev = {0: "r"}  # index -> vertex name at the previous level
    prev_m = 1
    for i, m in enumerate(ms, start=1):
        cur = {}
        for j in range(m):
            name = f"n{i}_{j:0{width}d}"
            cur[j] = name
            verts.append(name)
            edges.append((f"e{i}_{j:0{width}d}", (prev[j % prev_m], name), Fraction(1, 2**i)))
            images[name] = f"n{i}_{(j + 1) % m:0{width}d}"
        prev, prev_m = cur, m
    tree = MetricTree(verts, edges)
    point_images = {v: tree.vertex_point(images[v]) for v in verts}
    return tree, map_from_vertex_images(tree, point_images)


# -- seeded generators -----------------------------------------------------------


def _grow_pattern(rng: random.Random, budget: int):
    """A recursive shape: tuple of (copies, edge length, child pattern).

    All copies within a group are congruent, so any rotation of the
    group extends to an isometry.  Returns (vertex count, pattern).
    """
    if budget <= 1 or rng.random() < 0.35:
        return 1, ()
    size = 1
    remaining = budget - 1
    groups = []
    while remaining > 0 and len(groups) < 3 and rng.random() < 0.85:
        copies = rng.choice([1, 1, 2, 2, 2, 3, 4])
        if copies > remaining:
            copies = remaining
        child_budget = rng.randint(1, max(1, remaining // copies))
        child_size, child = _grow_pattern(rng, child_budget)
        if copies * child_size > remaining:
            break
        length = Fraction(rng.randint(1, 6), rng.choice([1, 2, 3, 4]))
        groups.append((copies, length, child))
        size += copies * child_size
        remaining -= copies * child_size
    return size, tuple(groups)


def _realize_pattern(pattern, prefix: str, verts, edges):
    for g, (copies, length, child) in enumerate(pattern):
        for t in range(copies):
            name = f"{prefix}.{g}c{t}"
            verts.append(name)
            edges.append((f"E{name}", (prefix, name), length))
            _realize_pattern(child, name, verts, edges)


def _rotate_pattern(pattern, src_prefix, dst_prefix, path, shift_of, images):
    for g, (copies, _length, child) in enumerate(pattern):
        shift = shift_of(path + (g,), copies)
        for t in range(copies):
            src = f"{src_prefix}.{g}c{t}"
            dst = f"{dst_prefix}.{g}c{(t + shift) % copies}"
            images[src] = dst
            _rotate_pattern(child, src, dst, path + (g,), shift_of, images)


def random_finite_order_map(tree_seed: int, order_seed: int):
    """A random tree with a random isometric automorphism.

    The tree is built from congruent sibling groups; the map rotates
    each group by a seeded amount, so it permutes the vertices and is an
    isometry on every edge.  Always pointwise recurrent.
    """
    tree_rng = random.Random(tree_seed)
    _, pattern = _grow_pattern(tree_rng, tree_rng.randint(4, 12))
    verts = ["r"]
    edges = []
    _realize_pattern(pattern, "r", verts, edges)
    tree = MetricTree(verts, edges)

    order_rng = random.Random(order_seed)
    shifts = {}

    def shift_of(path, copies):
        # one rotation amount per group of the pattern, applied uniformly
        # across all realized copies, so the rotations nest into a global
        # isometry of the tree
        if path not in shifts:
            shifts[path] = order_rng.randrange(copies)
        return shifts[path]

    images = {"r": "r"}
    _rotate_pattern(pattern, "r", "r", (), shift_of, images)
    point_images = {v: tree.vertex_point(images[v]) for v in tree.vertex_ids}
    return tree, map_from_vertex_images(tree, point_images)


def random_folding_map(seed: int):
    """A random tree map with one forced fold, hence never injective.

    One edge's image goes out to a waypoint, returns to its start, and
    only then heads to the endpoint image, so two distinct domain points
    share an image no matter what the rest of the map does.
    """
    rng = random.Random(seed)
    n = rng.randint(3, 10)
    verts = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        anchor = verts[rng.randrange(i)]
        length = Fraction(rng.randint(1, 5), rng.choice([1, 2, 3]))
        edges.append((f"e{i}", (anchor, verts[i]), length))
    tree = MetricTree(verts, edges)

    def rand_point():
        if rng.random() < 0.5:
            return tree.vertex_point(rng.choice(tree.vertex_ids))
        return tree.edge_point(
            rng.choice(tree.edge_ids), Fraction(rng.randint(1, 7), 8)
        )

    vimg = {v: rand_point() for v in tree.vertex_ids}
    table = {}
    for eid in tree.edge_ids:
        u, w = tree.edge_ends(eid)
        table[eid] = [(Fraction(0), vimg[u]), (Fraction(1), vimg[w])]

    fold_edge = rng.choice(tree.edge_ids)
    u, w = tree.edge_ends(fold_edge)
    base = vimg[u]
    waypoint = rand_point()
    if waypoint == base:
        others = [v for v in tree.vertex_ids if tree.vertex_point(v) != base]
        waypoint = tree.vertex_point(others[0])
    table[fold_edge] = [
        (Fraction(0), base),
        (Fraction(1, 3), waypoint),
        (Fraction(2, 3), base),
        (Fraction(1), vimg[w]),
    ]
    return tree, PLTreeMap(tree, table)


# -- registry for file emission ---------------------------------------------------


def build_fixture(kind: str, params: dict | None = None):
    """Construct a named fixture; `params` supplies kind-specific values.

    Returns a (tree, map) pair.  Tree-only fixtures pair with the
    identity map.
    """
    params = dict(params or {})

    def want(name, default=None):
        if name in params:
            return params.pop(name)
        if default is None:
            raise PreconditionError(f"fixture {kind!r} needs parameter {name!r}")
        return default

    def number(name, value, convert=int):
        try:
            return convert(value)
        except (TypeError, ValueError, ZeroDivisionError):
            raise PreconditionError(
                f"fixture {kind!r} parameter {name!r} is not a number: {value!r}"
            ) from None

    if kind == "star":
        tree = star_dendrite(number("k", want("k", 4)))
        pair = tree, identity_map(tree)
    elif kind == "stem_collapse":
        pair = stem_collapse_map(number("k", want("k", 4)))
    elif kind == "stem_sweep":
        pair = stem_sweep_map(number("k", want("k", 4)))
    elif kind == "flip":
        pair = interval_flip()
    elif kind == "shift":
        pair = shift_and_tent()["shift"]
    elif kind == "tent":
        pair = shift_and_tent()["tent"]
    elif kind == "rotation":
        pair = rotation_star(
            number("arms", want("arms", 3)),
            number("arm_length", want("arm_length", 1), Fraction),
        )
    elif kind == "tower":
        periods = want("periods", (2, 4))
        if isinstance(periods, str):
            periods = [p for p in periods.split(",") if p]
        periods = tuple(number("periods", p) for p in periods)
        pair = odometer_tower(number("depth", want("depth", len(periods))), periods)
    elif kind == "random_finite_order":
        seed = number("seed", want("seed", 0))
        pair = random_finite_order_map(seed, number("order_seed", want("order_seed", seed + 1)))
    elif kind == "random_folding":
        pair = random_folding_map(number("seed", want("seed", 0)))
    else:
        raise StructureError(f"unknown fixture kind {kind!r}")
    if params:
        raise PreconditionError(
            f"fixture {kind!r} got unexpected parameters {sorted(params)}"
        )
    return pair


FIXTURE_KINDS = (
    "star",
    "stem_collapse",
    "stem_sweep",
    "flip",
    "shift",
    "tent",
    "rotation",
    "tower",
    "random_finite_order",
    "random_folding",
)
