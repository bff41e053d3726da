import copy
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction as F

import pytest

from dendrodyn import (
    FIXTURE_KINDS,
    MetricTree,
    PreconditionError,
    ResourceLimitError,
    StructureError,
    Subtree,
    build_fixture,
)
from dendrodyn.dynamics import _periodic_levels, fixed_set
from dendrodyn.fixtures import odometer_tower, rotation_star
from dendrodyn.plmap import composite_fixed_set, map_from_vertex_images
from dendrodyn.tree import TreePoint, _Q, as_fraction, point_key
from oracles import (
    DataclassTreePoint,
    arc_offsets,
    arc_subtree,
    corner_scan_first_met,
    decision_corpus,
    distance_arc_contains,
    measure,
    point_subtree,
    root_path_first_separated,
    root_path_on_arc,
    size_table_rooting,
    union_find_components,
    vertex_path_arc,
    walk_on_arc,
    walk_retract,
)


def path_tree():
    return MetricTree(
        ["a", "b", "c", "d"],
        [("e1", ("a", "b"), 1), ("e2", ("b", "c"), 2), ("e3", ("c", "d"), F(1, 2))],
    )


def star3():
    return MetricTree(
        ["c0", "l1", "l2", "l3"],
        [("a1", ("c0", "l1"), 1), ("a2", ("c0", "l2"), 1), ("a3", ("c0", "l3"), 1)],
    )


def spider():
    """Two branch vertices joined by a bridge, five leaves, mixed lengths."""
    return MetricTree(
        ["u", "v", "p", "q", "r", "s", "t"],
        [
            ("b", ("u", "v"), 3),
            ("up", ("u", "p"), 1),
            ("uq", ("u", "q"), 2),
            ("vr", ("v", "r"), F(1, 2)),
            ("vs", ("v", "s"), F(5, 3)),
            ("vt", ("v", "t"), 1),
        ],
    )


def random_tree(rng, n_vertices=8):
    """Random tree by attaching each new vertex to a uniformly chosen old one."""
    verts = [f"n{i}" for i in range(n_vertices)]
    edges = []
    for i in range(1, n_vertices):
        anchor = verts[rng.randrange(i)]
        length = F(rng.randint(1, 6), rng.randint(1, 4))
        edges.append((f"e{i}", (anchor, verts[i]), length))
    return MetricTree(verts, edges)


def deep_trees(rng):
    """A 200-vertex path and a 100-joint caterpillar, names shuffled.

    Random trees above are shallow; these put the root (the least vertex
    name) mid-path and make root walks long, with random edge orientations.
    """
    out = []
    names = [f"n{i}" for i in range(200)]
    rng.shuffle(names)
    edges = []
    for i in range(1, 200):
        ends = (names[i - 1], names[i]) if rng.random() < 0.5 else (names[i], names[i - 1])
        edges.append((f"e{i}", ends, F(rng.randint(1, 6), rng.randint(1, 4))))
    out.append(MetricTree(names, edges))
    names = [f"n{i}" for i in range(200)]
    rng.shuffle(names)
    spine, legs = names[:100], names[100:]
    edges = []
    for i in range(1, 100):
        edges.append((f"s{i}", (spine[i - 1], spine[i]), F(rng.randint(1, 6), rng.randint(1, 4))))
    for i in range(100):
        ends = (spine[i], legs[i]) if rng.random() < 0.5 else (legs[i], spine[i])
        edges.append((f"l{i}", ends, F(rng.randint(1, 6), rng.randint(1, 4))))
    out.append(MetricTree(names, edges))
    return out


def random_point(rng, tree):
    if not tree.edge_ids or rng.random() < 0.4:
        return tree.vertex_point(rng.choice(tree.vertex_ids))
    eid = rng.choice(tree.edge_ids)
    return tree.edge_point(eid, F(rng.randint(1, 11), 12))


def brute_distance(tree, a, b):
    """Dijkstra on the graph with a and b spliced in as extra nodes.

    Independent of the arc machinery: only edge_ends/edge_length are used.
    """
    if a == b:
        return F(0)
    nodes = {("v", v) for v in tree.vertex_ids}
    wedges = []
    cuts = {}
    for p, tag in ((a, "A"), (b, "B")):
        if not p.is_vertex:
            cuts.setdefault(p.edge, []).append((p.t, tag))
    for eid in tree.edge_ids:
        u, w = tree.edge_ends(eid)
        length = tree.edge_length(eid)
        pts = sorted(cuts.get(eid, []))
        chain = [(("v", u), F(0))] + [((c[1],), c[0]) for c in pts] + [(("v", w), F(1))]
        for (n1, t1), (n2, t2) in zip(chain, chain[1:]):
            nodes.add(n1)
            nodes.add(n2)
            if t2 > t1:
                wedges.append((n1, n2, (t2 - t1) * length))
    src = ("v", a.vertex) if a.is_vertex else ("A",)
    dst = ("v", b.vertex) if b.is_vertex else ("B",)
    dist = {n: None for n in nodes}
    dist[src] = F(0)
    todo = set(nodes)
    while todo:
        x = min((n for n in todo if dist[n] is not None), key=lambda n: dist[n], default=None)
        if x is None:
            break
        todo.remove(x)
        for n1, n2, wt in wedges:
            for fr, to in ((n1, n2), (n2, n1)):
                if fr == x and (dist[to] is None or dist[x] + wt < dist[to]):
                    dist[to] = dist[x] + wt
    return dist[dst]


# -- construction and validation -----------------------------------------


def test_rejects_cycle():
    with pytest.raises(StructureError):
        MetricTree(["a", "b", "c"], [("e1", ("a", "b"), 1), ("e2", ("b", "c"), 1), ("e3", ("c", "a"), 1)])


def test_rejects_disconnected():
    with pytest.raises(StructureError):
        MetricTree(["a", "b", "c", "d"], [("e1", ("a", "b"), 1), ("e2", ("c", "d"), 1)])


def test_rejects_bad_lengths_and_ids():
    with pytest.raises(StructureError):
        MetricTree(["a", "b"], [("e1", ("a", "b"), 0)])
    with pytest.raises(StructureError):
        MetricTree(["a", "b"], [("e1", ("a", "b"), -1)])
    with pytest.raises(StructureError):
        MetricTree(["a", "a"], [("e1", ("a", "a"), 1)])
    with pytest.raises(StructureError):
        MetricTree(["a", "b"], [("e1", ("a", "x"), 1)])


def test_a_tree_is_its_adjacency_keys():
    """A tree keeps its vertices only as the keys of its adjacency: the
    same vertices listed in another order make an equal tree with the
    same whole subtree, an id that is not a vertex is refused by every
    membership method, and a repeated or unknown id is refused on build."""
    t = spider()
    edges = [(e, t.edge_ends(e), t.edge_length(e)) for e in t.edge_ids]
    shuffled = MetricTree(["t", "q", "v", "s", "u", "r", "p"], reversed(edges))
    assert shuffled == t and shuffled.vertex_ids == t.vertex_ids
    full = Subtree.build(t, [(e, F(0), F(1)) for e in t.edge_ids], t.vertex_ids)
    assert shuffled.full_subtree() == full == t.full_subtree()
    assert t != MetricTree(["u", "v"], [("b", ("u", "v"), 3)])
    for ghost in ("w", "b", ("u",)):
        assert not t.has_vertex(ghost)
        for refuse in (t.degree, t.vertex_point, lambda v: t.validate_point(TreePoint(vertex=v))):
            with pytest.raises(StructureError, match="unknown vertex"):
                refuse(ghost)
    with pytest.raises(StructureError, match="duplicate vertex ids"):
        MetricTree(["u", "v", "u"], [("b", ("u", "v"), 3)])
    with pytest.raises(StructureError, match="unknown vertex"):
        MetricTree(["u", "v"], [("b", ("u", "w"), 3)])


def test_rationals_take_the_file_grammar():
    assert as_fraction("-6/8") == F(-3, 4)
    assert as_fraction("+7") == 7
    assert as_fraction(F(1, 3)) == F(1, 3)
    assert as_fraction(-2) == -2
    for bad in (True, "0.5", " 3/4", "1e5", 0.5, "1/0", "9" * 1001):
        with pytest.raises(StructureError, match="not a rational"):
            as_fraction(bad)
    with pytest.raises(StructureError, match="not a rational"):
        MetricTree(["a", "b"], [("e", ("a", "b"), "0.5")])
    with pytest.raises(StructureError, match="not a rational"):
        path_tree().edge_point("e1", "1e5")


def test_single_vertex_tree():
    t = MetricTree(["only"], [])
    p = t.vertex_point("only")
    assert t.distance(p, p) == 0
    assert t.order_of(p) == (0, "isolated")
    assert t.arc(p, p).is_degenerate()


def test_edge_point_normalizes_ends_to_vertices():
    t = path_tree()
    assert t.edge_point("e1", 0) == t.vertex_point("a")
    assert t.edge_point("e1", 1) == t.vertex_point("b")
    assert not t.edge_point("e1", F(1, 2)).is_vertex
    with pytest.raises(StructureError):
        t.edge_point("e1", F(3, 2))
    with pytest.raises(StructureError):
        t.edge_point("nope", F(1, 2))


def test_order_classes():
    sp = spider()
    assert sp.order_of(sp.vertex_point("u")) == (3, "branchpoint")
    assert sp.order_of(sp.vertex_point("p")) == (1, "endpoint")
    assert sp.order_of(sp.edge_point("b", F(1, 3))) == (2, "cutpoint")
    t = path_tree()
    assert t.order_of(t.vertex_point("b")) == (2, "cutpoint")


# -- distance ------------------------------------------------------------


def test_distance_frozen_values():
    sp = spider()
    d = sp.distance
    assert d(sp.vertex_point("p"), sp.vertex_point("r")) == F(9, 2)
    assert d(sp.edge_point("b", F(1, 3)), sp.vertex_point("s")) == F(2) + F(5, 3)
    assert d(sp.edge_point("up", F(1, 2)), sp.edge_point("uq", F(1, 4))) == 1
    assert d(sp.edge_point("b", F(1, 4)), sp.edge_point("b", F(3, 4))) == F(3, 2)


def test_distance_matches_dijkstra_oracle():
    rng = random.Random(1001)
    for _ in range(40):
        t = random_tree(rng, rng.randint(2, 9))
        a = random_point(rng, t)
        b = random_point(rng, t)
        assert t.distance(a, b) == brute_distance(t, a, b)
    rng = random.Random(1002)
    for t in deep_trees(rng):
        for _ in range(8):
            a = random_point(rng, t)
            b = random_point(rng, t)
            assert t.distance(a, b) == brute_distance(t, a, b)


def test_distance_metric_axioms():
    rng = random.Random(77)
    t = random_tree(rng, 7)
    pts = [random_point(rng, t) for _ in range(8)]
    for x in pts:
        assert t.distance(x, x) == 0
        for y in pts:
            assert t.distance(x, y) == t.distance(y, x)
            assert (t.distance(x, y) == 0) == (x == y)
            for z in pts:
                assert t.distance(x, z) <= t.distance(x, y) + t.distance(y, z)


# -- arcs ----------------------------------------------------------------


def check_arc_wellformed(tree, arc):
    """Structural sanity: a simple chain from a to b with the right length."""
    assert arc.length == tree.distance(arc.a, arc.b)
    seen = set()
    cursor = arc.a
    for eid, t0, t1 in arc.segments:
        assert eid not in seen  # simple: no edge twice
        seen.add(eid)
        assert t0 != t1
        assert tree.edge_point(eid, t0) == cursor
        cursor = tree.edge_point(eid, t1)
    assert cursor == arc.b
    assert arc.offsets == arc_offsets(arc)
    total = sum(
        (abs(t1 - t0) * tree.edge_length(eid) for eid, t0, t1 in arc.segments),
        F(0),
    )
    assert total == arc.length


def test_arc_frozen_shapes():
    sp = spider()
    a = sp.edge_point("up", F(1, 2))
    b = sp.edge_point("vs", F(1, 3))
    arc = sp.arc(a, b)
    assert arc.segments == (
        ("up", F(1, 2), F(0)),
        ("b", F(0), F(1)),
        ("vs", F(0), F(1, 3)),
    )
    assert arc.length == F(1, 2) + 3 + F(5, 9)
    same_edge = sp.arc(sp.edge_point("b", F(2, 3)), sp.edge_point("b", F(1, 6)))
    assert same_edge.segments == (("b", F(2, 3), F(1, 6)),)


def check_arc_between(t, a, b):
    arc = t.arc(a, b)
    check_arc_wellformed(t, arc)
    back = t.arc(b, a)
    assert back.a == b and back.b == a and back.length == arc.length
    assert back.segments == tuple((e, u1, u0) for e, u0, u1 in reversed(arc.segments))
    check_arc_wellformed(t, back)
    # interior sample points sit on the arc, and point_at inverts arclength
    for k in (1, 2, 3):
        s = arc.length * k / 4
        p = arc.point_at(s)
        assert distance_arc_contains(arc, p)
        assert t.distance(a, p) == s


def test_arc_random_sweep():
    rng = random.Random(2002)
    for _ in range(60):
        t = random_tree(rng, rng.randint(2, 9))
        check_arc_between(t, random_point(rng, t), random_point(rng, t))
    rng = random.Random(2003)
    for t in deep_trees(rng):
        for _ in range(30):
            check_arc_between(t, random_point(rng, t), random_point(rng, t))


def test_arc_works_out_no_height():
    """An arc needs only the lower vertex of each end: the point itself
    for a vertex, else the end of its edge whose arc to the root runs
    through it.  No height above the root is worked out."""
    rng = random.Random(2005)
    trees = [random_tree(rng, rng.randint(2, 9)) for _ in range(30)] + deep_trees(rng)
    ends = [(t, random_point(rng, t), random_point(rng, t)) for t in trees for _ in range(6)]
    for t, a, b in ends:
        low, root = t._position(a)[0], t.vertex_point(t.vertex_ids[0])
        if a.is_vertex:
            assert low == a.vertex
        else:
            assert low in t.edge_ends(a.edge) and t.on_arc(a, t.vertex_point(low), root)
        check_arc_wellformed(t, t.arc(a, b))


def kernel_trees(rng):
    """Seeded random trees of 1 to 12 vertices and every fixture's tree."""
    trees = [random_tree(rng, rng.randint(1, 12)) for _ in range(40)]
    return trees + [build_fixture(kind)[0] for kind in FIXTURE_KINDS]


def test_rooting_matches_the_size_table_oracle():
    """The windows filled in one reverse pass over the preorder are those
    a table of subtree sizes gives, on small, deep and fixture trees."""
    rng = random.Random(7101)
    for tree in kernel_trees(rng) + deep_trees(rng):
        assert (tree._up, tree._tin, tree._tout) == size_table_rooting(tree)


def test_arc_walk_matches_the_vertex_path_oracle():
    """The path walk that reads the rooting inline gives the segments of
    the former walk through `_vertex_path`, and an arc its offsets: every
    ordered pair of `grid_points(2)` on the small and fixture trees, and
    sampled pairs on the deep ones."""
    rng = random.Random(7102)
    cases = [(tree, a, b) for tree in kernel_trees(rng) for a in tree.grid_points(2)
             for b in tree.grid_points(2)]
    for tree in deep_trees(rng):
        grid = tree.grid_points(2)
        cases += [(tree, rng.choice(grid), rng.choice(grid)) for _ in range(3000)]
    long = 0
    for tree, a, b in cases:
        got, want = tree.arc(a, b), vertex_path_arc(tree, a, b)
        assert tuple(tree._path(a, b)) == got.segments == want.segments, (a, b)
        assert got.offsets == want.offsets, (a, b)
        assert all(type(x) is _Q for x in got.offsets)
        long += len(got.segments) > 3
    assert len(cases) > 20_000 and long > 5_000


def test_point_at_bounds():
    t = path_tree()
    arc = t.arc(t.vertex_point("a"), t.vertex_point("d"))
    assert arc.point_at(0) == t.vertex_point("a")
    assert arc.point_at(arc.length) == t.vertex_point("d")
    with pytest.raises(PreconditionError):
        arc.point_at(arc.length + 1)
    with pytest.raises(PreconditionError):
        arc.point_at(F(-1, 7))


def test_separates():
    t = path_tree()
    mid = t.edge_point("e2", F(1, 2))
    a, d = t.vertex_point("a"), t.vertex_point("d")
    separated = t.first_separated([a])
    assert separated(mid, d) == 0  # mid lies strictly inside the arc (a, d)
    assert separated(d, mid) is None
    assert t.first_separated([mid])(mid, a) is None  # an arc end is not inside it
    with pytest.raises(PreconditionError):
        separated(mid, mid)


# -- subtrees -------------------------------------------------------------


def test_subtree_canonicalization_merges_touching():
    t = path_tree()
    s = Subtree.build(t, [("e2", F(0), F(1, 4)), ("e2", F(1, 4), F(1, 2))], [])
    assert s.segments == {"e2": ((F(0), F(1, 2)),)}
    assert s.vertices == frozenset({"b"})  # interval reaches parameter 0
    s2 = Subtree.build(t, [("e2", F(1, 2), F(1, 4)) if False else ("e2", F(1, 4), F(1, 2)), ("e2", F(0), F(1, 4))], [])
    assert s == s2


def test_subtree_degenerate_endpoint_becomes_vertex():
    t = path_tree()
    s = Subtree.build(t, [("e1", 1, 1)], [])
    assert not s.segments
    assert s.vertices == frozenset({"b"})
    assert s == Subtree.build(t, [], ["b"])


def test_subtree_algebra():
    t = spider()
    x = Subtree.build(t, [("b", F(0), F(2, 3)), ("up", F(0), F(1))], [])
    y = Subtree.build(t, [("b", F(1, 3), F(1)), ("vr", F(0), F(1))], [])
    u = x.union(y)
    assert u.union(x) == u and u.union(y) == u
    assert u.segments["b"] == ((F(0), F(1)),)
    i = x.intersect(y)
    assert i.segments == {"b": ((F(1, 3), F(2, 3)),)}
    assert i.vertices == frozenset()
    assert x.union(i) == x and y.union(i) == y
    assert measure(u) == F(3) + 1 + F(1, 2)
    assert measure(i) == 1


def test_full_subtree_builds_nothing(monkeypatch):
    t = spider()
    expected = Subtree.build(t, [(e, F(0), F(1)) for e in t.edge_ids], t.vertex_ids)
    builds = []
    plain = Subtree.build

    def counted(cls, *args):
        builds.append(args)
        return plain(*args)

    monkeypatch.setattr(Subtree, "build", classmethod(counted))
    for _ in range(3):
        full = t.full_subtree()
        assert full == expected and full.tree is t
        assert full.segments == expected.segments and full.vertices == expected.vertices
        full.segments.clear()  # a caller's copy, not the tree's
    assert not builds


def in_edge_order(sub):
    return list(sub.segments) == [e for e in sub.tree.edge_ids if e in sub.segments]


def test_every_subtree_lists_its_edges_in_the_tree_order():
    """`Subtree.build` alone orders a subtree: whatever made it, its
    segments follow `edge_ids` (e1, e10, e11, e2, ... on these trees), and
    the same intervals listed in any order give an equal subtree with an
    equal hash."""
    rng = random.Random(2020)
    made = []
    for _ in range(60):
        t = random_tree(rng, rng.randint(2, 14))
        params = [F(0), F(1, 3), F(1, 2), F(2, 3), F(1)]
        raw = []
        for eid in rng.sample(t.edge_ids, rng.randint(1, len(t.edge_ids))):
            a, b = sorted(rng.sample(params, 2))
            raw.append((eid, a, b))
        verts = rng.sample(t.vertex_ids, rng.randint(0, 2))
        first = Subtree.build(t, rng.sample(raw, len(raw)), verts)
        second = Subtree.build(t, rng.sample(raw, len(raw)), verts[::-1])
        assert first == second and hash(first) == hash(second)
        eid, a, b = raw[0]
        other = Subtree.build(t, [(eid, a, (a + b) / 2), *raw[1:]], verts)
        assert other != first

        f = map_from_vertex_images(t, {v: random_point(rng, t) for v in t.vertex_ids})
        hulls = [t.connected_hull([random_point(rng, t) for _ in range(3)]) for _ in range(2)]
        subs = [first, other, random_subtree(rng, t), *hulls, t.full_subtree()]
        made += subs + [first.union(other), hulls[0].union(hulls[1]), hulls[0].intersect(first)]
        made += [f.image_of_subtree(s) for s in subs]
        arc = t.arc(random_point(rng, t), random_point(rng, t))
        made += [composite_fixed_set(None, f), arc_subtree(arc)]
        made += [c.closure for s in subs[2:] for c in union_find_components(t, s)]
    for tree, f in (rotation_star(12), odometer_tower(3, (2, 4, 8))):
        fixed = [fixed_set(f, n) for n in range(1, 9)]
        made += fixed + [c.closure for s in fixed for c in union_find_components(tree, s)]
    assert sum(len(s.segments) > 1 for s in made) > 200
    assert all(in_edge_order(s) for s in made)


def test_subtree_contains():
    t = star3()
    s = Subtree.build(t, [("a1", F(1, 4), F(3, 4))], ["l2"])
    assert s.contains(t.edge_point("a1", F(1, 2)))
    assert s.contains(t.edge_point("a1", F(1, 4)))
    assert not s.contains(t.edge_point("a1", F(1, 8)))
    assert s.contains(t.vertex_point("l2"))
    assert not s.contains(t.vertex_point("c0"))
    assert not s.is_connected()


def union_find_is_connected(sub):
    """Union-find over segments and vertices; empty counts as connected.

    The oracle for `Subtree.is_connected`, which counts instead.
    """
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for v in sub.vertices:
        parent[("vx", v)] = ("vx", v)
    for eid, ivs in sub.segments.items():
        u, w = sub.tree.edge_ends(eid)
        for lo, hi in ivs:
            key = ("seg", eid, lo, hi)
            parent[key] = key
            if lo == 0:
                union(key, ("vx", u))
            if hi == 1:
                union(key, ("vx", w))
    roots = {find(k) for k in parent}
    return len(roots) <= 1


def random_subtree(rng, tree):
    """Raw intervals, often reaching an edge end, plus a few vertices."""
    params = [F(0), F(1), F(1, 3), F(1, 2), F(2, 3)]
    segs = []
    for eid in rng.sample(tree.edge_ids, rng.randint(0, len(tree.edge_ids))):
        for _ in range(rng.randint(1, 2)):
            a, b = sorted((rng.choice(params), rng.choice(params)))
            segs.append((eid, a, b))
    nverts = rng.randint(0, min(2, len(tree.vertex_ids)))
    return Subtree.build(tree, segs, rng.sample(tree.vertex_ids, nverts))


def test_is_connected_matches_union_find_oracle():
    rng = random.Random(3113)
    verdicts = set()
    for _ in range(400):
        t = random_tree(rng, rng.randint(2, 8))
        subs = [random_subtree(rng, t) for _ in range(3)]
        subs.append(subs[0].union(subs[1]))
        subs.append(subs[1].intersect(subs[2]))
        hulls = [t.connected_hull([random_point(rng, t) for _ in range(2)]) for _ in range(2)]
        subs += [hulls[0].union(hulls[1]), hulls[0].intersect(hulls[1])]
        for sub in subs:
            expected = union_find_is_connected(sub)
            assert sub.is_connected() == expected
            verdicts.add(expected)
    assert verdicts == {True, False}


def test_connected_hull_equals_pairwise_arc_union():
    rng = random.Random(3003)
    for _ in range(25):
        t = random_tree(rng, rng.randint(2, 8))
        pts = [random_point(rng, t) for _ in range(rng.randint(1, 5))]
        hull = t.connected_hull(pts)
        oracle = point_subtree(t, pts[0])
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                oracle = oracle.union(arc_subtree(t.arc(pts[i], pts[j])))
        for p in pts:
            oracle = oracle.union(point_subtree(t, p))
        assert hull == oracle
        assert hull.is_connected()
        for p in pts:
            assert hull.contains(p)


def test_hull_of_single_point():
    t = star3()
    p = t.edge_point("a2", F(1, 3))
    h = t.connected_hull([p])
    assert h.contains(p) and measure(h) == 0
    with pytest.raises(PreconditionError):
        t.connected_hull([])


def test_intersect_arc_against_membership_scan():
    rng = random.Random(4004)
    for _ in range(30):
        t = random_tree(rng, rng.randint(2, 8))
        pts = [random_point(rng, t) for _ in range(3)]
        sub = t.connected_hull(pts[:2])
        arc = t.arc(pts[2], pts[0])
        ivs = sub.intersect_arc(arc)
        for k, e in enumerate(ivs):
            assert e[0] <= e[1]
            if k:
                assert ivs[k - 1][1] < e[0]
        if arc.length > 0:
            for num in range(0, 25):
                s = arc.length * num / 24
                inside = any(lo <= s <= hi for lo, hi in ivs)
                assert inside == sub.contains(arc.point_at(s))


def test_retract_is_gate_point():
    rng = random.Random(5005)
    for _ in range(30):
        t = random_tree(rng, rng.randint(3, 8))
        pts = [random_point(rng, t) for _ in range(3)]
        y = t.connected_hull(pts[:2])
        z = pts[2]
        w = t.retract(y, z)
        assert y.contains(w)
        samples = list(y.corner_points())
        for eid, ivs in y.segments.items():
            for lo, hi in ivs:
                samples.append(t.edge_point(eid, (lo + hi) / 2))
        for q in samples:
            # w is on every arc from z into the target, and is nearest
            assert t.on_arc(w, z, q)
            assert t.distance(z, w) <= t.distance(z, q)
        if y.contains(z):
            assert w == z


def test_retract_matches_the_first_hit_of_an_arc_into_the_target():
    # the former route: walk the arc to a corner of the target, take its first hit
    rng = random.Random(5006)
    trees = [random_tree(rng, rng.randint(2, 9)) for _ in range(40)] + deep_trees(rng)
    for t in trees:
        for _ in range(10):
            y = t.connected_hull([random_point(rng, t) for _ in range(rng.randint(1, 4))])
            z = random_point(rng, t)
            path = t.arc(z, y.corner_points()[0])
            assert t.retract(y, z) == path.point_at(y.intersect_arc(path)[0][0])


def test_retract_rejects_bad_targets():
    t = star3()
    with pytest.raises(PreconditionError):
        t.retract(Subtree.empty(t), t.vertex_point("l1"))
    disc = Subtree.build(t, [("a1", F(1, 2), F(3, 4)), ("a2", F(1, 2), F(3, 4))], [])
    with pytest.raises(PreconditionError):
        t.retract(disc, t.vertex_point("l3"))


def position_trees(rng):
    """Trees for the position routines: one-edge trees (either orientation
    of the edge against the root), a one-vertex tree, the star and spider,
    random trees and the deep ones."""
    trees = [
        MetricTree(["a", "b"], [("e", ("a", "b"), F(3, 2))]),
        MetricTree(["a", "b"], [("e", ("b", "a"), 1)]),
        MetricTree(["o"], []),
        star3(),
        spider(),
    ]
    trees += [random_tree(rng, rng.randint(3, 8)) for _ in range(8)]
    return trees + deep_trees(rng)


def test_on_arc_matches_the_distance_oracle():
    """`on_arc` against the arc a walk of the oracle's own finds
    (`walk_on_arc`), over 100,000 triples: every triple of grid points on
    the small trees, equal points and triples on one edge among them, and
    sampled triples on the deep trees."""
    rng = random.Random(7001)
    triples = same_edge = equal = 0
    hits = 0
    for tree in position_trees(rng):
        grid = list(tree.grid_points(3))
        if len(grid) <= 32:
            cases = [(x, a, b) for x in grid for a in grid for b in grid]
        else:
            cases = [tuple(rng.choice(grid) for _ in range(3)) for _ in range(4000)]
        for x, a, b in cases:
            got = tree.on_arc(x, a, b)
            assert got == walk_on_arc(tree, x, a, b), (x, a, b)
            hits += got
            triples += 1
            equal += x == a or x == b or a == b
            same_edge += not any(p.is_vertex for p in (x, a, b)) and x.edge == a.edge == b.edge
    assert triples >= 100_000
    assert equal > 10_000 and same_edge > 500 and 0.1 < hits / triples < 0.9


def test_retract_matches_the_distance_oracle():
    """Every grid point retracted onto random hulls, by positions and by
    the first point of the hull a walk from it meets (`walk_retract`)."""
    rng = random.Random(7002)
    cases = inside = 0
    for tree in position_trees(rng):
        grid = tree.grid_points(2)
        for _ in range(12 if len(grid) < 100 else 2):
            y = tree.connected_hull([random_point(rng, tree) for _ in range(rng.randint(1, 4))])
            for z in grid:
                w = tree.retract(y, z)
                assert w == walk_retract(tree, y, z), (y, z)
                cases += 1
                inside += w == z
    assert cases > 4000 and 0 < inside < cases


def unit_path(n):
    """An n-vertex path of unit edges e_i = [p_i, p_(i+1)], rooted at p0."""
    names = [f"p{i}" for i in range(n)]
    return MetricTree(names, [(f"e{i}", (names[i], names[i + 1]), 1) for i in range(n - 1)])


def test_vertex_retractions_match_the_distance_oracle():
    """Every vertex's retraction from the one preorder pass, against the
    first point of the hull a walk from the vertex meets: random hulls on
    the position trees, and on a deep path hulls at the root, in the
    middle and at the far leaf, each a vertex, a point inside an edge or a
    stretch across a vertex."""
    rng = random.Random(7005)
    cases = 0
    path = unit_path(300)
    hulls = []
    for tree in position_trees(rng):
        for _ in range(6):
            pts = [random_point(rng, tree) for _ in range(rng.randint(1, 4))]
            hulls.append((tree, tree.connected_hull(pts)))
    for i in (0, 150, 298):
        a, b = path.vertex_point(f"p{i}"), path.vertex_point(f"p{i + 1}")
        inner = path.edge_point(f"e{i}", F(1, 3))
        for pts in ([a], [b], [inner], [inner, b], [a, b]):
            hulls.append((path, path.connected_hull(pts)))
    for tree, y in hulls:
        got = tree.vertex_retractions(y)
        assert sorted(got) == sorted(tree.vertex_ids)
        for v in tree.vertex_ids:
            assert got[v] == walk_retract(tree, y, tree.vertex_point(v)), (y, v)
            cases += 1
    assert cases > 7000


def test_first_met_and_first_gap_match_the_corner_scan_and_the_split():
    """On P_1, ..., P_4 of every map of the decision corpus and of two
    towers, connected or not: the first point met toward the root from
    every grid point off the set is the corner scan's, and the first gap's
    midpoint is the representative point of the first component."""
    homeos, folding, sags = decision_corpus(random.Random(7004))
    maps = homeos + folding + sags
    maps += [odometer_tower(len(ps), ps)[1] for ps in ((2, 4, 8, 16, 32, 64), (3, 9, 27))]
    sets = disconnected = points = off_path = 0
    for f in maps:
        tree = f.domain
        root = tree.vertex_point(tree.vertex_ids[0])
        try:
            levels = [union for _, _, union in _periodic_levels(f, 4)]
        except ResourceLimitError:
            continue
        for s in set(levels):
            comps = union_find_components(tree, s)
            assert tree.first_gap(s) == (comps[0].repr_point if comps else None)
            if s.is_empty() or not comps:
                continue
            for z in tree.grid_points(3):
                if not s.contains(z):
                    w = tree.first_met(s, z)
                    assert w == corner_scan_first_met(tree, s, z), (s, z)
                    points += 1
                    off_path += not tree.on_arc(w, z, root)  # the walk met nothing
            sets += 1
            disconnected += not s.is_connected()
    assert sets > 1000 and disconnected > 500 and points > 20_000 and off_path > 1000


# -- complement components -------------------------------------------------
#
# The package counts one component's contacts by a walk from a point of it
# (`MetricTree.contacts`); the whole split is the union-find oracle's.


def test_components_partition_random_sweep():
    rng = random.Random(6006)
    for _ in range(25):
        t = random_tree(rng, rng.randint(2, 8))
        pts = [random_point(rng, t) for _ in range(2)]
        d = t.connected_hull(pts)
        comps = union_find_components(t, d)
        # closures plus the removed set tile the tree by measure
        total = measure(d) + sum((measure(c.closure) for c in comps), F(0))
        assert total == measure(t.full_subtree())
        for g in t.grid_points(4):
            holders = [c for c in comps if c.contains(g)]
            if d.contains(g):
                assert not holders
                with pytest.raises(PreconditionError, match="lies in the removed set"):
                    t.contacts(d, g)
            else:
                assert len(holders) == 1
                assert t.contacts(d, g) == holders[0].boundary
                # connectivity within the component: arc to repr avoids d
                arc = t.arc(g, holders[0].repr_point)
                hits = d.intersect_arc(arc)
                assert hits == ()
        for c in comps:
            assert c.closure.is_connected()
            assert len(c.boundary) == 1  # removed set is connected here
            assert d.contains(c.attachment)
            assert c.closure.contains(c.attachment)
            assert not c.contains(c.attachment)


def other_point(tree, comp):
    """A point of a component besides its representative, which lies in
    its first gap: a free vertex when it has one, else a point of its
    last gap."""
    free = [v for v in tree.vertex_ids if v in comp.closure.vertices]
    free = [v for v in free if tree.vertex_point(v) not in comp.boundary]
    if free:
        return tree.vertex_point(free[0])
    eid, intervals = list(comp.closure.segments.items())[-1]
    lo, hi = intervals[-1]
    return tree.edge_point(eid, (3 * lo + hi) / 4)


def test_components_walk_matches_union_find_oracle():
    rng = random.Random(6116)
    cases = []
    for _ in range(300):
        t = random_tree(rng, rng.randint(1, 10))
        subs = [Subtree.empty(t), t.full_subtree(), random_subtree(rng, t), random_subtree(rng, t)]
        hulls = [t.connected_hull([random_point(rng, t) for _ in range(2)]) for _ in range(2)]
        subs += hulls + [hulls[0].union(hulls[1]), point_subtree(t, random_point(rng, t))]
        cases += [(t, sub) for sub in subs]
    for t in deep_trees(rng):
        cases += [(t, Subtree.empty(t)), (t, t.full_subtree())]
        cases += [(t, random_subtree(rng, t)) for _ in range(3)]
        cases += [(t, point_subtree(t, random_point(rng, t))) for _ in range(3)]
        hulls = [t.connected_hull([random_point(rng, t) for _ in range(2)]) for _ in range(3)]
        cases += [(t, hulls[0].union(hulls[1]).union(hulls[2]))]
    multi = alone = at_vertex = elsewhere = 0
    for t, sub in cases:
        comps = union_find_components(t, sub)
        for c in comps:
            other = other_point(t, c)
            for x in (c.repr_point, other):
                assert t.contacts(sub, x) == c.boundary, (sub, x)
            at_vertex += other.is_vertex
            elsewhere += other != c.repr_point and not other.is_vertex
        multi += any(len(c.boundary) > 1 for c in comps)
        alone += any(not c.closure.segments for c in comps)
    # every kind of removal shows up: several contacts, and the one-vertex
    # tree with nothing removed, the only component without a gap; the
    # walk starts at free vertices and at gaps other than the first
    assert multi > 100 and alone > 0 and at_vertex > 2000 and elsewhere > 500


def test_components_of_the_one_point_tree():
    t = MetricTree(["v"], [])
    v = t.vertex_point("v")
    (comp,) = union_find_components(t, Subtree.empty(t))
    assert (comp.closure, comp.boundary, comp.repr_point) == (t.full_subtree(), (), v)
    assert comp.contains(v)
    assert t.contacts(Subtree.empty(t), v) == ()
    assert union_find_components(t, t.full_subtree()) == ()


def test_components_of_disconnected_removal():
    t = path_tree()
    d = Subtree.build(t, [("e1", F(1, 4), F(1, 2)), ("e2", F(1, 2), F(3, 4))], [])
    comps = union_find_components(t, d)
    assert len(comps) == 3
    middle = [c for c in comps if len(c.boundary) == 2]
    assert len(middle) == 1
    two = (t.edge_point("e1", F(1, 2)), t.edge_point("e2", F(1, 2)))
    assert middle[0].boundary == two
    for x in (t.edge_point("e1", F(3, 4)), t.vertex_point("b"), t.edge_point("e2", F(1, 4))):
        assert t.contacts(d, x) == two
    assert t.contacts(d, t.vertex_point("a")) == (t.edge_point("e1", F(1, 4)),)
    assert t.contacts(d, t.edge_point("e3", F(1, 2))) == (t.edge_point("e2", F(3, 4)),)
    with pytest.raises(PreconditionError, match="touches the removed set at 2 points"):
        middle[0].attachment


def test_components_of_a_point_star():
    t = star3()
    c0 = t.vertex_point("c0")
    removed = point_subtree(t, c0)
    comps = union_find_components(t, removed)
    assert len(comps) == 3
    leaves = sorted(str(c.closure.vertices - {"c0"}) for c in comps)
    assert leaves == ["frozenset({'l1'})", "frozenset({'l2'})", "frozenset({'l3'})"]
    assert all(t.contacts(removed, t.vertex_point(v)) == (c0,) for v in ("l1", "l2", "l3"))
    half = t.edge_point("a1", F(1, 2))
    removed = point_subtree(t, half)
    assert len(union_find_components(t, removed)) == 2
    assert t.contacts(removed, t.vertex_point("l1")) == t.contacts(removed, c0) == (half,)
    removed = point_subtree(t, t.vertex_point("l1"))
    assert len(union_find_components(t, removed)) == 1
    assert t.contacts(removed, c0) == (t.vertex_point("l1"),)


def test_grid_points_deterministic():
    t = star3()
    g1 = t.grid_points(3)
    g2 = t.grid_points(3)
    assert g1 == g2
    assert len(g1) == 4 + 3 * 3
    assert sorted(g1, key=point_key) != []


def test_first_separated_matches_the_brute_scan():
    """The range-minimum query against the scan it replaces: the least i
    with t strictly inside the arc from points[i] to y."""
    rng = random.Random(1311)
    trees = [random_tree(rng, rng.randint(1, 12)) for _ in range(40)]
    trees += [star3(), spider()]
    found = 0
    for tree in trees + deep_trees(rng):
        grid = list(tree.grid_points(2))
        for _ in range(3):
            points = rng.sample(grid, rng.randint(0, min(len(grid), 40)))
            points += [random_point(rng, tree) for _ in range(rng.randint(0, 4))]
            first = tree.first_separated(points)
            probes = grid + [random_point(rng, tree) for _ in range(10)]
            for _ in range(20):
                t, y = rng.choice(probes), rng.choice(probes)
                if t == y:
                    with pytest.raises(PreconditionError):
                        first(t, y)
                    continue
                expected = next(
                    (i for i, a in enumerate(points) if a != t and walk_on_arc(tree, t, a, y)),
                    None,
                )
                assert first(t, y) == expected
                found += expected is not None
    assert found > 500



def separation_trees(rng):
    """Every fixture's tree, 40 seeded random trees, the (2, 6, 12, 24)
    tower and a 200-vertex path with its root mid-path."""
    trees = kernel_trees(rng) + [odometer_tower(4, (2, 6, 12, 24))[0]]
    return trees + deep_trees(rng)[:1]


def test_separation_matches_the_root_path_oracle():
    """`on_arc` and `first_separated` read the branch windows; the former
    root-path comparisons must give the same answers.  Over 100,000
    triples of `grid_points(3)`: every triple on the small trees, and
    sampled ones, a share of them with x an end or a = b, on the large
    ones; then (t, y) queries against random anchor sets of 1 to 30
    points, repeats among them."""
    rng = random.Random(7201)
    triples = ends = equal = interior = hits = 0
    queries = found = 0
    for tree in separation_trees(rng):
        grid = tree.grid_points(3)
        if len(grid) <= 24:
            cases = [(x, a, b) for x in grid for a in grid for b in grid]
        else:
            cases = []
            for _ in range(4000):
                x, a, b = rng.choice(grid), rng.choice(grid), rng.choice(grid)
                roll = rng.random()
                cases.append((a, a, b) if roll < 0.1 else (x, a, a) if roll < 0.2 else (x, a, b))
        for x, a, b in cases:
            got = tree.on_arc(x, a, b)
            assert got == root_path_on_arc(tree, x, a, b), (x, a, b)
            triples += 1
            hits += got
            ends += x == a or x == b
            equal += a == b
            interior += not x.is_vertex
        for _ in range(4):
            anchors = rng.choices(grid, k=rng.randint(1, 30))
            first, want = tree.first_separated(anchors), root_path_first_separated(tree, anchors)
            for _ in range(60):
                t, y = rng.choice(grid), rng.choice(grid)
                if t == y:
                    with pytest.raises(PreconditionError):
                        first(t, y)
                    continue
                got = first(t, y)
                assert got == want(t, y), (anchors, t, y)
                queries += 1
                found += got is not None
    assert triples >= 100_000 and queries >= 10_000
    assert ends > 5_000 and equal > 5_000 and interior > triples // 2
    assert 0.1 < hits / triples < 0.9 and 0.1 < found / queries < 0.9

# -- the point type against the former dataclass ----------------------------------


def former_and_new(rng):
    """Seeded (oracle, package) pairs of equal-valued points, each value
    several times over: vertex ids, and edge positions whose t is a `_Q`
    from the tree or a plain `Fraction` of the same value."""
    pairs = []
    for _ in range(300):
        if rng.random() < 0.4:
            v = f"n{rng.randrange(6)}"
            pairs.append((DataclassTreePoint(vertex=v), TreePoint(vertex=v)))
            continue
        eid = f"e{rng.randrange(4)}"
        t = F(rng.randint(1, 5), 6)
        q = as_fraction(t) if rng.random() < 0.5 else t
        pairs.append((DataclassTreePoint(edge=eid, t=t), TreePoint(edge=eid, t=q)))
    tree = random_tree(rng, 6)
    for _ in range(100):
        p = random_point(rng, tree)
        pairs.append((DataclassTreePoint(p.vertex, p.edge, p.t), p))
    return pairs


def test_tree_point_matches_the_former_dataclass():
    rng = random.Random(2301)
    pairs = former_and_new(rng)
    kinds = {type(p.t) for _, p in pairs}
    assert {type(None), F, type(as_fraction(1))} <= kinds
    equal = 0
    for old_a, new_a in pairs:
        assert repr(new_a) == repr(old_a)
        assert new_a == new_a and not new_a != new_a
        assert new_a.__eq__(old_a) is NotImplemented and new_a != old_a
        assert new_a.__eq__((new_a.vertex, new_a.edge, new_a.t)) is NotImplemented
        for old_b, new_b in rng.sample(pairs, 40):
            assert (new_a == new_b) == (old_a == old_b)
            assert (new_a != new_b) == (old_a != old_b)
            if new_a == new_b:
                assert hash(new_a) == hash(new_b)
                equal += 1
    assert equal > 500
    # a set of points keeps one of each value, as the dataclass's did
    assert len({p for _, p in pairs}) == len({p for p, _ in pairs})


def test_tree_point_constructor_errors_match_the_former_dataclass():
    bad = [
        {},
        {"vertex": "a", "edge": "e", "t": F(1, 2)},
        {"edge": "e"},
        {"edge": "e", "t": 0.5},
        {"edge": "e", "t": 1},
        {"edge": "e", "t": F(0)},
        {"edge": "e", "t": F(1)},
        {"edge": "e", "t": as_fraction("3/2")},
        {"edge": "e", "t": F(-1, 2)},
        {"t": F(1, 2)},
    ]
    for kwargs in bad:
        with pytest.raises(StructureError) as old:
            DataclassTreePoint(**kwargs)
        with pytest.raises(StructureError) as new:
            TreePoint(**kwargs)
        assert str(new.value) == str(old.value), kwargs
    # positional arguments in field order, and the fields as given
    for args in [("a",), (None, "e", F(1, 3)), ("a", None, F(1, 2))]:
        old, new = DataclassTreePoint(*args), TreePoint(*args)
        assert (new.vertex, new.edge, new.t) == (old.vertex, old.edge, old.t)
        assert repr(new) == repr(old) and new.is_vertex == old.is_vertex


def test_tree_point_is_frozen_like_the_former_dataclass():
    for old, new in former_and_new(random.Random(2302))[:20]:
        for name in ("vertex", "edge", "t"):
            with pytest.raises(FrozenInstanceError) as want:
                setattr(old, name, "x")
            with pytest.raises(FrozenInstanceError) as got:
                setattr(new, name, "x")
            assert str(got.value) == str(want.value)
            with pytest.raises(FrozenInstanceError) as want:
                delattr(old, name)
            with pytest.raises(FrozenInstanceError) as got:
                delattr(new, name)
            assert str(got.value) == str(want.value)
        # a name that is no field is refused the same way (the slotted
        # dataclass of Python 3.11 raised TypeError there)
        with pytest.raises(FrozenInstanceError, match="cannot assign to field 'other'"):
            new.other = "x"
        assert not hasattr(new, "__dict__")


def test_tree_point_copies_and_pickles_like_the_former_dataclass():
    for old, new in former_and_new(random.Random(2303))[:60]:
        for how in (copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))):
            a, b = how(old), how(new)
            assert type(b) is TreePoint
            assert b == new and hash(b) == hash(new)
            assert repr(b) == repr(a)
            assert (b.vertex, b.edge, b.t) == (a.vertex, a.edge, a.t)
            assert type(b.t) is type(new.t)


def test_tree_point_hash_never_calls_fraction_hash(monkeypatch):
    """Points hash their edge id with t's numerator and denominator."""
    tree = random_tree(random.Random(2304), 6)
    points = [tree.edge_point(eid, F(k, 7)) for eid in tree.edge_ids for k in range(1, 7)]
    calls = []
    plain = F.__hash__
    monkeypatch.setattr(F, "__hash__", lambda q: calls.append(q) or plain(q))
    monkeypatch.setattr(type(as_fraction(1)), "__hash__", F.__hash__)
    assert len(set(points)) == len(points)
    assert calls == []
