import random
from fractions import Fraction as F

import pytest

from dendrodyn import (
    ConsistencyError,
    MetricTree,
    PreconditionError,
    ResourceLimitError,
    StructureError,
    Subtree,
)
from dendrodyn import fixtures, plmap
from dendrodyn.fixtures import (
    FIXTURE_KINDS,
    build_fixture,
    random_finite_order_map,
    random_folding_map,
    rotation_star,
)
from dendrodyn.plmap import (
    DEFAULT_PIECE_CAP,
    MAX_TABLE_SIZE,
    PLTreeMap,
    _compose_piece,
    _continues,
    _covers,
    _cut,
    _canonical_point,
    _meet_point,
    _retraction,
    _table,
    compose,
    composite_fixed_set,
    cut_count,
    find_periodic_in_hull,
    identity_map,
    map_from_vertex_images,
)
from dendrodyn.io import dump_instance, load_instance
from dendrodyn.tree import as_fraction
from oracles import (
    ArcPiece,
    arc_composite_fixed_set,
    arc_compose,
    arc_subtree,
    arc_table,
    arc_window,
    breakpoint_params,
    breakpoints_by_params,
    colliding_pieces,
    composed_fixed_set,
    covers_by_hulls,
    decision_corpus,
    distance_arc_contains,
    distance_arclength_of,
    eval_in_piece,
    evaluate_on_arcs,
    hull_by_composing,
    is_identity,
    maps_equal,
    meeting_by_params,
    orbit,
    outcome,
    piece_arc,
    piece_at_by_params,
    pieces_with_edges,
    point_subtree,
    rational_table,
    solve_fixed_points,
    sorted_canonical_point,
    subtree_collision,
    subtree_meet_point,
    table_retraction,
    tables_match_arcs,
    union_find_components,
    windows_tile,
)


def interval():
    return MetricTree(["v0", "v1"], [("e", ("v0", "v1"), 1)])


def star3():
    return MetricTree(
        ["c", "l1", "l2", "l3"],
        [("a1", ("c", "l1"), 1), ("a2", ("c", "l2"), 1), ("a3", ("c", "l3"), 1)],
    )


def tent_on(t):
    p0, p1 = t.vertex_point("v0"), t.vertex_point("v1")
    return PLTreeMap(t, {"e": [(0, p0), (F(1, 2), p1), (1, p0)]})


def rotation_on(s):
    return map_from_vertex_images(
        s,
        {
            "c": s.vertex_point("c"),
            "l1": s.vertex_point("l2"),
            "l2": s.vertex_point("l3"),
            "l3": s.vertex_point("l1"),
        },
    )


def random_tree(rng, n_vertices=6):
    verts = [f"n{i}" for i in range(n_vertices)]
    edges = []
    for i in range(1, n_vertices):
        anchor = verts[rng.randrange(i)]
        length = F(rng.randint(1, 5), rng.randint(1, 3))
        edges.append((f"e{i}", (anchor, verts[i]), length))
    return MetricTree(verts, edges)


def random_point(rng, tree):
    if rng.random() < 0.4:
        return tree.vertex_point(rng.choice(tree.vertex_ids))
    return tree.edge_point(rng.choice(tree.edge_ids), F(rng.randint(1, 9), 10))


def random_map(rng, tree):
    """Random PL self-map: vertex images plus a few interior breakpoints."""
    vimg = {v: random_point(rng, tree) for v in tree.vertex_ids}
    table = {}
    for eid in tree.edge_ids:
        u, w = tree.edge_ends(eid)
        bps = [(F(0), vimg[u])]
        for t in sorted(rng.sample([F(k, 8) for k in range(1, 8)], rng.randint(0, 2))):
            bps.append((t, random_point(rng, tree)))
        bps.append((F(1), vimg[w]))
        table[eid] = bps
    return PLTreeMap(tree, table)


def sample_params():
    return [F(k, 12) for k in range(13)]


def domain_samples(tree):
    pts = [tree.vertex_point(v) for v in tree.vertex_ids]
    for eid in tree.edge_ids:
        pts += [tree.edge_point(eid, t) for t in sample_params() if 0 < t < 1]
    return pts


# -- construction ----------------------------------------------------------


def test_table_validation():
    t = interval()
    p0 = t.vertex_point("v0")
    with pytest.raises(StructureError):
        PLTreeMap(t, {})
    with pytest.raises(StructureError):
        PLTreeMap(t, {"e": [(0, p0)]})
    with pytest.raises(StructureError):
        PLTreeMap(t, {"e": [(F(1, 4), p0), (1, p0)]})
    with pytest.raises(StructureError):
        PLTreeMap(t, {"e": [(0, p0), (F(1, 2), p0), (F(1, 2), p0), (1, p0)]})
    with pytest.raises(StructureError):
        PLTreeMap(t, {"e": [(0, p0), (1, p0)], "zzz": [(0, p0), (1, p0)]})


def test_a_malformed_breakpoint_record_is_refused_naming_its_edge():
    """A breakpoint list that is not a list of (t, point) pairs is refused
    as input, naming the edge, as `MetricTree` refuses a bad edge record."""
    t = interval()
    p0, p1 = t.vertex_point("v0"), t.vertex_point("v1")
    for bps in ([1, 2], None, [(0, p0), (1,)], [(0, p0), (1, p1, 3)]):
        with pytest.raises(StructureError, match="bad breakpoint record on edge 'e'"):
            PLTreeMap(t, {"e": bps})


def test_shared_vertex_consistency():
    s = star3()
    pc = s.vertex_point("c")
    table = {
        "a1": [(0, pc), (1, s.vertex_point("l2"))],
        "a2": [(0, s.vertex_point("l1")), (1, pc)],  # disagrees on c
        "a3": [(0, pc), (1, s.vertex_point("l3"))],
    }
    with pytest.raises(StructureError):
        PLTreeMap(s, table)


def alternating_path(n):
    """A path of n vertices whose vertices map alternately to its two ends,
    so every edge's image arc is the whole path."""
    verts = [f"p{i}" for i in range(n)]
    tree = MetricTree(verts, [(f"e{i}", (verts[i], verts[i + 1]), 1) for i in range(n - 1)])
    ends = [tree.vertex_point(verts[0]), tree.vertex_point(verts[-1])]
    return tree, {f"e{i}": [(0, ends[i % 2]), (1, ends[(i + 1) % 2])] for i in range(n - 1)}


def test_table_size_is_bounded_while_the_arcs_are_built(monkeypatch):
    # 1,999 pieces of 1,999 segments each: refused on the 101st arc built
    tree, table = alternating_path(2_000)
    calls = count_arc_calls(monkeypatch)
    with pytest.raises(StructureError, match=f"more than {MAX_TABLE_SIZE} pieces"):
        PLTreeMap(tree, table)
    assert len(calls) == MAX_TABLE_SIZE // 2_000 + 1
    # the bound counts pieces plus segments: a 3-arm rotation has 3 + 3
    s = star3()
    c = s.vertex_point("c")
    rotation = {f"a{i}": [(0, c), (1, s.vertex_point(f"l{i % 3 + 1}"))] for i in (1, 2, 3)}
    monkeypatch.setattr(plmap, "MAX_TABLE_SIZE", 6)
    assert PLTreeMap(s, rotation).piece_count == 3
    monkeypatch.setattr(plmap, "MAX_TABLE_SIZE", 5)
    with pytest.raises(StructureError, match="more than 5 pieces"):
        PLTreeMap(s, rotation)


def test_map_from_vertex_images_requires_all_vertices():
    s = star3()
    with pytest.raises(StructureError):
        map_from_vertex_images(s, {"c": s.vertex_point("c")})


# -- evaluation --------------------------------------------------------------


def test_evaluate_matches_arclength_interpolation():
    rng = random.Random(111)
    for _ in range(20):
        t = random_tree(rng, rng.randint(2, 7))
        f = random_map(rng, t)
        for eid in t.edge_ids:
            bps = f.breakpoints(eid)
            for (t0, q0), (t1, q1) in zip(bps, bps[1:]):
                arc = t.arc(q0, q1)
                for lam in (F(1, 4), F(1, 2), F(2, 3)):
                    x = t.edge_point(eid, t0 + (t1 - t0) * lam)
                    y = f.evaluate(x)
                    # image sits on the piece arc at proportional arclength
                    assert t.distance(q0, y) == arc.length * lam
                    assert t.distance(y, q1) == arc.length * (1 - lam)
                    assert t.on_arc(y, q0, q1)


def test_evaluate_reads_breakpoint_images_as_the_arcs_give_them():
    """At a breakpoint `evaluate` returns the stored image; on fixtures and
    random maps that is the point its piece's arc gives there."""
    rng = random.Random(112)
    maps = [build_fixture(kind, {"seed": "5"} if kind.startswith("random") else None)[1]
            for kind in fixtures.FIXTURE_KINDS]
    maps += [random_map(rng, random_tree(rng, rng.randint(2, 7))) for _ in range(40)]
    maps += [compose(f, f) for f in maps[-10:]]
    checked = 0
    for f in maps:
        t = f.domain
        for eid in t.edge_ids:
            params = [bp for bp, _ in f.breakpoints(eid)]
            mids = [(a + b) / 2 for a, b in zip(params, params[1:])]
            for x in (t.edge_point(eid, u) for u in params + mids):
                assert f.evaluate(x) == evaluate_on_arcs(f, x)
                checked += 1
    assert checked > 1500


def test_evaluate_frozen_tent_values():
    t = interval()
    f = tent_on(t)
    cases = {
        F(1, 8): F(1, 4),
        F(1, 4): F(1, 2),
        F(3, 8): F(3, 4),
        F(5, 8): F(3, 4),
        F(7, 8): F(1, 4),
    }
    for x, y in cases.items():
        assert f.evaluate(t.edge_point("e", x)) == t.edge_point("e", y)
    assert f.evaluate(t.vertex_point("v1")) == t.vertex_point("v0")


def test_orbit():
    t = interval()
    f = tent_on(t)
    orb = orbit(f, t.edge_point("e", F(1, 5)), 4)
    vals = [p.t if not p.is_vertex else p.vertex for p in orb]
    assert vals == [F(1, 5), F(2, 5), F(4, 5), F(2, 5), F(4, 5)]


# -- composition and iteration --------------------------------------------------


def test_compose_pointwise_random_sweep():
    rng = random.Random(222)
    for _ in range(15):
        t = random_tree(rng, rng.randint(2, 6))
        f = random_map(rng, t)
        g = random_map(rng, t)
        h = compose(g, f)
        for x in domain_samples(t):
            assert h.evaluate(x) == g.evaluate(f.evaluate(x))


def test_iterate_pointwise():
    rng = random.Random(333)
    t = random_tree(rng, 5)
    f = random_map(rng, t)
    f3 = f.iterate(3)
    for x in domain_samples(t):
        assert f3.evaluate(x) == f.evaluate(f.evaluate(f.evaluate(x)))
    assert is_identity(f.iterate(0))
    assert maps_equal(f.iterate(1), f)


def test_tent_square_breakpoints():
    t = interval()
    f2 = tent_on(t).iterate(2)
    shape = [
        (bt, p.vertex if p.is_vertex else p.t) for bt, p in f2.breakpoints("e")
    ]
    assert shape == [
        (F(0), "v0"),
        (F(1, 4), "v1"),
        (F(1, 2), "v0"),
        (F(3, 4), "v1"),
        (F(1), "v0"),
    ]


def test_iterate_piece_budget():
    t = interval()
    f = tent_on(t)
    with pytest.raises(ResourceLimitError):
        f.iterate(12, piece_cap=100)


def test_iterate_rejects_a_negative_count():
    with pytest.raises(PreconditionError, match="iteration count must be nonnegative"):
        tent_on(interval()).iterate(-1)


def test_compose_refines_at_vertex_crossing():
    s = star3()
    pc = s.vertex_point("c")
    # g folds a2 back onto a1; f sweeps a1 across the center into a2
    f = map_from_vertex_images(
        s, {"c": s.vertex_point("l1"), "l1": s.vertex_point("l2"), "l2": s.vertex_point("l3"), "l3": pc}
    )
    g = map_from_vertex_images(
        s, {"c": pc, "l1": s.vertex_point("l1"), "l2": s.vertex_point("l1"), "l3": s.vertex_point("l3")}
    )
    h = compose(g, f)
    for x in domain_samples(s):
        assert h.evaluate(x) == g.evaluate(f.evaluate(x))
    # f's a1-piece crosses the center, so the composite needs a breakpoint there
    assert len(h.breakpoints("a1")) >= 3


# -- normal form ----------------------------------------------------------------


def test_normalize_merges_redundant_breakpoint():
    t = interval()
    p0, p1 = t.vertex_point("v0"), t.vertex_point("v1")
    wavy = PLTreeMap(t, {"e": [(0, p0), (F(1, 2), t.edge_point("e", F(1, 2))), (1, p1)]})
    norm = wavy.normalize()
    assert len(norm.breakpoints("e")) == 2
    assert is_identity(norm)
    assert maps_equal(wavy, identity_map(t))


def test_normalize_keeps_speed_changes():
    t = interval()
    p0 = t.vertex_point("v0")
    slowfast = PLTreeMap(
        t, {"e": [(0, p0), (F(1, 2), t.edge_point("e", F(1, 4))), (1, t.vertex_point("v1"))]}
    )
    assert len(slowfast.normalize().breakpoints("e")) == 3
    assert not maps_equal(slowfast, identity_map(t))


def test_normalize_is_pointwise_invariant():
    rng = random.Random(444)
    for _ in range(10):
        t = random_tree(rng, 5)
        f = random_map(rng, t)
        g = f.normalize()
        for x in domain_samples(t):
            assert f.evaluate(x) == g.evaluate(x)


def test_constant_map_normal_form():
    t = interval()
    mid = t.edge_point("e", F(1, 2))
    c = PLTreeMap(t, {"e": [(0, mid), (F(1, 3), mid), (1, mid)]})
    assert len(c.normalize().breakpoints("e")) == 2


def metric_normalize_table(f):
    """The former normal form, decided through the tree metric: the oracle.

    Breakpoint B between A->B and B->C is dropped when d(A, B) + d(B, C)
    = d(A, C) and both pieces run at the same speed; after each drop the
    run behind is tested again.
    """
    d = f.domain.distance
    table = {}
    for eid in f.domain.edge_ids:
        bps = f.breakpoints(eid)
        out = [bps[0]]
        for t, p in bps[1:]:
            while len(out) >= 2:
                t0, a = out[-2]
                t1, b = out[-1]
                dab, dbc = d(a, b), d(b, p)
                if dab + dbc != d(a, p):
                    break
                if dab * (t - t1) != dbc * (t1 - t0):
                    break
                out.pop()
            out.append((t, p))
        table[eid] = tuple(out)
    return table


def refine(rng, f):
    """f with breakpoints added at a few random parameters: the same map."""
    table = {}
    for eid in f.domain.edge_ids:
        bps = dict(f.breakpoints(eid))
        for t in rng.sample([F(k, 21) for k in range(1, 21)], rng.randint(1, 3)):
            bps.setdefault(t, f.evaluate(f.domain.edge_point(eid, t)))
        table[eid] = sorted(bps.items())
    return PLTreeMap(f.domain, table)


def hand_built_normal_forms():
    """Maps given by the breakpoints of their first edge, each with that
    edge's breakpoint count in normal form; the other edges are constant."""
    t, s = interval(), star3()

    def path(right):  # v0 -e1- v1 -e2- v2, with v1 of degree 2
        return MetricTree(
            ["v0", "v1", "v2"], [("e1", ("v0", "v1"), 1), ("e2", ("v1", "v2"), right)]
        )

    def e(x):
        return t.edge_point("e", x)

    def a2(x):
        return s.edge_point("a2", x)

    v0, v1 = t.vertex_point("v0"), t.vertex_point("v1")
    c, l1, l2 = (s.vertex_point(v) for v in ("c", "l1", "l2"))
    cases = [
        # collinear splits inside an edge
        (t, [(0, v0), (F(1, 2), e(F(1, 2))), (1, v1)], 2),
        (s, [(0, c), (F(1, 3), a2(F(1, 4))), (1, a2(F(3, 4)))], 2),
        # through a degree-2 vertex and through the centre of the star, at
        # equal and at unequal speeds
        (path(1), [(0, "v0"), (F(1, 2), "v1"), (1, "v2")], 2),
        (path(2), [(0, "v0"), (F(1, 2), "v1"), (1, "v2")], 3),
        (s, [(0, l1), (F(1, 2), c), (1, l2)], 2),
        (s, [(0, l1), (F(1, 3), c), (1, l2)], 3),
        (t, [(0, v0), (F(1, 2), e(F(1, 4))), (1, v1)], 3),
        # turn-backs at a leaf, at the centre, and at an interior point
        (t, [(0, v0), (F(1, 2), v1), (1, v0)], 3),
        (s, [(0, l1), (F(1, 2), c), (1, l1)], 3),
        (t, [(0, e(F(1, 4))), (F(1, 2), e(F(3, 4))), (1, e(F(1, 4)))], 3),
        # runs of constant pieces, and constant pieces beside moving ones
        (t, [(0, e(F(1, 2))), (F(1, 3), e(F(1, 2))), (F(2, 3), e(F(1, 2))), (1, e(F(1, 2)))], 2),
        (t, [(0, v0), (F(1, 3), v0), (F(2, 3), v0), (1, v1)], 3),
        (t, [(0, v0), (F(1, 3), v1), (1, v1)], 3),
        # a three-piece run, and two runs meeting at a turn-back
        (t, [(0, v0), (F(1, 4), e(F(1, 4))), (F(1, 2), e(F(1, 2))), (1, v1)], 2),
        (t, [(0, v0), (F(1, 4), e(F(1, 4))), (F(1, 2), e(F(1, 2))), (F(3, 4), e(F(1, 4))), (1, v0)], 3),
    ]
    out = []
    for tree, bps, count in cases:
        bps = [(x, tree.vertex_point(p) if isinstance(p, str) else p) for x, p in bps]
        first, *rest = tree.edge_ids
        ends = dict(zip(tree.edge_ends(first), (bps[0][1], bps[-1][1])))
        table = {first: bps}
        for eid in rest:  # constant at the image of the end it shares with `first`
            q = next(ends[v] for v in tree.edge_ends(eid) if v in ends)
            table[eid] = [(0, q), (1, q)]
        out.append((PLTreeMap(tree, table), first, count))
    return out


def normalize_inputs():
    rng = random.Random(5150)
    maps = [f for f, _, _ in hand_built_normal_forms()]
    for _ in range(60):
        t = random_tree(rng, rng.randint(2, 7))
        f, g = random_map(rng, t), random_map(rng, t)
        hull = t.connected_hull([random_point(rng, t), random_point(rng, t)])
        derived = [compose(f, f), compose(f, g), compose(_retraction(t, hull), f)]
        maps += [f, *derived, *(refine(rng, h) for h in derived)]
    for i in range(40):
        for f in (random_finite_order_map(i, i + 9000)[1], random_folding_map(i + 9000)[1]):
            maps += [f, compose(f, f), refine(rng, compose(f, f))]
    tent = tent_on(interval())
    maps += [tent.iterate(n) for n in range(1, 7)]
    maps += [refine(rng, tent.iterate(n)) for n in range(1, 7)]
    return maps


def test_normalize_matches_the_metric_oracle():
    dropped = kept = 0
    for f in normalize_inputs():
        expected = metric_normalize_table(f)
        g = f.normalize()
        for eid in f.domain.edge_ids:
            assert g.breakpoints(eid) == expected[eid]
        same = all(expected[eid] == f.breakpoints(eid) for eid in f.domain.edge_ids)
        assert (g is f) == same
        dropped += not same
        kept += same
    assert dropped > 100 and kept > 100


def test_hand_built_normal_forms():
    for f, eid, count in hand_built_normal_forms():
        assert len(f.normalize().breakpoints(eid)) == count


def test_normalize_asks_the_metric_nothing(monkeypatch):
    rng = random.Random(6)
    f = refine(rng, tent_on(interval()).iterate(4))
    calls = []
    plain = MetricTree.distance

    def counted(self, a, b):
        calls.append(1)
        return plain(self, a, b)

    monkeypatch.setattr(MetricTree, "distance", counted)
    assert f.normalize().piece_count == 16 < f.piece_count
    assert not calls


# -- injectivity ------------------------------------------------------------------


def test_tent_witness():
    t = interval()
    ok, wit = tent_on(t).is_injective()
    assert not ok
    assert {wit[0].t, wit[1].t} == {F(1, 4), F(3, 4)}


def test_rotation_is_injective():
    ok, wit = rotation_on(star3()).is_injective()
    assert ok and wit is None


def test_constant_piece_witness():
    t = interval()
    p0 = t.vertex_point("v0")
    f = PLTreeMap(t, {"e": [(0, p0), (F(1, 2), p0), (1, t.vertex_point("v1"))]})
    ok, (a, b) = f.is_injective()
    assert not ok
    assert f.evaluate(a) == f.evaluate(b) and a != b


def test_vertex_collision_witness():
    s = star3()
    f = map_from_vertex_images(
        s,
        {
            "c": s.vertex_point("c"),
            "l1": s.edge_point("a3", F(1, 2)),
            "l2": s.edge_point("a3", F(1, 2)),
            "l3": s.vertex_point("l3"),
        },
    )
    ok, (a, b) = f.is_injective()
    assert not ok
    assert f.evaluate(a) == f.evaluate(b) and a != b


def test_injectivity_claims_match_grid_sampling():
    rng = random.Random(555)
    for _ in range(25):
        t = random_tree(rng, rng.randint(2, 5))
        f = random_map(rng, t)
        ok, wit = f.is_injective()
        if ok:
            seen = {}
            for x in domain_samples(t):
                y = f.evaluate(x)
                assert seen.setdefault(y, x) == x, "claimed injective but grid collides"
        else:
            a, b = wit
            assert a != b
            assert f.evaluate(a) == f.evaluate(b)


def pairwise_is_injective(f):
    """Oracle: intersect every pair of piece image arcs.

    A constant piece is immediately non-injective.  Otherwise the first
    pair, in piece order, whose arcs meet with different preimages at one
    canonical shared point gives the witness.
    """
    pieces = [ArcPiece.of(f.domain, eid, p) for eid, p in pieces_with_edges(f)]
    for piece in pieces:
        if piece.is_constant:
            return (False, (f.domain.edge_point(piece.edge, piece.t0),
                            f.domain.edge_point(piece.edge, piece.t1)))

    def canonical(sub):
        for eid in sorted(sub.segments, key=str):
            lo, hi = sub.segments[eid][0]
            if lo < hi:
                return f.domain.edge_point(eid, (lo + hi) / 2)
        return sub.corner_points()[0]

    def preimage(piece, q):
        s = distance_arclength_of(piece.arc, q)
        return f.domain.edge_point(piece.edge, piece.param_at_arclength(s))

    subs = [arc_subtree(p.arc) for p in pieces]
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            meet = subs[i].intersect(subs[j])
            if meet.is_empty():
                continue
            q = canonical(meet)
            xi, xj = preimage(pieces[i], q), preimage(pieces[j], q)
            if xi != xj:
                return (False, (xi, xj))
    return (True, None)


def interval_involution(rng, k):
    """Breakpoints 0 = t_0 < ... < t_k = 1 with t_i sent to t_{k-i}."""
    t = interval()
    ts = [F(0)] + sorted(rng.sample([F(j, 4 * k) for j in range(1, 4 * k)], k - 1)) + [F(1)]
    return PLTreeMap(t, {"e": [(ts[i], t.edge_point("e", ts[k - i])) for i in range(k + 1)]})


def late_collision_star(arms):
    """The rotation star with its last two arms both sent onto arm a0."""
    tree, rot = rotation_star(arms)
    images = {v: rot.vertex_image(v) for v in tree.vertex_ids}
    images[f"l{arms - 2}"] = images[f"l{arms - 1}"] = tree.vertex_point("l0")
    return map_from_vertex_images(tree, images)


def test_injectivity_sweep_matches_pairwise_oracle():
    rng = random.Random(8080)
    maps = []
    for _ in range(150):
        f = random_map(rng, random_tree(rng, rng.randint(3, 7)))
        maps += [f, compose(f, f)]
    for i in range(150):
        maps.append(random_finite_order_map(i, i + 9000)[1])
        maps.append(random_folding_map(i + 9000)[1])
    for k in range(1, 40):
        maps.append(interval_involution(rng, k))
    maps += [tent_on(interval()).iterate(6), late_collision_star(60)]
    verdicts = set()
    for f in maps:
        expected = pairwise_is_injective(f)
        assert f.is_injective() == expected
        verdicts.add(expected[0])
    assert verdicts == {True, False}


def count_intersections(monkeypatch):
    calls = []
    plain = Subtree.intersect

    def counted(self, other):
        calls.append(1)
        return plain(self, other)

    monkeypatch.setattr(Subtree, "intersect", counted)
    return calls


def test_injective_star_intersects_no_pair(monkeypatch):
    calls = count_intersections(monkeypatch)
    _, rot = rotation_star(400)
    assert rot.is_injective() == (True, None)
    assert not calls


def test_late_collision_intersects_one_pair(monkeypatch):
    """The first colliding pair comes last, after about 80,000 pairs that do not collide."""
    calls = count_intersections(monkeypatch)
    f = late_collision_star(400)
    ok, (a, b) = f.is_injective()
    assert not ok
    assert (a, b) == (f.domain.edge_point("a398", F(1, 2)), f.domain.edge_point("a399", F(1, 2)))
    assert len(calls) <= 1


def fixture_maps():
    """Every fixture at its default parameters, and the stem maps deeper."""
    maps = [build_fixture(kind)[1] for kind in FIXTURE_KINDS]
    maps += [build_fixture(kind, {"k": "6"})[1] for kind in ("stem_collapse", "stem_sweep")]
    return maps


def test_piece_collisions_match_the_subtree_oracle():
    """Every pair of non-constant pieces of 500 random folding maps and of
    the fixtures: the meet's canonical point read off the arcs, and the
    collision read off it, against the meet built as a subtree."""
    maps = [random_folding_map(seed)[1] for seed in range(500)] + fixture_maps()
    pairs = met = collided = 0
    for f in maps:
        pieces = [(eid, p) for eid, p in pieces_with_edges(f) if p.table]
        for i, a in enumerate(pieces):
            for b in pieces[i + 1 :]:
                q = _meet_point(f.domain, a[1].table, b[1].table)
                arcs = (ArcPiece.of(f.domain, *a).arc, ArcPiece.of(f.domain, *b).arc)
                assert q == subtree_meet_point(f.domain, *arcs)
                pair = f._collision(*a, *b)
                assert pair == subtree_collision(f, a, b)
                pairs += 1
                met += q is not None
                collided += pair is not None
    assert pairs > 10_000 and met > 1000 and collided > 500


def injectivity_maps(rng):
    """Maps with no constant piece: random folding maps and their squares,
    random maps, finite-order maps and the fixtures."""
    maps = []
    for seed in range(80):
        f = random_folding_map(seed + 500)[1]
        maps += [f, compose(f, f)]
    for _ in range(100):
        maps.append(random_map(rng, random_tree(rng, rng.randint(2, 6))))
    maps += [random_finite_order_map(seed, seed + 1)[1] for seed in range(40)]
    maps += fixture_maps() + [late_collision_star(12), tent_on(interval()).iterate(4)]
    return [f for f in maps if all(p.table for _, p in pieces_with_edges(f))]


def test_marked_pieces_are_exactly_the_colliding_ones():
    """The sweep and the buckets mark exactly the pieces the pairwise oracle
    finds colliding, so the least marked piece collides with a later one
    and the witness search returns (the guard `_decide_injective` proves)."""
    rng = random.Random(9191)
    marked_maps = unmarked_maps = 0
    for f in injectivity_maps(rng):
        marked = f._marked()
        assert marked == colliding_pieces(f)
        if marked:
            marked_maps += 1
            assert any(subtree_collision(f, marked[0], b) for b in marked[1:])
        else:
            unmarked_maps += 1
    assert marked_maps > 100 and unmarked_maps > 30


def test_bucket_keys_tell_tuple_vertex_ids_from_edge_positions():
    """Vertex ids that are tuples shaped like edge positions: a folding map
    whose collision is a single point, and vertices (("e", 1, 2),) and
    ("e", 1, 2) next to the edge position e at 1/2, decided as the oracle
    decides them."""
    ids = [("e", 1, 2), (("e", 1, 2),), ("e",), ("w", 0)]
    tree = MetricTree(
        ids,
        [("e", (ids[0], ids[1]), 1), ("f", (ids[0], ids[2]), 2), ("g", (ids[0], ids[3]), 1)],
    )
    mid = tree.edge_point("e", F(1, 2))
    maps = [
        # the three leaves meet only at e's midpoint: a vertex-free collision
        map_from_vertex_images(tree, {ids[0]: tree.vertex_point(ids[1]), ids[1]: mid,
                                      ids[2]: mid, ids[3]: mid}),
        # two legs folded onto the third, meeting at the branch vertex
        map_from_vertex_images(tree, {ids[0]: tree.vertex_point(ids[0]),
                                      ids[1]: tree.vertex_point(ids[2]),
                                      ids[2]: tree.vertex_point(ids[2]),
                                      ids[3]: tree.vertex_point(ids[3])}),
        # an injective map that sends a leaf to the midpoint of e
        map_from_vertex_images(tree, {ids[0]: tree.vertex_point(ids[0]), ids[1]: mid,
                                      ids[2]: tree.vertex_point(ids[2]),
                                      ids[3]: tree.vertex_point(ids[3])}),
    ]
    verdicts = []
    for f in maps:
        got = f.is_injective()
        assert got == pairwise_is_injective(f)
        assert f._marked() == colliding_pieces(f)
        verdicts.append(got[0])
    assert verdicts == [False, False, True]


def test_injectivity_builds_no_subtree_and_measures_nothing(monkeypatch):
    maps = [build_fixture("tent")[1], build_fixture("stem_sweep")[1]]
    maps += [random_folding_map(seed + 2000)[1] for seed in range(200)]
    measured, built = [], []
    plain_distance, plain_build = MetricTree.distance, Subtree.build
    monkeypatch.setattr(
        MetricTree, "distance", lambda self, a, b: measured.append(1) or plain_distance(self, a, b)
    )
    monkeypatch.setattr(
        Subtree, "build", classmethod(lambda cls, *args: built.append(1) or plain_build(*args))
    )
    assert all(f.is_injective()[0] is False for f in maps)
    assert measured == [] and built == []


# -- fixed points -------------------------------------------------------------------


def test_fixed_sets_frozen():
    t = interval()
    tent = tent_on(t)
    assert composite_fixed_set(None, tent).vertices == frozenset({"v0"})
    assert composite_fixed_set(None, tent).segments == {"e": ((F(2, 3), F(2, 3)),)}
    fx2 = composite_fixed_set(None, tent.iterate(2))
    assert fx2.segments == {
        "e": ((F(2, 5), F(2, 5)), (F(2, 3), F(2, 3)), (F(4, 5), F(4, 5)))
    }
    shift = PLTreeMap(t, {"e": [(0, t.edge_point("e", F(1, 2))), (1, t.vertex_point("v1"))]})
    assert composite_fixed_set(None, shift) == point_subtree(t, t.vertex_point("v1"))
    flip = map_from_vertex_images(
        t, {"v0": t.vertex_point("v1"), "v1": t.vertex_point("v0")}
    )
    assert composite_fixed_set(None, flip) == point_subtree(t, t.edge_point("e", F(1, 2)))


def test_identity_fixes_everything():
    s = star3()
    assert composite_fixed_set(None, identity_map(s)) == s.full_subtree()


def test_fixed_set_matches_grid_scan():
    rng = random.Random(666)
    for _ in range(25):
        t = random_tree(rng, rng.randint(2, 6))
        f = random_map(rng, t)
        fixed = composite_fixed_set(None, f)
        for x in domain_samples(t):
            assert (f.evaluate(x) == x) == fixed.contains(x)


def solver_maps(rng):
    """Every fixture, the one-vertex identity, and seeded folding,
    finite-order and random PL maps."""
    maps = [build_fixture(kind)[1] for kind in fixtures.FIXTURE_KINDS]
    maps += [PLTreeMap(MetricTree(["o"], []), {})]
    maps += [random_folding_map(seed)[1] for seed in range(25)]
    maps += [random_finite_order_map(seed, seed + 7)[1] for seed in range(25)]
    maps += [random_map(rng, random_tree(rng, rng.randint(2, 6))) for _ in range(100)]
    return maps


def fixed_set_shape(sub):
    """A tree map fixes some point, so its fixed set holds an interval or only points."""
    return "intervals" if any(lo < hi for ivs in sub.segments.values() for lo, hi in ivs) else "points"


def test_fixed_point_set_matches_the_former_solve():
    rng = random.Random(4091)
    shapes = {"points": 0, "intervals": 0}
    for f in solver_maps(rng):
        got = composite_fixed_set(None, f)
        assert got == solve_fixed_points(f), f
        shapes[fixed_set_shape(got)] += 1
    assert min(shapes.values()) >= 10


def test_composite_fixed_set_matches_compose_then_solve():
    """Fix(outer . inner) solved from the factors equals the fixed set of
    the composite built and solved the former way: f^(n-1) and f in both
    orders for n = 2, ..., 5, and two random maps on one tree."""
    rng = random.Random(5147)
    shapes = {"points": 0, "intervals": 0}
    pairs = []
    for f in solver_maps(rng):
        g = f
        for _ in range(2, 6):
            pairs += [(g, f), (f, g)]
            g = compose(g, f)
            if g.piece_count > 100:
                break
    for _ in range(100):
        t = random_tree(rng, rng.randint(2, 6))
        pairs.append((random_map(rng, t), random_map(rng, t)))
    for outer, inner in pairs:
        got = composite_fixed_set(outer, inner)
        assert got == composed_fixed_set(outer, inner), (outer, inner)
        shapes[fixed_set_shape(got)] += 1
    assert min(shapes.values()) >= 50
    assert composite_fixed_set(None, pairs[0][1]) == solve_fixed_points(pairs[0][1])
    with pytest.raises(PreconditionError, match="same tree"):
        composite_fixed_set(tent_on(interval()), identity_map(star3()))


def test_cut_count_is_the_cuts_compose_makes():
    rng = random.Random(6029)
    for _ in range(60):
        t = random_tree(rng, rng.randint(2, 6))
        outer, inner = random_map(rng, t), random_map(rng, t)
        cuts = sum(len(_compose_piece(outer, piece)) for _, piece in pieces_with_edges(inner))
        assert cut_count(outer, inner) == cuts >= compose(outer, inner).piece_count


def test_compose_rejects_maps_on_different_trees():
    s = star3()
    t = star3()
    rot = rotation_on(s)
    assert maps_equal(compose(rot, identity_map(t)), rot)  # equal trees, distinct objects
    t2 = MetricTree(
        ["c", "l1", "l2", "l3"],
        [("a1", ("c", "l1"), 2), ("a2", ("c", "l2"), 1), ("a3", ("c", "l3"), 1)],
    )
    with pytest.raises(PreconditionError):
        compose(rot, identity_map(t2))
    with pytest.raises(PreconditionError):
        compose(identity_map(t2), rot)


# -- hull machinery ------------------------------------------------------------------


def test_project_onto_matches_pointwise_retraction():
    # a map projected onto a connected subtree: the retraction composed after it
    rng = random.Random(777)
    for _ in range(12):
        t = random_tree(rng, rng.randint(3, 6))
        f = random_map(rng, t)
        z = t.connected_hull([random_point(rng, t), random_point(rng, t)])
        g = compose(_retraction(t, z), f)
        for x in domain_samples(t):
            assert g.evaluate(x) == t.retract(z, f.evaluate(x))
        assert z.union(g.image()) == z


def test_project_onto_pins_overshooting_pieces():
    t = interval()
    tent = tent_on(t)
    # the tent maps [1/4, 3/4] over [1/2, 1]; retracting onto [0, 1/2]
    # pins that whole stretch at the target's far end
    target = t.connected_hull([t.vertex_point("v0"), t.edge_point("e", F(1, 2))])
    g = compose(_retraction(t, target), tent)
    far = t.edge_point("e", F(1, 2))
    for x in (F(1, 8), F(1, 4), F(3, 8), F(1, 2), F(5, 8), F(3, 4), F(7, 8)):
        expect = tent.evaluate(t.edge_point("e", x))
        if F(1, 4) < x < F(3, 4):
            expect = far
        assert g.evaluate(t.edge_point("e", x)) == expect
    assert g.breakpoints("e") == (
        (F(0), t.vertex_point("v0")),
        (F(1, 4), far),
        (F(3, 4), far),
        (F(1), t.vertex_point("v0")),
    )


def test_retracted_power_is_the_power_on_the_hull():
    # the hull solver's map: f composed n times onto the retraction to the
    # hull agrees with f^n there and is constant on each component off it
    rng = random.Random(999)
    for _ in range(30):
        t = random_tree(rng, rng.randint(3, 6))
        f = random_map(rng, t)
        n = rng.randint(1, 3)
        hull = t.connected_hull([random_point(rng, t) for _ in range(rng.randint(1, 3))])
        h = _retraction(t, hull)
        for _ in range(n):
            h = compose(f, h)
        fn = f.iterate(n)
        for x in domain_samples(t):
            if hull.contains(x):
                assert h.evaluate(x) == fn.evaluate(x)
        for comp in union_find_components(t, hull):
            value = fn.evaluate(comp.attachment)
            for x in domain_samples(t):
                if comp.contains(x):
                    assert h.evaluate(x) == value


def test_find_periodic_in_hull_cases():
    t = interval()
    tent = tent_on(t)
    x = find_periodic_in_hull(tent, [t.vertex_point("v0"), t.edge_point("e", F(1, 2))], 1)
    assert tent.evaluate(x) == x

    s = star3()
    rot = rotation_on(s)
    x = find_periodic_in_hull(rot, [s.edge_point("a1", F(1, 2))], 3)
    y = x
    for _ in range(3):
        y = rot.evaluate(y)
    assert y == x

    # the hull [0, 1/4] doubles twice to [0, 1] under the tent, covering it
    x = find_periodic_in_hull(tent, [t.vertex_point("v0"), t.edge_point("e", F(1, 4))], 2)
    y = tent.evaluate(tent.evaluate(x))
    assert y == x


def test_find_periodic_requires_covering():
    t = interval()
    shift = PLTreeMap(t, {"e": [(0, t.edge_point("e", F(1, 2))), (1, t.vertex_point("v1"))]})
    # the shifted hull of [0, 1/4] moves away and never covers it
    with pytest.raises(PreconditionError):
        find_periodic_in_hull(shift, [t.vertex_point("v0"), t.edge_point("e", F(1, 4))], 1)


def test_find_periodic_covering_without_periodic_point():
    # tripod with centre c: f swaps the ends a and b, sends c to the
    # midpoint of c-d and fixes d; the images of a and b span [a, b]
    # again, yet f fixes no point of [a, b]
    t = MetricTree(
        ["a", "b", "c", "d"],
        [("ca", ("c", "a"), 1), ("cb", ("c", "b"), 1), ("cd", ("c", "d"), 1)],
    )
    f = map_from_vertex_images(
        t,
        {
            "a": t.vertex_point("b"),
            "b": t.vertex_point("a"),
            "c": t.edge_point("cd", F(1, 2)),
            "d": t.vertex_point("d"),
        },
    )
    ends = [t.vertex_point("a"), t.vertex_point("b")]
    hull = t.connected_hull(ends)
    assert covers_by_hulls(t, [f.evaluate(p) for p in ends], ends)
    assert composite_fixed_set(None, f).intersect(hull).is_empty()
    with pytest.raises(ConsistencyError, match="no fixed point of the n-th iterate in the hull"):
        find_periodic_in_hull(f, ends, 1)


def tripod_swap():
    """The tripod map of `test_find_periodic_covering_without_periodic_point`
    and the two ends whose hull it covers without fixing a point of it."""
    t = MetricTree(
        ["a", "b", "c", "d"],
        [("ca", ("c", "a"), 1), ("cb", ("c", "b"), 1), ("cd", ("c", "d"), 1)],
    )
    images = {"a": "b", "b": "a", "d": "d"}
    f = map_from_vertex_images(
        t, {**{v: t.vertex_point(w) for v, w in images.items()}, "c": t.edge_point("cd", F(1, 2))}
    )
    return f, [t.vertex_point("a"), t.vertex_point("b")]


def test_hull_search_matches_the_former_last_step():
    """The hull search, its last composition solved from the factors,
    answers as composing all n steps did: the same point, the same
    budget error, or no point at all."""
    rng = random.Random(6311)
    t = interval()
    cases = [(*tripod_swap(), n) for n in (1, 3)]
    cases += [(tent_on(t), [t.vertex_point("v0"), t.edge_point("e", F(2, 3))], n) for n in (1, 2, 3, 4, 5)]
    for _ in range(120):
        tree = random_tree(rng, rng.randint(2, 6))
        f = random_map(rng, tree)
        n = rng.randint(1, 3)
        # point sets drawn until one covers, the last one drawn kept either way
        for _ in range(30):
            pts = [random_point(rng, tree) for _ in range(rng.randint(1, 3))]
            advanced = pts
            for _ in range(n):
                advanced = [f.evaluate(p) for p in advanced]
            if covers_by_hulls(tree, advanced, pts):
                break
        cases.append((f, pts, n))
    answers = {}
    for f, pts, n in cases:
        for cap in (DEFAULT_PIECE_CAP, 6):
            got = outcome(find_periodic_in_hull, f, pts, n, cap)
            assert got == outcome(hull_by_composing, f, pts, n, cap), (f, pts, n, cap)
            kind = got[1].split(" (")[0] if isinstance(got, tuple) else "point"
            answers[kind] = answers.get(kind, 0) + 1
    assert answers["point"] >= 100
    assert answers["no fixed point of the n-th iterate in the hull"] >= 3
    assert answers["hull search exceeded the piece budget"] >= 20


def test_cover_test_matches_the_hull_oracle():
    """hull(cover) holds hull(points) exactly when every point lies on an
    arc from cover[0]: against both hulls built, on advanced point sets
    that cover and on sets that do not."""
    rng = random.Random(6312)
    answers = {True: 0, False: 0}
    for _ in range(300):
        tree = random_tree(rng, rng.randint(2, 7))
        f = random_map(rng, tree)
        pts = [random_point(rng, tree) for _ in range(rng.randint(1, 4))]
        cover = [f.evaluate(p) for p in pts]
        for cover in (cover, [random_point(rng, tree) for _ in range(rng.randint(1, 4))], pts):
            got = _covers(tree, cover, pts)
            assert got == covers_by_hulls(tree, cover, pts)
            answers[got] += 1
    assert min(answers.values()) > 150


def test_hull_search_builds_one_hull(monkeypatch):
    calls = []
    plain = MetricTree.connected_hull
    monkeypatch.setattr(
        MetricTree, "connected_hull", lambda self, pts: calls.append(1) or plain(self, pts)
    )
    t = interval()
    searches = [
        (tent_on(t), [t.vertex_point("v0"), t.edge_point("e", F(2, 3))], n) for n in (1, 2, 3)
    ]
    searches.append((rotation_on(star3()), [star3().edge_point("a1", F(1, 2))], 3))
    for f, pts, n in searches:
        x = find_periodic_in_hull(f, pts, n)
        assert orbit(f, x, n)[-1] == x
    assert len(calls) == len(searches)


def test_find_periodic_piece_budget():
    t = interval()
    tent = tent_on(t)
    # 0 and 2/3 are fixed, so the hull [0, 2/3] covers itself; the
    # tent's n-th power has about 2^n pieces over it
    pts = [t.vertex_point("v0"), t.edge_point("e", F(2, 3))]
    x = find_periodic_in_hull(tent, pts, 6)
    assert orbit(tent, x, 6)[-1] == x
    with pytest.raises(ResourceLimitError):
        find_periodic_in_hull(tent, pts, 6, piece_cap=20)


def test_find_periodic_rejects_bad_arguments():
    t = interval()
    tent = tent_on(t)
    with pytest.raises(PreconditionError):
        find_periodic_in_hull(tent, [t.vertex_point("v0")], 0)
    with pytest.raises(PreconditionError):
        find_periodic_in_hull(tent, [], 1)


def test_single_point_domain_maps():
    t = MetricTree(["o"], [])
    o = t.vertex_point("o")
    f = PLTreeMap(t, {})
    assert f.piece_count == 0
    assert f.evaluate(o) == o
    assert f.iterate(3).evaluate(o) == o
    assert is_identity(f.iterate(3))
    assert composite_fixed_set(None, f) == t.full_subtree()
    assert composite_fixed_set(None, f).vertices == frozenset({"o"})


def test_one_vertex_tree_has_only_the_identity():
    t = MetricTree(["o"], [])
    o = t.vertex_point("o")
    f = PLTreeMap(t, {})
    derived = [
        f,
        map_from_vertex_images(t, {}),
        identity_map(t),
        compose(f, f),
        _retraction(t, t.full_subtree()),
        f.iterate(0),
        f.iterate(5),
    ]
    for g in derived:
        assert g.vertex_image("o") == o
        assert g.evaluate(o) == o
        assert is_identity(g)


def test_vertex_keyed_table_is_rejected():
    t = MetricTree(["o"], [])
    with pytest.raises(StructureError, match="'o'"):
        PLTreeMap(t, {"o": t.vertex_point("o")})
    s = star3()
    table = {eid: identity_map(s).breakpoints(eid) for eid in s.edge_ids}
    with pytest.raises(StructureError, match="'c'"):
        PLTreeMap(s, {**table, "c": s.vertex_point("c")})


# -- images -------------------------------------------------------------------------


def oracle_image(f):
    """The former `image`: every piece arc as a subtree, plus vertex images."""
    segs, verts = [], []
    for _, piece in pieces_with_edges(f):
        sub = arc_subtree(piece_arc(f.domain, piece))
        segs += [(e, lo, hi) for e, ivs in sub.segments.items() for lo, hi in ivs]
        verts += list(sub.vertices)
    for img in f._vimg.values():
        if img.is_vertex:
            verts.append(img.vertex)
        else:
            segs.append((img.edge, img.t, img.t))
    return Subtree.build(f.domain, segs, verts)


def oracle_image_of_arc(f, arc):
    """The former `image_of_arc`: every piece scanned per arc segment."""
    tree = f.domain
    if arc.is_degenerate():
        return point_subtree(tree, f.evaluate(arc.a))
    out = Subtree.empty(tree)
    for eid, t0, t1 in arc.segments:
        lo, hi = (t0, t1) if t0 <= t1 else (t1, t0)
        for piece in f._by_edge[eid]:
            a, b = max(lo, piece.t0), min(hi, piece.t1)
            if a > b or (a == b and not (a == lo == hi)):
                continue
            pa = eval_in_piece(tree, piece, a)
            pb = eval_in_piece(tree, piece, b)
            out = out.union(arc_subtree(tree.arc(pa, pb)))
            out = out.union(point_subtree(tree, pa))
    return out


def oracle_image_of_subtree(f, sub):
    """The former `image_of_subtree`: one union per vertex and interval."""
    tree = f.domain
    out = Subtree.empty(tree)
    for v in sub.vertices:
        out = out.union(point_subtree(tree, f.evaluate(tree.vertex_point(v))))
    for eid, intervals in sub.segments.items():
        for lo, hi in intervals:
            a = tree.edge_point(eid, lo)
            b = tree.edge_point(eid, hi)
            if a == b:
                out = out.union(point_subtree(tree, f.evaluate(a)))
            else:
                out = out.union(oracle_image_of_arc(f, tree.arc(a, b)))
    return out


def random_subtree(rng, tree):
    """A closed, possibly disconnected set: intervals, single points, bare vertices."""
    grid = [F(k, 8) for k in range(9)]
    segs = []
    for _ in range(rng.randint(0, 3)):
        lo, hi = sorted(rng.sample(grid, 2)) if rng.random() < 0.7 else [rng.choice(grid)] * 2
        segs.append((rng.choice(tree.edge_ids), lo, hi))
    verts = rng.sample(tree.vertex_ids, rng.randint(0, 2))
    return Subtree.build(tree, segs, verts)


def any_point(rng, tree):
    return random_point(rng, tree) if tree.edge_ids else tree.vertex_point(tree.vertex_ids[0])


def test_image_routines_match_the_former_ones():
    rng = random.Random(4242)
    maps = []
    for _ in range(60):
        f = random_map(rng, random_tree(rng, rng.randint(2, 7)))
        maps += [f, compose(f, f)]
    for i in range(20):
        maps.append(random_finite_order_map(i, i + 300)[1])
        maps.append(random_folding_map(i + 300)[1])
    point = MetricTree(["o"], [])
    maps.append(PLTreeMap(point, {}))
    onto = set()
    for f in maps:
        tree = f.domain
        assert f.image() == oracle_image(f)
        onto.add(f.image() == tree.full_subtree())
        subs = [random_subtree(rng, tree) for _ in range(4)] if tree.edge_ids else []
        subs += [tree.full_subtree(), point_subtree(tree, any_point(rng, tree))]
        for sub in subs:
            assert f.image_of_subtree(sub) == oracle_image_of_subtree(f, sub)
        for _ in range(4):
            a = any_point(rng, tree)
            b = a if rng.random() < 0.25 else any_point(rng, tree)
            arc = tree.arc(a, b)
            assert f.image_of_subtree(arc_subtree(arc)) == oracle_image_of_arc(f, arc)
    assert onto == {True, False}


def count_arc_calls(monkeypatch):
    """Record every path the tree walks: `MetricTree._path`, which `arc`
    calls after validating and the table constructor calls directly."""
    calls = []
    plain = MetricTree._path

    def counted(self, a, b):
        calls.append(1)
        return plain(self, a, b)

    monkeypatch.setattr(MetricTree, "_path", counted)
    return calls


def test_image_of_whole_pieces_reuses_their_arcs(monkeypatch):
    _, rot = rotation_star(50)
    calls = count_arc_calls(monkeypatch)
    assert rot.image() == rot.domain.full_subtree()
    assert not calls


def test_compose_reuses_the_arcs_of_inner_pieces(monkeypatch):
    # every result piece's table is cut, turned round or joined from the
    # outer pieces' stored tables; the tree is asked for no path
    _, rot = rotation_star(50)
    calls = count_arc_calls(monkeypatch)
    h = compose(rot, rot)
    assert h.piece_count == 50
    assert len(calls) == 0


def test_project_onto_and_normalize_ask_the_tree_for_no_arc(monkeypatch):
    # the retraction is a table, built before counting; composing after it is not
    rng = random.Random(8)
    cases = []
    for _ in range(20):
        t = random_tree(rng, rng.randint(3, 7))
        f = random_map(rng, t)
        hull = t.connected_hull([random_point(rng, t) for _ in range(rng.randint(1, 3))])
        cases.append((f, hull, _retraction(t, hull), refine(rng, compose(f, f))))
    # pieces whose arcs miss the hull take the retraction
    missing = sum(
        not hull.intersect_arc(piece_arc(f.domain, p))
        for f, hull, _, _ in cases
        for _, p in pieces_with_edges(f)
    )
    calls = count_arc_calls(monkeypatch)
    dropped = 0
    for f, _, r, refined in cases:
        compose(r, f)
        dropped += refined.normalize().piece_count < refined.piece_count
    assert missing > 20 and dropped == len(cases)
    assert len(calls) == 0


def test_image_of_subtree_rejects_another_tree():
    t = interval()
    other = interval()
    other_star = star3()
    f = tent_on(t)
    assert f.image_of_subtree(other.full_subtree()) == t.full_subtree()  # an equal tree
    with pytest.raises(PreconditionError):
        f.image_of_subtree(other_star.full_subtree())


# -- pieces-first composition against the table route ----------------------------------


def table_normalize(f):
    """The former `normalize`: the merged breakpoints rebuilt through the table."""
    table = {}
    for eid, pieces in f._by_edge.items():
        starts = [
            pieces[0],
            *(b for a, b in zip(pieces, pieces[1:]) if not _continues(f.domain._edges, a, b)),
        ]
        table[eid] = [(p.t0, p.p0) for p in starts] + [(F(1), pieces[-1].p1)]
    if sum(map(len, table.values())) == f.piece_count + len(table):
        return f
    return PLTreeMap(f.domain, table)


def table_derive(f, rewrite):
    """The former `_derive`: rewritten breakpoints, built and normalized as a table."""
    table = {}
    for eid, pieces in f._by_edge.items():
        bps = []
        for piece in pieces:
            bps.extend(rewrite(eid, piece)[1 if bps else 0 :])
        table[eid] = bps
    return table_normalize(PLTreeMap(f.domain, table))


def table_compose(outer, inner):
    return table_derive(inner, lambda eid, piece: table_compose_piece(outer, eid, piece))


def table_compose_piece(outer, eid, piece):
    """The former `_compose_piece`: `evaluate` at every cut of the inner arc."""
    piece = ArcPiece.of(outer.domain, eid, piece)
    t0, t1 = piece.t0, piece.t1
    if piece.is_constant:
        q = outer.evaluate(piece.p0)
        return [(t0, q), (t1, q)]
    arc = piece.arc
    cuts = set()
    offsets = arc.offsets
    for s in offsets[1:-1]:
        cuts.add(s)
    for k, (aeid, u0, u1) in enumerate(arc.segments):
        lo, hi = (u0, u1) if u0 <= u1 else (u1, u0)
        for tb in breakpoint_params(outer._by_edge[aeid])[1:-1]:
            if lo < tb < hi:
                cuts.add(offsets[k] + abs(tb - u0) * outer.domain.edge_length(aeid))
    bps = [(t0, outer.evaluate(piece.p0))]
    for s in sorted(cuts):
        bps.append((piece.param_at_arclength(s), outer.evaluate(arc.point_at(s))))
    bps.append((t1, outer.evaluate(piece.p1)))
    return bps


def arc_retract(tree, target, z):
    """The former `MetricTree.retract`: the first hit of the arc to a corner."""
    if target.contains(z):
        return z
    path = tree.arc(z, target.corner_points()[0])
    return path.point_at(target.intersect_arc(path)[0][0])


def table_project_onto(f, target):
    def rewrite(eid, piece):
        piece = ArcPiece.of(f.domain, eid, piece)
        t0, t1 = piece.t0, piece.t1
        hits = [] if piece.is_constant else target.intersect_arc(piece.arc)
        if not hits:
            q = arc_retract(f.domain, target, piece.p0)
            return [(t0, q), (t1, q)]
        s1, s2 = hits[0]
        a1, a2 = piece.arc.point_at(s1), piece.arc.point_at(s2)
        bps = [(t0, a1)]
        ta, tb = piece.param_at_arclength(s1), piece.param_at_arclength(s2)
        if ta > t0:
            bps.append((ta, a1))
        if tb > ta:
            bps.append((tb, a2))
        if t1 > tb:
            bps.append((t1, a2))
        return bps

    return table_derive(f, rewrite)


def assert_same_pieces(g, h):
    assert g._vimg == h._vimg
    assert g._by_edge.keys() == h._by_edge.keys()
    for pieces, h_pieces in zip(g._by_edge.values(), h._by_edge.values()):
        assert len(pieces) == len(h_pieces)
        for p, q in zip(pieces, h_pieces):
            assert (p.t0, p.t1, p.p0, p.p1) == (q.t0, q.t1, q.p0, q.p1)
            assert p.table == q.table


def analysis_maps():
    """The maps the `analysis` benchmark runs its CLI commands on."""
    return [
        fixtures.odometer_tower(3, (2, 4, 8))[1],
        fixtures.odometer_tower(3, (3, 6, 12))[1],
        fixtures.odometer_tower(4, (2, 4, 8, 16))[1],
        fixtures.odometer_tower(5, (2, 4, 8, 16, 32))[1],
        rotation_star(6)[1],
        fixtures.stem_collapse_map(5)[1],
        fixtures.stem_sweep_map(3)[1],
        fixtures.shift_and_tent()["tent"][1],
    ]


def test_compose_matches_the_table_route():
    rng = random.Random(1313)
    pairs = []
    for _ in range(80):
        t = random_tree(rng, rng.randint(2, 7))
        f, g = random_map(rng, t), random_map(rng, t)
        pairs += [(f, g), (g, f), (f, f)]
    for i in range(25):
        for f in (random_finite_order_map(i, i + 700)[1], random_folding_map(i + 700)[1]):
            pairs += [(f, f), (f, compose(f, f)), (compose(f, f), f)]
    for f in analysis_maps():
        f2 = compose(f, f)
        pairs += [(f, f), (f, f2), (f2, f)]
    pairs.append((tent_on(interval()).iterate(5), tent_on(interval()).iterate(3)))
    pairs.append((PLTreeMap(MetricTree(["o"], []), {}),) * 2)
    for outer, inner in pairs:
        assert_same_pieces(compose(outer, inner), table_compose(outer, inner))


def test_compose_matches_the_table_route_on_large_powers():
    # big . small and small . big, about 2,000 pieces each
    _, f = fixtures.stem_sweep_map(3)
    f4 = f.iterate(4)
    assert f4.piece_count == 576
    for outer, inner in [(f4, f), (f, f4)]:
        g = compose(outer, inner)
        assert g.piece_count == 1977
        assert_same_pieces(g, table_compose(outer, inner))


def test_project_onto_and_normalize_match_the_table_route():
    rng = random.Random(2323)
    maps = [f for f, _, _ in hand_built_normal_forms()] + analysis_maps()
    for _ in range(60):
        maps.append(random_map(rng, random_tree(rng, rng.randint(2, 7))))
    for i in range(20):
        maps += [random_finite_order_map(i, i + 800)[1], random_folding_map(i + 800)[1]]
    pinned = 0
    for f in maps:
        t = f.domain
        for _ in range(3):
            hull = t.connected_hull([any_point(rng, t) for _ in range(rng.randint(1, 3))])
            g = compose(_retraction(t, hull), f)
            assert_same_pieces(g, table_project_onto(f, hull))
            pinned += sum(not hull.contains(p) for p in (f.evaluate(x) for x in t.grid_points(2)))
        refined = refine(rng, compose(f, f))
        assert_same_pieces(refined.normalize(), table_normalize(refined))
    assert pinned > 100


def test_retraction_matches_the_table_route():
    # the hull solver's retraction, against projecting the identity onto the hull
    rng = random.Random(4545)
    trees = [f.domain for f in analysis_maps()] + [star3(), interval()]
    trees += [random_tree(rng, rng.randint(2, 8)) for _ in range(40)]
    cases = 0
    for t in trees:
        hulls = [t.full_subtree(), point_subtree(t, any_point(rng, t))]
        for _ in range(4):
            hulls.append(t.connected_hull([any_point(rng, t) for _ in range(rng.randint(1, 4))]))
        for hull in hulls:
            r = _retraction(t, hull)
            assert_same_pieces(r, table_project_onto(identity_map(t), hull))
            assert r.normalize() is r
            for x in domain_samples(t):
                assert r.evaluate(x) == t.retract(hull, x)
            cases += 1
    assert cases == 6 * len(trees)


def test_retraction_of_a_deep_path_retracts_one_vertex(monkeypatch):
    """On a 4,000-vertex path, onto a hull at the root, the far leaf and the
    middle, `_retraction` retracts the root alone and reads every other
    vertex off the one preorder pass; it agrees with `retract` at the
    vertices, checked at every 50th."""
    n = 4000
    names = [f"p{i}" for i in range(n)]
    t = MetricTree(names, [(f"e{i}", (names[i], names[i + 1]), 1) for i in range(n - 1)])
    retracted = []
    plain = MetricTree.retract

    def retract(tree, target, z):
        retracted.append(z)
        return plain(tree, target, z)

    monkeypatch.setattr(MetricTree, "retract", retract)
    for i in (0, n - 2, n // 2):
        hull = t.connected_hull([t.vertex_point(f"p{i}"), t.edge_point(f"e{i}", F(1, 2))])
        r = _retraction(t, hull)
        assert len(retracted) == 1
        for v in names[::50]:
            assert r.evaluate(t.vertex_point(v)) == plain(t, hull, t.vertex_point(v))
        retracted.clear()


# -- segment tables against the image arcs they replace --------------------------------


def corpus_maps():
    """Every map of `decision_corpus` and every fixture map."""
    homeos, folding, sags = decision_corpus(random.Random(3636))
    return homeos + folding + sags + fixture_maps()


def test_the_window_lookup_matches_the_params_column():
    """An edge holds only its pieces, so each lookup bisects their windows:
    `_meeting`, `evaluate` and `breakpoints` against the former bisection
    of a column of the window starts followed by 1, on every corpus and
    fixture map and its square.  The windows are random, some ending on a
    breakpoint, on 0 or on 1.  `cut_count` is the number of pieces
    `compose` cuts before it merges them."""
    rng = random.Random(3939)
    windows = on_breakpoint = on_ends = 0
    for f in corpus_maps():
        tree = f.domain
        f2 = compose(f, f)
        for outer, inner in ((f, f), (f, f2), (f2, f)):
            cuts = sum(len(_compose_piece(outer, piece)) for _, piece in pieces_with_edges(inner))
            assert cut_count(outer, inner) == cuts
        for g in (f, f2):
            for eid in tree.edge_ids:
                pieces = g._by_edge[eid]
                assert g.breakpoints(eid) == breakpoints_by_params(g, eid)
                params = breakpoint_params(pieces)
                ends = sorted({*params, *(F(rng.randint(1, 59), 60) for _ in range(3))})
                for _ in range(5):
                    lo, hi = sorted(rng.sample(ends, 2))
                    assert plmap._meeting(pieces, lo, hi) == meeting_by_params(pieces, lo, hi)
                    windows += 1
                    on_breakpoint += lo in params[1:-1] or hi in params[1:-1]
                    on_ends += lo == 0 or hi == 1
                for t in ends[1:-1]:
                    want = eval_in_piece(tree, piece_at_by_params(pieces, t), t)
                    assert g.evaluate(tree.edge_point(eid, t)) == want
    assert windows > 40_000 and on_breakpoint > 4_000 and on_ends > 4_000


def window_maps():
    """Maps whose pieces run long image paths: random maps and their
    squares, folding maps and the fixtures."""
    rng = random.Random(3737)
    maps = []
    for _ in range(40):
        f = random_map(rng, random_tree(rng, rng.randint(2, 8)))
        maps += [f, compose(f, f)]
    return maps + [random_folding_map(seed + 3700)[1] for seed in range(30)] + fixture_maps()


def test_piece_window_is_the_arc_between_its_ends():
    """A piece's table cut to a window of its parameter (`_cut`) is the
    table of the arc between the window's images, and the former window of
    the piece's image arc at the same shares of its length: windows ending
    on a grid, at segment starts and inside segments.  The whole window is
    the table itself."""
    rng = random.Random(2004)
    windows = 0
    for f in window_maps():
        tree = f.domain
        for eid, piece in pieces_with_edges(f):
            if not piece.table:
                continue
            assert _cut(piece.table, piece.t0, piece.t1) == list(piece.table)
            arc = ArcPiece.of(tree, eid, piece)
            width = piece.t1 - piece.t0
            grid = {piece.t0 + width * k / 6 for k in range(7)} | {x for *_, x, _ in piece.table}
            grid = sorted(grid | {piece.t0 + width * F(rng.randint(1, 97), 98)})
            for a, b in rng.sample([(a, b) for a in grid for b in grid if a < b], 3):
                cut = _cut(piece.table, a, b)
                pa, pb = (evaluate_on_arcs(f, tree.edge_point(eid, t)) for t in (a, b))
                between = tree.arc(pa, pb)
                sub = ArcPiece(eid, a, b, pa, pb, between)
                assert tuple(cut) == arc_table(sub, between)
                former = arc_window(arc.arc, arc.arclength_at_param(a), arc.arclength_at_param(b))
                assert tuple((e, u0, u1) for e, u0, u1, _, _ in cut) == former.segments
                windows += 1
    assert windows > 1000


def assert_windows_tile(g, what):
    for _, piece in pieces_with_edges(g):
        if piece.table:
            assert windows_tile(piece.table, piece.t0, piece.t1), (what, piece.table)


def test_table_windows_tile_every_piece():
    """Every table's windows tile its piece's window in order (`windows_tile`):
    on every corpus and fixture map as loaded; composed, f^(n-1) . f for
    n = 2..6 while f^(n-1) has at most 200 pieces; normalized after added
    breakpoints; cut to random windows (`_cut`), which the cut's windows
    tile; and the hull retraction onto a random hull."""
    rng = random.Random(3939)
    cuts = joined = 0
    for f in corpus_maps():
        t = f.domain
        assert_windows_tile(f, "loaded")
        g = f
        for n in range(2, 7):
            g = compose(g, f)
            assert_windows_tile(g, n)
            if g.piece_count > 200:
                break
        refined = refine(rng, f) if t.edge_ids else f
        normal = refined.normalize()
        assert_windows_tile(normal, "normalized")
        joined += normal.piece_count < refined.piece_count
        for _, piece in pieces_with_edges(f):
            if piece.table:
                grid = [piece.t0 + (piece.t1 - piece.t0) * F(k, 12) for k in range(13)]
                a, b = sorted(rng.sample(grid, 2))
                assert windows_tile(_cut(piece.table, a, b), a, b), (piece.table, a, b)
                cuts += 1
        hull = t.connected_hull([any_point(rng, t) for _ in range(rng.randint(1, 3))])
        assert_windows_tile(_retraction(t, hull), "retraction")
    assert cuts > 5000 and joined > 500


def entry_fields(table):
    """A table's entries with each rational spelled out as its type and its
    stored numerator and denominator, so that tables compare field by field."""
    return [
        tuple((type(x), x._numerator, x._denominator) if isinstance(x, F) else x for x in entry)
        for entry in table
    ]


def test_table_matches_the_rational_table():
    """The integer-arclength `_table` gives every entry the rational one
    gives (`rational_table`), as the same reduced `_Q`: on every piece of
    more than one segment of every corpus and fixture map as loaded, and
    on random pieces whose windows and whose first and last segments run
    part of their edge."""
    compared = partial = 0
    for f in corpus_maps():
        _, g = load_instance(dump_instance(f.domain, f))
        edges = g.domain._edges
        for _, piece in pieces_with_edges(g):
            if len(piece.table) > 1:
                segs = [entry[:3] for entry in piece.table]
                want = rational_table(edges, segs, piece.t0, piece.t1)
                assert entry_fields(piece.table) == entry_fields(want), (piece.table, want)
                compared += 1
    rng = random.Random(4141)
    for _ in range(3000):
        t = random_tree(rng, rng.randint(3, 8))
        segs = t._path(random_point(rng, t), random_point(rng, t))
        if len(segs) < 2:
            continue
        t0, t1 = sorted(rng.sample([F(k, 12) for k in range(13)], 2))
        if rng.random() < 0.3:
            t0, t1 = F(0), F(1)
        t0, t1 = as_fraction(t0), as_fraction(t1)
        got = _table(t._edges, segs, t0, t1)
        want = rational_table(t._edges, segs, t0, t1)
        assert entry_fields(got) == entry_fields(want), (segs, t0, t1)
        partial += (t0, t1) != (0, 1) and segs[0][1].denominator != 1 != segs[-1][2].denominator
    assert compared > 400 and partial > 300, (compared, partial)


def test_canonical_point_is_the_least_corner():
    """The canonical point read directly equals the former one, the least of
    every corner sorted by `point_key` when no edge opens with an interval of
    positive length: on random subtrees, and on every fixed set the hull
    search answers from over the decision corpus, one to three steps."""
    rng = random.Random(4040)
    sets = []
    for _ in range(300):
        t = random_tree(rng, rng.randint(2, 7))
        sets.append(random_subtree(rng, t))
    seen = []
    plain = plmap._canonical_point

    def canonical(tree, sub):
        seen.append(sub)
        return plain(tree, sub)

    homeos, folding, sags = decision_corpus(random.Random(4141))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plmap, "_canonical_point", canonical)
        for f in homeos + folding + sags:
            t = f.domain
            for n in (1, 2, 3):
                pts = [any_point(rng, t) for _ in range(rng.randint(1, 3))]
                outcome(find_periodic_in_hull, f, pts, n, 200)
    sets += seen
    corners = {True: 0, False: 0}  # by whether the set holds a vertex
    for sub in sets:
        if sub.is_empty():
            continue
        assert _canonical_point(sub.tree, sub) == sorted_canonical_point(sub.tree, sub), sub
        if not any(lo < hi for ivs in sub.segments.values() for lo, hi in ivs[:1]):
            assert _canonical_point(sub.tree, sub) == sub.corner_points()[0]
            corners[bool(sub.vertices)] += 1
    assert len(seen) > 500 and min(corners.values()) > 50


def test_piece_location_matches_the_distance_oracle():
    """The preimage in a piece of a point of its image, read off the table
    segment that holds the point (`_preimage_in_piece`), is the one the
    point's distance along the piece's image arc gives: every grid point
    on the arc of each piece."""
    on = 0
    for f in window_maps():
        tree = f.domain
        for eid, piece in pieces_with_edges(f):
            if not piece.table:
                continue
            arc = ArcPiece.of(tree, eid, piece)
            for q in tree.grid_points(3):
                if distance_arc_contains(arc.arc, q):
                    s = distance_arclength_of(arc.arc, q)
                    want = tree.edge_point(eid, arc.param_at_arclength(s))
                    assert f._preimage_in_piece(eid, piece, q) == want, (eid, q)
                    on += 1
    assert on > 1000


def test_evaluate_matches_the_arc_route_on_the_corpus():
    """`evaluate` from the tables against the former route on the image
    arcs, at every grid point and breakpoint of every corpus and fixture
    map."""
    checked = 0
    for f in corpus_maps():
        tree = f.domain
        points = list(tree.grid_points(3))
        points += [tree.edge_point(eid, t) for eid in tree.edge_ids for t, _ in f.breakpoints(eid)]
        for x in points:
            assert f.evaluate(x) == evaluate_on_arcs(f, x)
        checked += len(points)
    assert checked > 25_000


def test_compose_matches_the_arc_route_on_the_corpus():
    """f^n composed from the tables, for n = 1..6 while f^n has at most 200
    pieces: each step f^(n-1) . f has the pieces, tables and ends the
    former arc route cuts and joins, and f^n equals f^n by squaring."""
    steps = 0
    for f in corpus_maps():
        g = f
        for n in range(2, 7):
            h = compose(g, f)
            assert tables_match_arcs(h, arc_compose(g, f)), n
            assert maps_equal(h, f.iterate(n))
            steps += 1
            if h.piece_count > 200:
                break
            g = h
    assert steps > 3000


def test_composite_fixed_set_matches_the_arc_solve_on_the_corpus():
    """The table solve of Fix(f), Fix(f . f) and Fix(f^2 . f) from their
    factors against the former solve through the arcs' offsets."""
    pairs = 0
    for f in corpus_maps():
        g = compose(f, f)
        for outer, inner in ((None, f), (f, f), (g, f)):
            assert composite_fixed_set(outer, inner) == arc_composite_fixed_set(outer, inner)
            pairs += 1
    assert pairs > 2000


def test_retraction_matches_the_table_built_one_on_the_corpus():
    """The retraction built from pieces equals, piece for piece, the one
    the validating table constructor builds, on the whole tree, a point
    and hulls of random points of every corpus tree."""
    rng = random.Random(3838)
    cases = 0
    for f in corpus_maps():
        t = f.domain
        hulls = [t.full_subtree(), point_subtree(t, any_point(rng, t))]
        hulls += [t.connected_hull([any_point(rng, t) for _ in range(rng.randint(1, 4))])]
        for hull in hulls:
            r = _retraction(t, hull)
            assert_same_pieces(r, table_retraction(t, hull))
            assert list(r._vimg.items()) == list(table_retraction(t, hull)._vimg.items())
            cases += 1
    assert cases > 2000


def test_injectivity_witness_matches_the_pairwise_oracle_on_the_corpus():
    """The sweep's verdict and witness pair, read off the tables, against
    the pairwise intersection of the image arcs, on every corpus and
    fixture map."""
    verdicts = {True: 0, False: 0}
    for f in corpus_maps():
        got = f.is_injective()
        assert got == pairwise_is_injective(f)
        verdicts[got[0]] += 1
    assert min(verdicts.values()) > 50
