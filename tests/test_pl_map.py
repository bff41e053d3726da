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
from dendrodyn.fixtures import random_finite_order_map, random_folding_map, rotation_star
from dendrodyn.plmap import (
    PLTreeMap,
    compose,
    find_periodic_in_hull,
    identity_map,
    map_from_vertex_images,
    project_onto,
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
    orb = f.orbit(t.edge_point("e", F(1, 5)), 4)
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
    assert f.iterate(0).is_identity()
    assert f.iterate(1).equals(f)


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
    assert norm.is_identity()
    assert wavy.equals(identity_map(t))


def test_normalize_keeps_speed_changes():
    t = interval()
    p0 = t.vertex_point("v0")
    slowfast = PLTreeMap(
        t, {"e": [(0, p0), (F(1, 2), t.edge_point("e", F(1, 4))), (1, t.vertex_point("v1"))]}
    )
    assert len(slowfast.normalize().breakpoints("e")) == 3
    assert not slowfast.equals(identity_map(t))


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
    pieces = f._pieces
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
        s = piece.arc.arclength_of(q)
        return f.domain.edge_point(piece.edge, piece.param_at_arclength(s))

    subs = [p.arc.as_subtree() for p in pieces]
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
    verdicts = set()
    for f in maps:
        expected = pairwise_is_injective(f)
        assert f.is_injective() == expected
        verdicts.add(expected[0])
    assert verdicts == {True, False}


def test_injective_star_intersects_no_pair(monkeypatch):
    calls = []
    plain = Subtree.intersect

    def counted(self, other):
        calls.append(1)
        return plain(self, other)

    monkeypatch.setattr(Subtree, "intersect", counted)
    _, rot = rotation_star(400)
    assert rot.is_injective() == (True, None)
    assert not calls


# -- fixed points -------------------------------------------------------------------


def test_fixed_sets_frozen():
    t = interval()
    tent = tent_on(t)
    assert tent.fixed_point_set().vertices == frozenset({"v0"})
    assert tent.fixed_point_set().segments == {"e": ((F(2, 3), F(2, 3)),)}
    fx2 = tent.iterate(2).fixed_point_set()
    assert fx2.segments == {
        "e": ((F(2, 5), F(2, 5)), (F(2, 3), F(2, 3)), (F(4, 5), F(4, 5)))
    }
    shift = PLTreeMap(t, {"e": [(0, t.edge_point("e", F(1, 2))), (1, t.vertex_point("v1"))]})
    assert shift.fixed_point_set() == t.point_subtree(t.vertex_point("v1"))
    flip = map_from_vertex_images(
        t, {"v0": t.vertex_point("v1"), "v1": t.vertex_point("v0")}
    )
    assert flip.fixed_point_set() == t.point_subtree(t.edge_point("e", F(1, 2)))


def test_identity_fixes_everything():
    s = star3()
    assert identity_map(s).fixed_point_set() == s.full_subtree()


def test_fixed_set_matches_grid_scan():
    rng = random.Random(666)
    for _ in range(25):
        t = random_tree(rng, rng.randint(2, 6))
        f = random_map(rng, t)
        fixed = f.fixed_point_set()
        for x in domain_samples(t):
            assert (f.evaluate(x) == x) == fixed.contains(x)


def test_compose_rejects_maps_on_different_trees():
    s = star3()
    t = star3()
    rot = rotation_on(s)
    assert compose(rot, identity_map(t)).equals(rot)  # equal trees, distinct objects
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
    rng = random.Random(777)
    for _ in range(12):
        t = random_tree(rng, rng.randint(3, 6))
        f = random_map(rng, t)
        z = t.connected_hull([random_point(rng, t), random_point(rng, t)])
        g = project_onto(f, z)
        for x in domain_samples(t):
            assert g.evaluate(x) == t.retract(z, f.evaluate(x))
        assert z.contains_subtree(g.image())


def test_project_onto_pins_overshooting_pieces():
    t = interval()
    tent = tent_on(t)
    # the tent maps [1/4, 3/4] over [1/2, 1]; retracting onto [0, 1/2]
    # pins that whole stretch at the target's far end
    target = t.connected_hull([t.vertex_point("v0"), t.edge_point("e", F(1, 2))])
    g = project_onto(tent, target)
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
        h = project_onto(identity_map(t), hull)
        for _ in range(n):
            h = compose(f, h)
        fn = f.iterate(n)
        for x in domain_samples(t):
            if hull.contains(x):
                assert h.evaluate(x) == fn.evaluate(x)
        for comp in t.components_minus(hull):
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
    assert t.connected_hull([f.evaluate(p) for p in ends]).contains_subtree(hull)
    assert f.fixed_point_set().intersect(hull).is_empty()
    with pytest.raises(ConsistencyError, match="no fixed point of the n-th iterate in the hull"):
        find_periodic_in_hull(f, ends, 1)


def test_find_periodic_piece_budget():
    t = interval()
    tent = tent_on(t)
    # 0 and 2/3 are fixed, so the hull [0, 2/3] covers itself; the
    # tent's n-th power has about 2^n pieces over it
    pts = [t.vertex_point("v0"), t.edge_point("e", F(2, 3))]
    x = find_periodic_in_hull(tent, pts, 6)
    assert tent.orbit(x, 6)[-1] == x
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
    f = PLTreeMap(t, {"o": o})
    assert f.piece_count == 0
    assert f.evaluate(o) == o
    assert f.iterate(3).evaluate(o) == o
    assert f.iterate(3).is_identity()
    assert f.fixed_point_set() == t.full_subtree()
    assert f.fixed_point_set().vertices == frozenset({"o"})


# -- images -------------------------------------------------------------------------


def oracle_image(f):
    """The former `image`: every piece arc as a subtree, plus vertex images."""
    segs, verts = [], []
    for piece in f._pieces:
        sub = piece.arc.as_subtree()
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
        return tree.point_subtree(f.evaluate(arc.a))
    out = Subtree.empty(tree)
    for eid, t0, t1 in arc.segments:
        lo, hi = (t0, t1) if t0 <= t1 else (t1, t0)
        for piece in f._pieces:
            if piece.edge != eid:
                continue
            a, b = max(lo, piece.t0), min(hi, piece.t1)
            if a > b or (a == b and not (a == lo == hi)):
                continue
            pa = f._eval_in_piece(piece, a)
            pb = f._eval_in_piece(piece, b)
            out = out.union(tree.arc(pa, pb).as_subtree())
            out = out.union(tree.point_subtree(pa))
    return out


def oracle_image_of_subtree(f, sub):
    """The former `image_of_subtree`: one union per vertex and interval."""
    tree = f.domain
    out = Subtree.empty(tree)
    for v in sub.vertices:
        out = out.union(tree.point_subtree(f.evaluate(tree.vertex_point(v))))
    for eid, intervals in sub.segments.items():
        for lo, hi in intervals:
            a = tree.edge_point(eid, lo)
            b = tree.edge_point(eid, hi)
            if a == b:
                out = out.union(tree.point_subtree(f.evaluate(a)))
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
    maps.append(PLTreeMap(point, {"o": point.vertex_point("o")}))
    onto = set()
    for f in maps:
        tree = f.domain
        assert f.image() == oracle_image(f)
        onto.add(f.image() == tree.full_subtree())
        subs = [random_subtree(rng, tree) for _ in range(4)] if tree.edge_ids else []
        subs += [tree.full_subtree(), tree.point_subtree(any_point(rng, tree))]
        for sub in subs:
            assert f.image_of_subtree(sub) == oracle_image_of_subtree(f, sub)
        for _ in range(4):
            a = any_point(rng, tree)
            b = a if rng.random() < 0.25 else any_point(rng, tree)
            arc = tree.arc(a, b)
            assert f.image_of_arc(arc) == oracle_image_of_arc(f, arc)
    assert onto == {True, False}


def test_image_of_whole_pieces_reuses_their_arcs(monkeypatch):
    _, rot = rotation_star(50)
    calls = []
    plain = MetricTree.arc

    def counted(self, a, b):
        calls.append(1)
        return plain(self, a, b)

    monkeypatch.setattr(MetricTree, "arc", counted)
    assert rot.image() == rot.domain.full_subtree()
    assert not calls


def test_image_of_subtree_rejects_another_tree():
    t = interval()
    other = interval()
    other_star = star3()
    f = tent_on(t)
    assert f.image_of_subtree(other.full_subtree()) == t.full_subtree()  # an equal tree
    with pytest.raises(PreconditionError):
        f.image_of_subtree(other_star.full_subtree())
    with pytest.raises(PreconditionError):
        f.image_of_arc(other_star.arc(other_star.vertex_point("c"), other_star.vertex_point("l1")))
