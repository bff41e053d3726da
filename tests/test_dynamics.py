import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import islice
from math import lcm

import pytest

from dendrodyn import (
    MetricTree,
    PreconditionError,
    Subtree,
    ResourceLimitError,
    dynamics,
    plmap,
)
from dendrodyn.dynamics import (
    ORBIT_STORE_PER_ITEM,
    CheckResult,
    RecurrenceVerdict,
    Witness,
    HORIZON_DEFAULT,
    _certificate,
    _orbit_points,
    _OrbitStore,
    _power_image,
    _walk,
    check_escape,
    check_full_invariance,
    check_no_preperiodic,
    check_no_radial_stretch,
    decide_pointwise_recurrent,
    fixed_set,
    periodic_structure,
    periodic_union,
    returns_to_components,
    vertex_period,
)
from dendrodyn.fixtures import (
    odometer_tower,
    random_finite_order_map,
    random_folding_map,
    rotation_star,
    stem_sweep_map,
)
from dendrodyn.plmap import (
    DEFAULT_PIECE_CAP,
    PLTreeMap,
    built,
    composite_fixed_set,
    find_periodic_in_hull,
    identity_map,
    map_from_vertex_images,
)
from dendrodyn.odometer import detect_cycles_of_sets
from dendrodyn.verify import run_checks
from oracles import (
    ComposingPowers,
    decision_corpus,
    is_identity,
    orbit,
    outcome,
    pieces_with_edges,
    random_involution,
    sagged,
    union_find_components,
)


def interval():
    return MetricTree(["v0", "v1"], [("e", ("v0", "v1"), 1)])


def pt(tree, t):
    t = F(t)
    if t == 0:
        return tree.vertex_point("v0")
    if t == 1:
        return tree.vertex_point("v1")
    return tree.edge_point("e", t)


def tent_on(t):
    return PLTreeMap(t, {"e": [(0, pt(t, 0)), (F(1, 2), pt(t, 1)), (1, pt(t, 0))]})


def flip_on(t):
    return PLTreeMap(t, {"e": [(0, pt(t, 1)), (1, pt(t, 0))]})


def shift_on(t):
    return PLTreeMap(t, {"e": [(0, pt(t, F(1, 2))), (1, pt(t, 1))]})


def star(k):
    verts = ["c"] + [f"l{i}" for i in range(k)]
    edges = [(f"a{i}", ("c", f"l{i}"), 1) for i in range(k)]
    return MetricTree(verts, edges)


def rotation_on(s, k):
    images = {"c": s.vertex_point("c")}
    for i in range(k):
        images[f"l{i}"] = s.vertex_point(f"l{(i + 1) % k}")
    return map_from_vertex_images(s, images)


def orbit_period(f, p, bound):
    """Brute oracle: smallest n <= bound with f^n(p) = p, else None."""
    z = p
    for n in range(1, bound + 1):
        z = f.evaluate(z)
        if z == p:
            return n
    return None


# -- fixed sets and periodic structure ---------------------------------------


def test_fixed_set_frozen_tent():
    t = interval()
    tent = tent_on(t)
    fix1 = fixed_set(tent, 1)
    assert fix1.vertices == frozenset({"v0"})
    assert fix1.segments == {"e": ((F(2, 3), F(2, 3)),)}
    fix2 = fixed_set(tent, 2)
    assert fix2.vertices == frozenset({"v0"})
    assert fix2.segments == {
        "e": ((F(2, 5), F(2, 5)), (F(2, 3), F(2, 3)), (F(4, 5), F(4, 5)))
    }


def test_fixed_set_agrees_with_orbit_scan():
    t = interval()
    tent = tent_on(t)
    grid = [pt(t, F(i, 30)) for i in range(31)]
    for n in (1, 2, 3):
        fix = fixed_set(tent, n)
        for p in grid:
            z = p
            for _ in range(n):
                z = tent.evaluate(z)
            assert fix.contains(p) == (z == p)


def test_fixed_set_matches_the_fixed_set_of_the_power():
    rng = random.Random(77)
    maps = [random_finite_order_map(i, i + 40)[1] for i in range(12)]
    maps += [random_folding_map(i + 40)[1] for i in range(12)]
    maps += [permuted_star_map(rng, rng.randint(2, 6))[1] for _ in range(6)]
    for f in maps:
        for n in (1, 2, 3, 4):
            expected = composite_fixed_set(None, f.iterate(n, 5000))
            assert fixed_set(f, n, 5000) == expected
            assert fixed_set(f, n, 5000) == expected  # served from the map's store


def test_fixed_set_budget_errors_are_not_stored():
    tent = tent_on(interval())
    with pytest.raises(ResourceLimitError):
        fixed_set(tent, 12, piece_cap=100)
    assert fixed_set(tent, 12).vertices == frozenset({"v0"})
    with pytest.raises(ResourceLimitError):
        fixed_set(tent, 12, piece_cap=100)


def test_fixed_set_budget_outcomes_match_the_composing_route():
    """Each fixed set, or the exact budget error, is what building every
    power whole gives, over budgets and request orders on maps with no
    certificate.  The tent's first requests pin the squaring schedule:
    reaching f^5 by a fresh squaring would report (32 > 20) at n = 6."""
    for (n, cap), message in (((6, 20), "64 > 20"), ((7, 50), "128 > 50"), ((4, 5), "16 > 5")):
        tent = tent_on(interval())
        error = ("ResourceLimitError", f"iterate exceeded the piece budget ({message})")
        assert outcome(fixed_set, tent, n, piece_cap=cap) == error
        assert outcome(ComposingPowers(tent_on(interval())).fixed_set, n, cap) == error
    t = interval()
    sag = PLTreeMap(t, {"e": [(0, pt(t, 0)), (F(1, 2), pt(t, F(1, 4))), (1, pt(t, 1))]})
    rng = random.Random(2207)
    maps = [(tent_on(t), 7), (sag, 7), (stem_sweep_map(3)[1], 4), (shift_on(t), 7)]
    maps += [(random_folding_map(seed)[1], 5) for seed in range(2)]
    maps += [(sagged(rng, rotation_star(3)[1]), 6) for _ in range(2)]
    orders = [(1, 2, 3, 4, 5, 6, 7), (7, 6, 5, 4, 3, 2, 1), (2, 4, 3, 6, 5, 7), (3, 5, 4, 7)]
    tallies = {"fixed": 0, "refused": 0}
    for f, top in maps:
        for cap in (3, 5, 20, 50, 200):
            for order in orders:
                requests = [(n, cap) for n in order if n <= top]
                # the same powers again under a larger budget, then the first once more
                requests += [(n, 4 * cap) for n in order if n <= top] + requests[:1]
                g = fresh_copy(f)
                oracle = ComposingPowers(fresh_copy(f))
                for n, c in requests:
                    got = outcome(fixed_set, g, n, piece_cap=c)
                    assert got == outcome(oracle.fixed_set, n, c), (f, cap, order, n, c)
                    tallies["refused" if isinstance(got, tuple) else "fixed"] += 1
    assert tallies["fixed"] > 500 and tallies["refused"] > 200


def test_fixed_set_rejects_zero_power():
    with pytest.raises(PreconditionError):
        fixed_set(tent_on(interval()), 0)


def test_periodic_structure_rejects_zero_powers():
    with pytest.raises(PreconditionError, match="need at least one power"):
        periodic_structure(tent_on(interval()), 0)


BELOW_ONE = [
    ("returns_to_components", "power", 0),
    ("returns_to_components", "power", -2),
    ("returns_to_components", "horizon", -5),
    ("returns_to_components", "horizon", 0),
    ("vertex_period", "max_period", 0),
    ("periodic_structure", "max_period", 0),
    ("periodic_union", "n", 0),
    ("periodic_union", "n", -2),
    ("check_full_invariance", "horizon", -1),
    ("check_no_preperiodic", "horizon", -1),
    ("run_checks", "depth", 0),
    ("fixed_set", "piece_cap", -5),
    ("fixed_set", "piece_cap", 0),
    ("periodic_union", "piece_cap", 0),
    ("periodic_structure", "piece_cap", 0),
    ("check_no_radial_stretch", "piece_cap", 0),
    ("check_escape", "piece_cap", 0),
    ("detect_cycles_of_sets", "piece_cap", 0),
    ("run_checks", "piece_cap", 0),
    ("find_periodic_in_hull", "piece_cap", 0),
    ("iterate", "piece_cap", 0),
    ("power_factors", "piece_cap", -1),
    ("grid_points", "per_edge", 0),
    # not an int: refused by type before any count is read
    ("returns_to_components", "power", True),
    ("vertex_period", "max_period", 2.5),
    ("periodic_structure", "upto", 2.0),
    ("periodic_union", "n", 1.5),
    ("run_checks", "depth", 2.5),
    ("run_checks", "horizon", False),
    ("fixed_set", "piece_cap", True),
    ("check_escape", "horizon", 1.5),
    ("check_escape", "horizon", True),
    ("detect_cycles_of_sets", "depth", 2.0),
    ("find_periodic_in_hull", "n", True),
    ("iterate", "n", 2.5),
    ("iterate", "n", False),
    ("power_factors", "n", 1.5),
    ("grid_points", "per_edge", 1.5),
    ("grid_points", "per_edge", True),
]


@pytest.mark.parametrize("name, param, value", BELOW_ONE)
def test_bounds_below_one_are_refused_by_name(name, param, value):
    """A bound below 1 answers no question, so it is refused on entry,
    never answered as "not periodic", an empty set, a pass, a skip or a
    blown piece budget.  A bound that is not an int (a float, a bool) is
    refused by its type, never read as some other count."""
    t = interval()
    f = tent_on(t)
    bound = {param: value}
    calls = {
        "returns_to_components": lambda: returns_to_components(f, pt(t, F(1, 4)), pt(t, F(1, 2)), **bound),
        "vertex_period": lambda: vertex_period(f, "v0", **bound),
        "periodic_structure": lambda: periodic_structure(f, **{"upto": 2, **bound}),
        "periodic_union": lambda: periodic_union(f, **{"n": 2, **bound}),
        "check_full_invariance": lambda: check_full_invariance(f, **bound),
        "check_no_preperiodic": lambda: check_no_preperiodic(f, **bound),
        "run_checks": lambda: run_checks(f, **bound),
        "fixed_set": lambda: fixed_set(f, 2, **bound),
        "check_no_radial_stretch": lambda: check_no_radial_stretch(f, **bound),
        "check_escape": lambda: check_escape(f, **bound),
        "detect_cycles_of_sets": lambda: detect_cycles_of_sets(f, **{"depth": 2, **bound}),
        "find_periodic_in_hull": lambda: find_periodic_in_hull(
            f, [pt(t, F(1, 4)), pt(t, F(3, 4))], **{"n": 2, **bound}
        ),
        "iterate": lambda: f.iterate(**{"n": 2, **bound}),
        "power_factors": lambda: f.power_factors(**{"n": 2, **bound}),
        "grid_points": lambda: t.grid_points(**bound),
    }
    refusal = "at least 1" if type(value) is int else "an int"
    with pytest.raises(PreconditionError, match=f"^{param} must be {refusal}, got {value!r}$"):
        calls[name]()


def test_periodic_union_is_union_of_fixed_sets():
    t = interval()
    tent = tent_on(t)
    acc = fixed_set(tent, 1)
    for n in (2, 3):
        acc = acc.union(fixed_set(tent, n))
        assert periodic_union(tent, n) == acc


def test_periodic_structure_cumulative_is_monotone():
    tent = tent_on(interval())
    ps = periodic_structure(tent, 4)
    assert sorted(ps.fixed_sets) == [1, 2, 3, 4]
    for n in range(2, 5):
        prev, cur = ps.cumulative[n - 1], ps.cumulative[n]
        assert cur.union(prev) == cur
    assert ps.vertex_periods == {"v0": 1, "v1": None}


def test_vertex_period_values():
    t = interval()
    assert vertex_period(flip_on(t), "v0") == 2
    assert vertex_period(flip_on(t), "v1") == 2
    assert vertex_period(shift_on(t), "v1") == 1
    assert vertex_period(shift_on(t), "v0", max_period=50) is None
    s = star(3)
    rot = rotation_on(s, 3)
    assert vertex_period(rot, "c") == 1
    assert vertex_period(rot, "l0") == 3


def test_vertex_period_matches_orbit_oracle():
    s = star(4)
    rot = rotation_on(s, 4)
    for v in s.vertex_ids:
        assert vertex_period(rot, v, 20) == orbit_period(rot, s.vertex_point(v), 20)


def loop_vertex_period(f, v, max_period):
    """The former `vertex_period` loop, kept as the oracle of the walker."""
    start = f.domain.vertex_point(v)
    seen = {start: 0}
    x = start
    for k in range(1, max_period + 1):
        x = f.evaluate(x)
        if x == start:
            return k
        if x in seen:
            return None
        seen[x] = k
    return None


def test_vertex_period_matches_the_former_loop():
    maps = [odometer_tower(d, ps)[1] for d, ps in ((2, (2, 4)), (3, (2, 6, 12)), (4, (2, 4, 8, 16)))]
    maps += [rotation_star(k)[1] for k in (2, 3, 7)]
    maps += [random_folding_map(seed)[1] for seed in range(20)]
    periods = set()
    for f in maps:
        for v in f.domain.vertex_ids:
            for bound in (1, 2, 5, 16, 100):
                got = vertex_period(f, v, bound)
                assert got == loop_vertex_period(f, v, bound)
                periods.add(got)
    assert None in periods and {1, 2, 16} <= periods


# -- the decision procedure ---------------------------------------------------


def test_decide_flip_is_recurrent_with_power_two():
    verdict = decide_pointwise_recurrent(flip_on(interval()))
    assert verdict.pointwise_recurrent
    assert verdict.identity_power == 2
    assert verdict.witness is None


def test_decide_identity_has_power_one():
    verdict = decide_pointwise_recurrent(identity_map(star(3)))
    assert verdict.pointwise_recurrent
    assert verdict.identity_power == 1


def test_decide_rotation_star():
    verdict = decide_pointwise_recurrent(rotation_on(star(5), 5))
    assert verdict.pointwise_recurrent
    assert verdict.identity_power == 5


def test_decide_shift_finds_escaping_point():
    t = interval()
    sh = shift_on(t)
    verdict = decide_pointwise_recurrent(sh)
    assert not verdict.pointwise_recurrent
    assert verdict.reason == "not-surjective"
    assert verdict.witness.kind == "escaping-orbit"
    (w,) = verdict.witness.points
    assert w == pt(t, F(1, 4))
    assert not sh.image().contains(w)


def test_decide_tent_finds_collapsing_pair():
    tent = tent_on(interval())
    verdict = decide_pointwise_recurrent(tent)
    assert not verdict.pointwise_recurrent
    assert verdict.reason == "not-injective"
    a, b = verdict.witness.points
    assert a != b
    assert tent.evaluate(a) == tent.evaluate(b)


def test_decide_interior_drift_of_a_homeomorphism():
    # fixes both endpoints, pushes everything between toward v0
    t = interval()
    sag = PLTreeMap(t, {"e": [(0, pt(t, 0)), (F(1, 2), pt(t, F(1, 4))), (1, pt(t, 1))]})
    verdict = decide_pointwise_recurrent(sag)
    assert not verdict.pointwise_recurrent
    assert verdict.reason == "power-not-identity"
    assert verdict.witness.kind == "non-periodic-cutpoint"
    (q,) = verdict.witness.points
    assert sag.evaluate(q) != q


def test_decide_leaf_swap_on_spider():
    s = MetricTree(
        ["c", "p", "q", "r"],
        [("ep", ("c", "p"), 2), ("eq", ("c", "q"), 2), ("er", ("c", "r"), 1)],
    )
    swap = map_from_vertex_images(
        s,
        {
            "c": s.vertex_point("c"),
            "p": s.vertex_point("q"),
            "q": s.vertex_point("p"),
            "r": s.vertex_point("r"),
        },
    )
    verdict = decide_pointwise_recurrent(swap)
    assert verdict.pointwise_recurrent
    assert verdict.identity_power == 2


def test_decide_the_15015_leaf_cycle_tree_with_no_bound():
    # leaf cycles of lengths 3, 5, 7, 11 and 13 give the identity power
    # 15015, past `MAX_PERIOD_DEFAULT`, which bounds no decision
    sizes = (3, 5, 7, 11, 13)
    verts = ["c"]
    edges = []
    images = {"c": None}
    for gi, size in enumerate(sizes):
        group = [f"g{gi}x{j}" for j in range(size)]
        verts.extend(group)
        for j, name in enumerate(group):
            edges.append((f"e{gi}x{j}", ("c", name), 1))
            images[name] = group[(j + 1) % size]
    tree = MetricTree(verts, edges)
    point_images = {v: tree.vertex_point(images[v] or v) for v in verts}
    rot = map_from_vertex_images(tree, point_images)
    verdict = decide_pointwise_recurrent(rot)
    assert verdict == RecurrenceVerdict(True, identity_power=15015, reason="identity-power")
    assert composing_decide(rot) == verdict


def intrinsic_power(f):
    """N for a homeomorphism f: the least common multiple of the cycle
    lengths of the vertices of degree other than 2, which f permutes."""
    tree = f.domain
    intrinsic = [v for v in tree.vertex_ids if tree.degree(v) != 2]
    images = {v: f.vertex_image(v).vertex for v in intrinsic}
    power = 1
    seen = set()
    for v in intrinsic:
        if v in seen:
            continue
        cycle = [v]
        w = images[v]
        while w != v:
            cycle.append(w)
            w = images[w]
        seen.update(cycle)
        power = lcm(power, len(cycle))
    return power


def composing_decide(f, piece_cap=DEFAULT_PIECE_CAP):
    """The former decision, which composed f^N and tested it for the
    identity; kept as the oracle of the orbit walks."""
    tree = f.domain
    injective, pair = f.is_injective()
    if not injective:
        return RecurrenceVerdict(
            pointwise_recurrent=False,
            witness=Witness(
                kind="non-injective",
                points=pair,
                detail="both points map to the same image; one evaluate call each",
            ),
            reason="not-injective",
        )
    image = f.image()
    if image != tree.full_subtree():
        q = union_find_components(tree, image)[0].repr_point
        return RecurrenceVerdict(
            pointwise_recurrent=False,
            witness=Witness(
                kind="escaping-orbit",
                points=(q,),
                detail="the point is outside the image, so no orbit ever revisits it",
            ),
            reason="not-surjective",
        )
    power = intrinsic_power(f)
    h = f.iterate(power, piece_cap)
    if is_identity(h):
        return RecurrenceVerdict(
            pointwise_recurrent=True, identity_power=power, reason="identity-power"
        )
    q = union_find_components(tree, composite_fixed_set(None, h))[0].repr_point
    return RecurrenceVerdict(
        pointwise_recurrent=False,
        witness=Witness(
            kind="non-periodic-cutpoint",
            points=(q,),
            detail=(
                f"the {power}-th power moves this point along an arc with "
                "fixed ends, so it drifts one way forever"
            ),
        ),
        reason="power-not-identity",
    )


def test_orbit_certificate_matches_the_composing_oracle(monkeypatch):
    """The walks against the composed f^N: the same verdict, power and
    reason, and f^N composed on its own moves each drift witness."""
    homeos, folding, sags = decision_corpus(random.Random(4242))
    maps = homeos + folding + sags
    powers = [
        count_calls(monkeypatch, plmap, "compose"),
        count_calls(monkeypatch, PLTreeMap, "iterate"),
        count_calls(monkeypatch, PLTreeMap, "power_factors"),
        count_calls(monkeypatch, dynamics, "composite_fixed_set"),
        count_calls(monkeypatch, plmap, "composite_fixed_set"),
    ]
    verdicts = [decide_pointwise_recurrent(f) for f in maps]
    assert powers == [[], [], [], [], []]
    reasons = {}
    for f, verdict in zip(maps, verdicts):
        expected = composing_decide(f)
        assert verdict.pointwise_recurrent == expected.pointwise_recurrent
        assert verdict.identity_power == expected.identity_power
        assert verdict.reason == expected.reason
        if verdict.reason == "power-not-identity":
            (w,) = verdict.witness.points
            assert verdict.witness.kind == "non-periodic-cutpoint"
            assert fresh_copy(f).iterate(intrinsic_power(f)).evaluate(w) != w
        elif not verdict.pointwise_recurrent:
            assert verdict == expected
        reasons[verdict.reason] = reasons.get(verdict.reason, 0) + 1
    assert reasons["identity-power"] >= len(homeos)
    assert reasons["not-injective"] == len(folding)
    assert reasons["power-not-identity"] >= 350


def count_calls(monkeypatch, owner, name):
    calls = []
    plain = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return plain(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_positive_decision_composes_nothing(monkeypatch):
    composed = count_calls(monkeypatch, plmap, "compose")
    verdict = decide_pointwise_recurrent(rotation_star(200)[1])
    assert verdict == RecurrenceVerdict(True, identity_power=200, reason="identity-power")
    assert not composed


@pytest.mark.parametrize("k", [50, 200])
def test_a_drift_is_found_within_the_walk_bound(monkeypatch, k):
    """On a sagged k-arm rotation (M = k topological edges) the decision
    evaluates at most 2M points per vertex and interior breakpoint."""
    f = sagged(random.Random(k), rotation_star(k)[1])
    starts = len(f.domain.vertex_ids) + f.piece_count - len(f.domain.edge_ids)
    walked = count_calls(monkeypatch, PLTreeMap, "evaluate")
    verdict = decide_pointwise_recurrent(f)
    assert verdict.reason == "power-not-identity"
    assert 0 < len(walked) <= starts * 2 * k


def test_a_drift_walk_stops_at_its_horizon(monkeypatch):
    """On the 200-arm rotation with one arm sagged, 201 evaluations close
    the vertex cycles, and the walk from the drift start stops at its
    horizon, 2M = 400 steps, whatever room the orbit store has left."""
    f = sagged(random.Random(200), rotation_star(200)[1])
    walked = count_calls(monkeypatch, PLTreeMap, "evaluate")
    assert decide_pointwise_recurrent(f).reason == "power-not-identity"
    assert len(walked) <= 601


def test_interior_drift_still_takes_the_composing_route(monkeypatch):
    # the decision walks the drift and composes nothing; only the fixed
    # sets of the map, which has no certificate, are composed
    t = interval()
    sag = PLTreeMap(t, {"e": [(0, pt(t, 0)), (F(1, 2), pt(t, F(1, 4))), (1, pt(t, 1))]})
    expected = composing_decide(sag)
    factored = count_calls(monkeypatch, PLTreeMap, "power_factors")
    verdict = decide_pointwise_recurrent(sag)
    assert (verdict.reason, verdict.witness.kind) == (expected.reason, "non-periodic-cutpoint")
    assert verdict.witness.points == (pt(t, F(1, 2)),)
    assert factored == []
    solved = count_calls(monkeypatch, dynamics, "composite_fixed_set")
    fixed_set(sag, 1)
    assert [args[1:] for args in factored] == [(1, DEFAULT_PIECE_CAP)]
    assert solved == [(None, sag)]  # f^1 is f, solved with no outer factor
    solved.clear()
    # later powers in sequence: f^2 solved from (f, f), then each power
    # solved from (f^(n-1), f), f^(n-1) built only as that factor
    stepped = count_calls(monkeypatch, plmap, "compose")
    for n in (2, 3, 4):
        fixed_set(sag, n)
    assert [args[1:] for args in factored] == [(1, DEFAULT_PIECE_CAP), (2, DEFAULT_PIECE_CAP)]
    assert len(stepped) == 2 and len(solved) == 3
    assert all(outer is not None for outer, _ in solved)
    # the same drift behind a flip: N = 2, and the walk alone finds it
    swung = PLTreeMap(t, {"e": [(0, pt(t, 1)), (F(1, 2), pt(t, F(1, 4))), (1, pt(t, 0))]})
    expected = composing_decide(swung)
    composed = count_calls(monkeypatch, plmap, "compose")
    verdict = decide_pointwise_recurrent(swung)
    assert verdict.reason == expected.reason == "power-not-identity"
    assert len(composed) == 0


def random_small_map(rng):
    """A seeded PL map on a tree of 2 to 5 vertices: vertex images mostly
    vertices, at most one interior breakpoint an edge."""
    n = rng.randint(2, 5)
    verts = [f"n{i}" for i in range(n)]
    edges = [
        (f"e{i}", (verts[rng.randrange(i)], verts[i]), F(rng.randint(1, 5), rng.randint(1, 3)))
        for i in range(1, n)
    ]
    tree = MetricTree(verts, edges)

    def point():
        if rng.random() < 0.7:
            return tree.vertex_point(rng.choice(tree.vertex_ids))
        return tree.edge_point(rng.choice(tree.edge_ids), F(rng.randint(1, 9), 10))

    vimg = {v: point() for v in tree.vertex_ids}
    table = {}
    for eid in tree.edge_ids:
        u, w = tree.edge_ends(eid)
        mids = [(F(rng.randint(1, 7), 8), point()) for _ in range(rng.randint(0, 1))]
        table[eid] = [(F(0), vimg[u]), *mids, (F(1), vimg[w])]
    return PLTreeMap(tree, table)


def test_onto_read_off_the_leaves_matches_the_image():
    """For an injective map, f(T) = T exactly when every leaf goes to a leaf."""
    rng = random.Random(2310)
    randoms = [random_small_map(rng) for _ in range(5000)]
    t = interval()
    named = [shift_on(t), flip_on(t), identity_map(t), tent_on(t)]
    named.append(identity_map(MetricTree(["o"], [])))
    named += [rotation_star(k)[1] for k in (2, 3, 7, 30)]
    named += [
        odometer_tower(len(ps), ps)[1] for ps in ((2, 4), (3, 6), (2, 4, 8), (2, 6, 12))
    ]
    named += [random_finite_order_map(seed, seed + 500)[1] for seed in range(40)]
    named += [sagged(rng, f) for f in named[5:] if f.domain.edge_ids]
    counts = {True: 0, False: 0}  # injective random maps, onto or not
    for i, f in enumerate(randoms + named):
        if not f.is_injective()[0]:
            continue
        onto = f.image() == f.domain.full_subtree()
        assert dynamics._is_onto(f) == onto
        if i < len(randoms):
            counts[onto] += 1
    assert counts[True] + counts[False] >= 600 and counts[False] >= 250
    assert not dynamics._is_onto(named[0])  # the shift
    assert all(dynamics._is_onto(f) for f in named[1:4] + named[5:])


def test_positive_decision_builds_no_subtree_and_no_image(monkeypatch):
    maps = [rotation_star(200)[1], identity_map(star(200))]
    built_subtrees = count_calls(monkeypatch, Subtree, "build")
    images = count_calls(monkeypatch, PLTreeMap, "image_of_subtree")
    for f in maps:
        verdict = decide_pointwise_recurrent(f)
        assert verdict.pointwise_recurrent and verdict.reason == "identity-power"
    assert built_subtrees == [] and images == []


def test_piece_cap_bounds_only_the_negative_route():
    # the decision takes no budget; only the fixed sets of a map with no
    # certificate are composed, and they meet it
    _, rot = rotation_star(3)
    with pytest.raises(ResourceLimitError):
        composing_decide(rot, piece_cap=1)
    assert fixed_set(rot, 3, piece_cap=1) == rot.domain.full_subtree()
    sag = sagged(random.Random(5), rot)
    assert decide_pointwise_recurrent(sag).reason == "power-not-identity"
    with pytest.raises(ResourceLimitError):
        fixed_set(sag, 3, piece_cap=1)


def test_decide_is_deterministic():
    tent = tent_on(interval())
    assert decide_pointwise_recurrent(tent) == decide_pointwise_recurrent(tent)


# -- orbit demonstrations ------------------------------------------------------


def test_returns_to_components_shift_never_comes_back():
    t = interval()
    sh = shift_on(t)
    assert not returns_to_components(sh, pt(t, F(1, 4)), pt(t, F(1, 2)), horizon=60)
    assert returns_to_components(sh, pt(t, F(1, 4)), pt(t, F(1, 8)), horizon=5)


def test_returns_to_components_flip_returns_in_two_steps():
    t = interval()
    fl = flip_on(t)
    assert returns_to_components(fl, pt(t, F(1, 4)), pt(t, F(1, 2)), horizon=2)
    assert not returns_to_components(fl, pt(t, F(1, 4)), pt(t, F(1, 2)), horizon=1)
    assert returns_to_components(fl, pt(t, F(1, 4)), pt(t, F(1, 2)), power=2, horizon=1)


def test_returns_to_components_rejects_equal_points():
    t = interval()
    with pytest.raises(PreconditionError):
        returns_to_components(flip_on(t), pt(t, F(1, 4)), pt(t, F(1, 4)))


# -- property checks ------------------------------------------------------------


def test_full_invariance_passes_on_periodic_maps():
    t = interval()
    assert check_full_invariance(flip_on(t)).status == "pass"
    assert check_full_invariance(rotation_on(star(3), 3)).status == "pass"


def test_full_invariance_fails_on_shift_and_tent():
    t = interval()
    res = check_full_invariance(shift_on(t))
    assert res.status == "fail"
    assert res.witness.kind == "escaping-orbit"

    res = check_full_invariance(tent_on(t))
    assert res.status == "fail"
    assert res.witness.kind == "preperiodic-sample"
    x, entry = res.witness.points
    z = x
    steps = 0
    while z != entry and steps < 50:
        z = tent_on(t).evaluate(z)
        steps += 1
    assert z == entry and steps > 0


def test_no_preperiodic_witness_re_verifies():
    t = interval()
    tent = tent_on(t)
    res = check_no_preperiodic(tent)
    assert res.status == "fail"
    x, sep, rest = res.witness.points
    # the third point really is where the orbit settles
    z = x
    seen = 0
    while z != rest:
        z = tent.evaluate(z)
        seen += 1
        assert seen < 500
    # and the second point sits strictly between start and settle point
    assert t.on_arc(sep, x, rest)
    assert sep != x and sep != rest


def test_no_preperiodic_passes_on_finite_order():
    assert check_no_preperiodic(flip_on(interval())).status == "pass"
    assert check_no_preperiodic(rotation_on(star(4), 4)).status == "pass"


def test_radial_stretch_frozen_tent_witness():
    t = interval()
    res = check_no_radial_stretch(tent_on(t), 1)
    assert res.status == "fail"
    anchor, moved, image = res.witness.points
    assert anchor == pt(t, 0)
    assert moved == pt(t, F(1, 4))
    assert image == pt(t, F(1, 2))
    assert t.on_arc(moved, anchor, image)


def test_radial_stretch_passes_on_rigid_maps():
    t = interval()
    assert check_no_radial_stretch(flip_on(t), 1).status == "pass"
    assert check_no_radial_stretch(shift_on(t), 1).status == "pass"
    assert check_no_radial_stretch(rotation_on(star(3), 3), 1).status == "pass"
    assert check_no_radial_stretch(rotation_on(star(3), 3), 3).status == "pass"


def test_escape_skips_when_periodic_cutpoints_exist():
    res = check_escape(rotation_on(star(3), 3))
    assert res.status == "skipped"
    assert "periodic cutpoints" in res.detail
    assert check_escape(tent_on(interval())).status == "skipped"
    assert check_escape(flip_on(interval())).status == "skipped"


def test_escape_passes_on_shift():
    res = check_escape(shift_on(interval()))
    assert res.status == "pass"


def test_escape_respects_power_argument():
    res = check_escape(shift_on(interval()), n=3)
    assert res.status == "pass"


def test_escape_at_horizon_zero_takes_only_the_first_image():
    t = interval()
    drift = PLTreeMap(t, {"e": [(0, pt(t, 0)), (F(1, 2), pt(t, F(1, 4))), (1, pt(t, 1))]})
    for f in (shift_on(t), drift):
        assert check_escape(f, horizon=0) == check_escape(f, horizon=1)
    with pytest.raises(PreconditionError):
        check_escape(shift_on(t), n=0)


@pytest.mark.parametrize("horizon", [-1, -5])
def test_escape_refuses_a_negative_horizon_by_name(horizon):
    """Horizon 0 answers (the first image); a negative one is refused on
    entry, never answered as horizon 1."""
    t = interval()
    assert check_escape(shift_on(t), horizon=0).status == "pass"
    with pytest.raises(PreconditionError, match=f"^horizon must be at least 0, got {horizon}$"):
        check_escape(shift_on(t), horizon=horizon)


# -- sweeps over random homeomorphisms -----------------------------------------


def permuted_star_map(rng, k):
    s = star(k)
    arms = list(range(k))
    rng.shuffle(arms)
    images = {"c": s.vertex_point("c")}
    for i in range(k):
        images[f"l{i}"] = s.vertex_point(f"l{arms[i]}")
    return s, map_from_vertex_images(s, images)


def test_decide_agrees_with_orbit_checks_on_star_permutations():
    rng = random.Random(2063)
    for _ in range(25):
        k = rng.randint(2, 6)
        s, f = permuted_star_map(rng, k)
        verdict = decide_pointwise_recurrent(f)
        assert verdict.pointwise_recurrent
        n = verdict.identity_power
        for p in s.grid_points(2):
            z = p
            for _ in range(n):
                z = f.evaluate(z)
            assert z == p


# -- the labelled orbit store ----------------------------------------------------


def former_walk(f, x, horizon):
    """The former orbit walker, one evaluate call a step; the oracle of `_walk`."""
    seen = {x: 0}
    orbit = [x]
    for _ in range(horizon):
        z = f.evaluate(orbit[-1])
        if z in seen:
            return orbit, seen[z]
        seen[z] = len(orbit)
        orbit.append(z)
    return orbit, None


def assert_tail_matches_former_walk(f, x, burn_in, window):
    """Where the orbit of x ends up within burn_in + window steps, from
    `_walk`'s label and `_orbit_points`, against `former_walk`: the
    eventual cycle, entered where the former orbit enters it, when the
    orbit repeats; otherwise the orbit points after the burn-in."""
    horizon = burn_in + window
    orbit, back = former_walk(f, x, horizon)
    label = _walk(f, x, horizon)
    if back is None:
        assert label is None
        tail = islice(_orbit_points(f, x), burn_in + 1, horizon + 1)
        assert tuple(tail) == tuple(orbit[burn_in + 1 :])
    else:
        pre, cycle, entry = label
        assert pre == back
        assert cycle[entry:] + cycle[:entry] == tuple(orbit[back:])


def former_full_invariance(f, horizon=200):
    tree = f.domain
    if f.image() != tree.full_subtree():
        gap = union_find_components(tree, f.image())[0].repr_point
        return CheckResult(
            status="fail",
            witness=Witness(
                kind="escaping-orbit",
                points=(gap,),
                detail="not surjective: the point has no preimage",
            ),
        )
    unresolved = 0
    for x in tree.grid_points(3):
        orbit, preperiod = former_walk(f, x, horizon)
        if preperiod is None:
            unresolved += 1
            continue
        if preperiod > 0:
            return CheckResult(
                status="fail",
                witness=Witness(
                    kind="preperiodic-sample",
                    points=(x, orbit[preperiod]),
                    detail=(
                        f"the sample reaches a period-{len(orbit) - preperiod} orbit "
                        f"after {preperiod} steps without belonging to it"
                    ),
                ),
            )
    detail = f"{unresolved} sample orbits undetermined at horizon {horizon}" if unresolved else ""
    return CheckResult(status="pass", detail=detail)


def former_no_preperiodic(f, horizon=200):
    tree = f.domain
    for x in tree.grid_points(3):
        orbit, preperiod = former_walk(f, x, horizon)
        if not preperiod:
            continue
        period = len(orbit) - preperiod
        steps = period * -(-preperiod // period)
        r = orbit[steps]
        path = tree.arc(x, r)
        z = path.point_at(path.length / 2)
        return CheckResult(
            status="fail",
            witness=Witness(
                kind="preperiodic-sample",
                points=(x, z, r),
                detail=(
                    f"after {steps} steps the sample rests on its cycle at the "
                    "third point; the second point separates the two forever"
                ),
            ),
        )
    return CheckResult(status="pass")


def walk_maps():
    t = interval()
    maps = [tent_on(t), shift_on(t), flip_on(t)]
    maps += [random_folding_map(seed)[1] for seed in range(10)]
    maps += [random_finite_order_map(seed, seed + 7)[1] for seed in range(4)]
    maps += [odometer_tower(2, (2, 4))[1], rotation_star(5)[1]]
    return maps


def test_labelled_walk_matches_the_former_loop():
    """Seeded maps, each sample at horizons around its preperiod + period,
    asked in a shuffled order on one store and again on a fresh store per
    question; the points the store lists match the former orbit too."""
    rng = random.Random(1105)
    boundary = preperiodic = unresolved = 0
    for f in walk_maps():
        samples = f.domain.grid_points(2)
        questions = []
        for x in samples:
            orbit, back = former_walk(f, x, 30)
            ends = {len(orbit) - 1, len(orbit), len(orbit) + 1} if back is not None else set()
            questions += [(x, h) for h in {0, 1, 30} | ends]
        rng.shuffle(questions)
        for fresh in (False, True):
            f._orbits = None
            for x, h in questions:
                if fresh:
                    f._orbits = None
                orbit, back = former_walk(f, x, h)
                label = _walk(f, x, h)
                if back is None:
                    assert label is None
                    unresolved += 1
                else:
                    pre, cycle, entry = label
                    assert pre == back
                    assert cycle[entry:] + cycle[:entry] == tuple(orbit[back:])
                    boundary += len(orbit) == h
                    preperiodic += pre > 0
                if back is not None:  # the former orbit goes round its cycle
                    period = len(orbit) - back
                    orbit += [orbit[back + (i - back) % period] for i in range(len(orbit), h + 1)]
                assert list(islice(_orbit_points(f, x), h + 1)) == orbit
    assert boundary > 200 and preperiodic > 100 and unresolved > 200


def assert_samples_walk_as_former(f, horizon):
    """Every grid sample walked at the horizon, as the sampled checks walk
    the samples of a map that is not injective, against `former_walk`."""
    for x in f.domain.grid_points(3):
        assert_tail_matches_former_walk(f, x, 0, horizon)


def test_orbit_checks_match_the_former_loop():
    """On maps that are not injective the sampled checks walk their
    samples and answer as the former loop, witnesses and undetermined
    counts included.  On injective maps they walk nothing: the former
    loop finds no preperiodic sample there, and the checks answer as it
    does, less its count of undetermined samples."""
    rng = random.Random(77)
    maps = walk_maps() + [sagged(rng, rotation_star(3)[1]) for _ in range(6)]
    outcomes = set()
    for f in maps:
        injective = f.is_injective()[0]
        for horizon in (1, 4, 60):
            got = check_full_invariance(f, horizon), check_no_preperiodic(f, horizon=horizon)
            former = former_full_invariance(f, horizon), former_no_preperiodic(f, horizon)
            if injective:
                assert all(r.status == "pass" or r.witness.kind == "escaping-orbit" for r in former)
                former = tuple(replace(r, detail="") if r.status == "pass" else r for r in former)
            assert got == former
            outcomes.update((injective, r.status, r.detail != "") for r in got)
        for x in f.domain.grid_points(1):
            for burn_in, window in ((0, 1), (3, 5), (20, 30)):
                assert_tail_matches_former_walk(f, x, burn_in, window)
    assert {
        (False, "pass", True), (False, "pass", False), (False, "fail", False),
        (True, "pass", False), (True, "fail", False),
    } <= outcomes


def test_sampled_checks_walk_only_maps_that_are_not_injective():
    """The proof that spares an injective map its sample walks, against
    the former loop: over the decision corpus's homeomorphisms, sagged
    and two-sagged ones included, the former loop finds no preperiodic
    sample, and both checks pass without walking one.  On the tent and
    the folding maps the checks walk, and answer as the former loop,
    witnesses included."""
    homeos, folding, sags = decision_corpus(random.Random(4242))
    for f in homeos + sags:
        assert former_full_invariance(f, 20).status == "pass"
        assert former_no_preperiodic(f, 20) == CheckResult("pass")
        assert check_full_invariance(f, 20) == check_no_preperiodic(f, horizon=20)
        assert check_no_preperiodic(f, horizon=20) == CheckResult("pass")
        assert f._orbits is None  # no orbit was walked, so no store was made
    kinds = set()
    for f in [tent_on(interval())] + folding:
        for horizon in (4, 20):
            got = check_full_invariance(f, horizon), check_no_preperiodic(f, horizon=horizon)
            assert got == (former_full_invariance(f, horizon), former_no_preperiodic(f, horizon))
            kinds.update((r.status, r.witness and r.witness.kind) for r in got)
    assert {("fail", "preperiodic-sample"), ("fail", "escaping-orbit"), ("pass", None)} <= kinds


def test_store_stays_within_its_budget_where_orbits_never_repeat():
    """The shift, and an interval drift with fixed ends, each sample
    walked at horizon 1,000 as the sampled checks walk the samples of a
    map that is not injective."""
    t = interval()
    drift = PLTreeMap(t, {"e": [(0, pt(t, 0)), (F(1, 2), pt(t, F(1, 4))), (1, pt(t, 1))]})
    for f in (shift_on(t), drift):
        samples = t.grid_points(3)
        for v in t.vertex_ids:
            assert vertex_period(f, v, 1000) == loop_vertex_period(f, v, 1000)
        for x in samples:
            assert_tail_matches_former_walk(f, x, 400, 600)
        store = f._orbits
        assert store.budget == ORBIT_STORE_PER_ITEM * (len(t.vertex_ids) + f.piece_count)
        assert len(store.succ) + len(store.labels) == store.budget
    assert sum(_walk(drift, x, 1000) is None for x in t.grid_points(3)) == 3
    assert former_full_invariance(drift, 1000).detail == "3 sample orbits undetermined at horizon 1000"
    assert check_full_invariance(drift, 1000) == CheckResult("pass")


def nearly_full_store(f, room):
    """A fresh store on f padded with entries no walk looks up, so that
    exactly `room` entries are left."""
    f._orbits = None
    store = _OrbitStore.of(f)
    store.succ.update((("pad", i), None) for i in range(store.room() - room))
    assert store.room() == room
    return store


def test_a_cycle_met_with_the_store_nearly_full_is_labelled_whole():
    """A k-cycle closed with room for only 1..k-1 labels, walked first
    from each of its points; then every start on it, at the horizon
    preperiod + period = k and past it, answers as the former loop."""
    rng = random.Random(1131)
    maps = [rotation_on(star(3), 3), rotation_on(star(5), 5), sagged(rng, rotation_star(4)[1])]
    checked = 0
    for f in maps:
        tree = f.domain
        leaf = tree.vertex_point("l0") if "l0" in tree.vertex_ids else None
        cycle = former_walk(f, leaf or tree.grid_points(3)[1], 100)[0]
        k = len(cycle)
        assert k >= 3 and f.evaluate(cycle[-1]) == cycle[0]
        for room in range(1, k):
            for first in cycle:
                nearly_full_store(f, room)
                _walk(f, first, k)
                for s in cycle:
                    for h in (k - 1, k, 30):
                        orbit, back = former_walk(f, s, h)
                        label = _walk(f, s, h)
                        if back is None:
                            assert label is None
                        else:
                            pre, cyc, entry = label
                            assert (pre, cyc[entry:] + cyc[:entry]) == (back, tuple(orbit))
                            checked += 1
                for v in tree.vertex_ids:
                    assert vertex_period(f, v, k) == loop_vertex_period(f, v, k)
                assert_samples_walk_as_former(f, k)
            nearly_full_store(f, room)
            assert_samples_walk_as_former(f, 30)  # fills the store
            assert_samples_walk_as_former(f, 30)  # reads it
    assert checked > 100


def test_power_images_from_the_store_match_the_orbit_oracle():
    """f^n(x) from the orbit store equals `oracles.orbit(f, x, n)[-1]` for
    n = 0..30 and the period +- 1, in a shuffled order, on one store per
    map (which fills on the maps whose orbits run long) and on a fresh
    store per sample; and at n = 0, 1, the period +- 1 and 30 on a store
    left with room for two entries, where most steps are evaluated."""
    rng = random.Random(1212)
    filled = 0
    for f in walk_maps():
        cases = []  # (sample, the powers asked, its orbit as far as the largest)
        for x in f.domain.grid_points(2):
            walked, back = former_walk(f, x, 30)
            ends = [0, 1, 30]
            if back is not None:
                period = len(walked) - back
                ends += [period - 1, period, period + 1]
            ns = sorted(set(range(31)) | set(ends))
            rng.shuffle(ns)
            cases.append((x, ns, ends, orbit(f, x, max(ns))))
        for store in ("shared", "fresh", "nearly full"):
            f._orbits = None
            if store == "nearly full":
                nearly_full_store(f, 2)
            for x, ns, ends, expected in cases:
                if store == "fresh":
                    f._orbits = None
                for n in ends if store == "nearly full" else ns:
                    assert _power_image(f, x, n) == expected[n]
            if store == "shared":
                filled += f._orbits.room() == 0
    assert filled >= 2


def test_radial_check_composes_only_for_the_fixed_set(monkeypatch):
    """At power 2 the images come from the orbit store, and a fresh tent's
    Fix(f^2) is solved from the factors (f, f), so it composes nothing.
    The flip and the rotation are certified, so their fixed sets come
    from their orbits: no composition either."""
    composed = count_calls(monkeypatch, plmap, "compose")
    t = interval()
    for f, compositions in ((tent_on(t), 0), (flip_on(t), 0), (rotation_star(4)[1], 0)):
        composed.clear()
        got = check_no_radial_stretch(f, 2)
        assert len(composed) == compositions
        assert got == former_radial(f, 2)


def former_radial(f, n=1, piece_cap=DEFAULT_PIECE_CAP):
    """The former anchor-by-sample loop, the oracle of the radial check."""
    tree = f.domain
    fixed = fixed_set(f, n, piece_cap)
    anchors = list(fixed.corner_points())
    for eid in sorted(fixed.segments, key=str):
        for lo, hi in fixed.segments[eid]:
            if lo < hi:
                anchors.append(tree.edge_point(eid, (lo + hi) / 2))
    if not anchors:
        return CheckResult(status="skipped", detail="the n-th power has no fixed point")
    h = f.iterate(n, piece_cap)
    pts = tree.grid_points(3)
    for anchor in anchors:
        for t in pts:
            if t == anchor:
                continue
            y = h.evaluate(t)
            if y == t:
                continue
            if tree.on_arc(t, anchor, y):
                return CheckResult(
                    status="fail",
                    witness=Witness(
                        kind="radial-stretch",
                        points=(anchor, t, y),
                        detail=(
                            "the middle point lies strictly between the fixed "
                            f"anchor and its image under power {n}"
                        ),
                    ),
                )
    return CheckResult(status="pass")


def test_certified_radial_check_walks_no_sample(monkeypatch):
    """A certified map passes from its certificate, for n = 1, 2 and 3:
    no image read off the store, no anchor ordering and no sample grid,
    and the same result as the former loop.  Over the decision corpus's
    homeomorphisms, towers among them, and two more towers."""
    homeos, _, _ = decision_corpus(random.Random(4242))
    homeos += [odometer_tower(3, (2, 4, 8))[1], odometer_tower(2, (3, 6))[1]]
    images = count_calls(monkeypatch, dynamics, "_power_image")
    separated = count_calls(monkeypatch, MetricTree, "first_separated")
    grids = count_calls(monkeypatch, MetricTree, "grid_points")
    for f in homeos:
        assert _certificate(f) is not None
        for n in (1, 2, 3):
            got = check_no_radial_stretch(f, n)
            assert (images, separated, grids) == ([], [], [])
            assert got == former_radial(f, n) == CheckResult("pass")
            for calls in (images, separated, grids):
                calls.clear()


def test_radial_check_refuses_power_zero():
    t = interval()
    for f in (flip_on(t), tent_on(t), sagged(random.Random(5), rotation_star(3)[1])):
        with pytest.raises(PreconditionError):
            check_no_radial_stretch(f, 0)


def test_uncertified_homeomorphism_still_fails_the_radial_check():
    """The PL homeomorphism of [0, 1] fixing 0 and 1 with f(1/2) = 3/4 is
    injective and onto but not periodic: it has no certificate, and it
    pushes points outward from the anchor 0."""
    t = interval()
    f = PLTreeMap(t, {"e": [(0, pt(t, 0)), (F(1, 2), pt(t, F(3, 4))), (1, pt(t, 1))]})
    assert f.is_injective()[0] and _certificate(f) is None
    for n in (1, 2, 3):
        got = check_no_radial_stretch(f, n)
        assert got.status == "fail"
        assert got.witness.points[0] == pt(t, 0)
        assert got == former_radial(f, n)


def test_radial_witness_matches_the_former_loop():
    rng = random.Random(3407)
    maps = walk_maps() + [random_folding_map(seed)[1] for seed in range(16, 60)]
    maps += [sagged(rng, rotation_star(4)[1]) for _ in range(6)]
    maps += [permuted_star_map(rng, rng.randint(2, 7))[1] for _ in range(6)]
    statuses = {}
    for f in maps:
        for n in (1, 2):
            got = check_no_radial_stretch(f, n)
            assert got == former_radial(f, n)
            statuses[got.status] = statuses.get(got.status, 0) + 1
    assert statuses["fail"] > 20 and statuses["pass"] > 20


# -- fixed sets of certified maps, read off the orbit partition -------------------


def fresh_copy(f):
    """The same map built anew from its table, sharing no store with f."""
    return PLTreeMap(f.domain, {eid: f.breakpoints(eid) for eid in f.domain.edge_ids})


def certified_maps(rng):
    t = interval()
    maps = [flip_on(t), identity_map(t), identity_map(MetricTree(["o"], []))]
    maps += [random_finite_order_map(seed, seed + 31)[1] for seed in range(10)]
    maps += [rotation_star(k)[1] for k in range(2, 7)]
    maps += [odometer_tower(2, (2, 4))[1], odometer_tower(3, (2, 4, 8))[1]]
    maps += [odometer_tower(2, (3, 6))[1]]
    maps += [random_involution(rng, rng.randint(1, 7)) for _ in range(8)]
    maps += [permuted_star_map(rng, rng.randint(2, 6))[1] for _ in range(6)]
    return maps


def test_orbit_route_fixed_sets_match_the_composing_oracle(monkeypatch):
    """Fix(f^n) read off the orbits, against the fixed points of f^n composed
    on a fresh copy of f, for n = 1, ..., 2N."""
    rng = random.Random(8191)
    composed = count_calls(monkeypatch, plmap, "compose")
    shapes = {"interval": 0, "midpoint": 0}
    for f in certified_maps(rng):
        cert = _certificate(f)
        assert cert is not None
        assert cert.power == decide_pointwise_recurrent(fresh_copy(f)).identity_power
        got = {}
        for n in range(1, 2 * cert.power + 1):
            got[n] = fixed_set(f, n)
        assert composed == []
        for n, sub in got.items():
            assert sub == composite_fixed_set(None, fresh_copy(f).iterate(n)), (f, n)
            shapes["interval"] += any(lo < hi for ivs in sub.segments.values() for lo, hi in ivs)
            shapes["midpoint"] += n % 2 == 1 and cert.power % 2 == 0 and bool(sub.segments)
        composed.clear()
    assert shapes["interval"] > 20 and shapes["midpoint"] > 5


def test_each_midpoint_item_is_fixed_on_an_interval_that_f_swaps():
    """A certified map's layout: a point item off O is the midpoint of the
    interval item around it, lies in Fix(f) with period 1, and f swaps that
    interval's ends; and every interval whose ends f swaps has one."""
    homeos, _, _ = decision_corpus(random.Random(7006))
    midpoints = maps = 0
    for f in certified_maps(random.Random(8191)) + homeos:
        cert = _certificate(f)
        if cert is None:
            continue
        tree, fixed = f.domain, fixed_set(f, 1)  # the first call lays the items out
        orbit_points = {p for cycle in cert.cycles for p in cycle}
        segs = [(period, seg) for period, _, seg in cert.items if seg is not None]
        intervals = [seg for _, seg in segs if seg[1] < seg[2]]
        mids = {}
        for period, (eid, lo, hi) in segs:
            x = tree.edge_point(eid, lo)
            if lo == hi and x not in orbit_points:
                (ta, tb), = [(a, b) for e, a, b in intervals if e == eid and a < lo < b]
                assert lo == (ta + tb) / 2 and period == 1 and fixed.contains(x)
                mids[eid, ta, tb] = x
        for eid, ta, tb in intervals:
            a, b = tree.edge_point(eid, ta), tree.edge_point(eid, tb)
            swapped = f.evaluate(a) == b and f.evaluate(b) == a
            assert swapped == ((eid, ta, tb) in mids), (f, eid, ta, tb)
        midpoints += len(mids)
        maps += 1
    assert maps > 200 and midpoints > 20


def test_the_certificate_is_decided_once_and_only_for_recurrent_maps(monkeypatch):
    rng = random.Random(6007)
    t = interval()
    for f in (tent_on(t), shift_on(t), sagged(rng, flip_on(t)), sagged(rng, rotation_star(3)[1])):
        assert _certificate(f) is None
        assert fixed_set(f, 2) == composite_fixed_set(None, fresh_copy(f).iterate(2))
    # a decision fills the certificate, so fixed_set walks nothing again
    _, rot = rotation_star(5)
    decide_pointwise_recurrent(rot)
    walked = count_calls(monkeypatch, PLTreeMap, "evaluate")
    assert _certificate(rot).power == 5
    assert fixed_set(rot, 5) == rot.domain.full_subtree()
    assert fixed_set(rot, 7) == fixed_set(rot, 1)
    assert walked == []


@pytest.mark.parametrize("decide_first", [True, False])
def test_the_decision_and_fixed_set_share_one_certificate(monkeypatch, decide_first):
    t = interval()
    sag = PLTreeMap(t, {"e": [(0, pt(t, 0)), (F(1, 2), pt(t, F(1, 4))), (1, pt(t, 1))]})
    maps = [rotation_star(5)[1], odometer_tower(3, (2, 4, 8))[1], flip_on(t), sag]
    certified = count_calls(monkeypatch, dynamics, "_certified_cycles")
    swept = count_calls(monkeypatch, PLTreeMap, "_decide_injective")
    walked = count_calls(monkeypatch, PLTreeMap, "evaluate")
    asks = [lambda f: decide_pointwise_recurrent(f), lambda f: fixed_set(f, 2)]
    if not decide_first:
        asks.reverse()
    for f in maps:
        asks[0](f)
        assert len(certified) == len(swept) == 1
        walked.clear()
        asks[1](f)
        assert len(certified) == len(swept) == 1
        if f is not sag:  # the drift's witness walks its own orbit
            assert walked == []
        certified.clear()
        swept.clear()


def test_powers_composed_in_sequence_match_iterate():
    """f^n kept as the factors (f^(n-1), f) equals f^n by squaring, piece
    for piece, once built; in sequence the factor f^(n-1) is itself built
    and equals f^(n-1) by squaring."""

    def pieces(g):
        return [
            (eid, p.t0, p.t1, p.p0, p.p1, p.table)
            for eid, p in pieces_with_edges(g)
        ]

    t = interval()
    sag = PLTreeMap(t, {"e": [(0, pt(t, 0)), (F(1, 2), pt(t, F(1, 4))), (1, pt(t, 1))]})
    for f, upto in ((stem_sweep_map(3)[1], 6), (tent_on(t), 8), (sag, 8)):
        for n in range(1, upto + 1):
            fixed_set(f, n)
            if n > 1:
                last = _OrbitStore.of(f).last_power
                assert last[:2] == (n, DEFAULT_PIECE_CAP)
                assert pieces(built(*last[2:])) == pieces(fresh_copy(f).iterate(n)), n
            if n > 2:
                assert last[3] is f
                assert pieces(last[2]) == pieces(fresh_copy(f).iterate(n - 1)), n
    # out of order, only a power right after the last one takes the step
    for f in (tent_on(t), fresh_copy(sag)):
        for n in (5, 3, 4, 7, 6, 2):
            assert fixed_set(f, n) == composite_fixed_set(None, fresh_copy(f).iterate(n)), n
            last = _OrbitStore.of(f).last_power
            assert pieces(built(*last[2:])) == pieces(fresh_copy(f).iterate(n)), n


def former_returns(f, x, y, power=1, horizon=HORIZON_DEFAULT):
    """The former loop of `returns_to_components`, with no shortcut at x."""
    tree = f.domain
    z = x
    for _ in range(horizon):
        for _ in range(power):
            z = f.evaluate(z)
        if z != y and not tree.on_arc(y, z, x):
            return True
    return False


def test_returns_to_components_answers_at_the_start_without_measuring(monkeypatch):
    s = star(40)
    f = identity_map(s)
    anchors = [s.vertex_point(v) for v in s.vertex_ids]
    probes = s.grid_points(1)[:5]
    measured = count_calls(monkeypatch, MetricTree, "on_arc")
    for x in anchors:
        for y in probes:
            if y != x:
                assert returns_to_components(f, x, y)
    assert measured == []
    # a leaf of the rotation is back after 6 steps: the 5 other leaves are
    # each tested on the arc, the return itself is not
    _, rot = rotation_star(6)
    x, y = rot.domain.vertex_point("l0"), rot.domain.vertex_point("c")
    assert returns_to_components(rot, x, y)
    assert len(measured) == 5


def test_returns_to_components_matches_the_former_loop():
    rng = random.Random(1213)
    answers = {True: 0, False: 0}
    for f in walk_maps() + [sagged(rng, rotation_star(4)[1]) for _ in range(4)]:
        pts = f.domain.grid_points(2)
        for _ in range(12 if len(pts) > 1 else 0):
            x, y = rng.sample(pts, 2)
            for power in (1, 2):
                got = returns_to_components(f, x, y, power, horizon=30)
                assert got == former_returns(f, x, y, power, horizon=30)
                answers[got] += 1
    assert answers[True] > 50 and answers[False] > 20
