import random
from fractions import Fraction as F

import pytest

from dendrodyn import MetricTree, PreconditionError, ResourceLimitError, UndecidedError
from dendrodyn.dynamics import (
    check_escape,
    check_full_invariance,
    check_no_preperiodic,
    check_no_radial_stretch,
    decide_pointwise_recurrent,
    fixed_set,
    forward_component,
    omega_limit_estimate,
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
)
from dendrodyn.plmap import PLTreeMap, identity_map, map_from_vertex_images


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
            expected = f.iterate(n, 5000).fixed_point_set()
            assert fixed_set(f, n, 5000) == expected
            assert fixed_set(f, n, 5000) == expected  # served from the map's store


def test_fixed_set_budget_errors_are_not_stored():
    tent = tent_on(interval())
    with pytest.raises(ResourceLimitError):
        fixed_set(tent, 12, piece_cap=100)
    assert fixed_set(tent, 12).vertices == frozenset({"v0"})
    with pytest.raises(ResourceLimitError):
        fixed_set(tent, 12, piece_cap=100)


def test_fixed_set_rejects_zero_power():
    with pytest.raises(PreconditionError):
        fixed_set(tent_on(interval()), 0)


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
        assert cur.contains_subtree(prev)
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


def test_decide_raises_undecided_past_period_bound():
    # leaf cycles of lengths 3, 5, 7, 11 and 13 force the candidate
    # power 15015 past the default bound of 10000
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
    with pytest.raises(UndecidedError):
        decide_pointwise_recurrent(rot)
    verdict = decide_pointwise_recurrent(rot, max_period=20_000)
    assert verdict.pointwise_recurrent
    assert verdict.identity_power == 15015


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


def test_forward_component_flip():
    t = interval()
    fl = flip_on(t)
    comp = forward_component(fl, 1, pt(t, F(1, 4)))
    assert comp.contains(pt(t, F(3, 4)))
    assert not comp.contains(pt(t, 0))
    with pytest.raises(PreconditionError):
        forward_component(fl, 2, pt(t, F(1, 4)))


def test_omega_limit_exact_cycles():
    t = interval()
    om = omega_limit_estimate(flip_on(t), pt(t, F(1, 4)))
    assert om.exact and om.period == 2
    assert set(om.points) == {pt(t, F(1, 4)), pt(t, F(3, 4))}

    om = omega_limit_estimate(tent_on(t), pt(t, F(1, 5)))
    assert om.exact and om.period == 2
    assert set(om.points) == {pt(t, F(2, 5)), pt(t, F(4, 5))}

    om = omega_limit_estimate(tent_on(t), pt(t, F(1, 3)))
    assert om.exact and om.period == 1
    assert om.points == (pt(t, F(2, 3)),)


def test_omega_limit_labels_unresolved_orbits():
    t = interval()
    om = omega_limit_estimate(shift_on(t), pt(t, F(1, 4)), burn_in=4, window=6)
    assert not om.exact
    assert om.period is None
    params = [p.t for p in om.points]
    assert params == sorted(params)  # the orbit drifts monotonically


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
