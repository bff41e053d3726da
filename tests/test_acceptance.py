"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to watch the lines appear;
under plain ``pytest`` they surface for failing criteria only.
"""

import functools
import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from dendrodyn import (
    MetricTree,
    OdometerAddress,
    OdometerType,
    PLTreeMap,
    Subtree,
    check_full_invariance,
    check_no_preperiodic,
    classify_adding_machine,
    decide_pointwise_recurrent,
    detect_cycles_of_sets,
    find_periodic_in_hull,
    fixed_set,
    tau,
    validate_address,
    verify_semiconjugacy,
    vertex_period,
)
from dendrodyn.fixtures import (
    interval_flip,
    odometer_tower,
    random_finite_order_map,
    random_folding_map,
    shift_and_tent,
    stem_collapse_map,
    stem_sweep_map,
)
from dendrodyn.plmap import composite_fixed_set
from oracles import is_identity, stem_sweep_spread, valid_addresses


@contextmanager
def criterion(num, label, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {label}")
        raise
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed >= budget:
        print(f"criterion {num}: FAIL - {label} ({elapsed:.2f}s over the {budget:.0f}s budget)")
        raise AssertionError(f"criterion {num} exceeded its time budget")
    print(f"criterion {num}: PASS - {label} ({elapsed:.2f}s)")


@functools.lru_cache(maxsize=1)
def finite_order_suite():
    """1000 seeded finite-order instances with their verdicts, computed once."""
    out = []
    for i in range(1000):
        tree, f = random_finite_order_map(i, i + 5000)
        out.append((tree, f, decide_pointwise_recurrent(f)))
    return out


def test_criterion_1_interval_characterization():
    with criterion(1, "interval characterization", budget=1.0):
        _, flip = interval_flip()
        v = decide_pointwise_recurrent(flip)
        assert v.pointwise_recurrent and v.identity_power == 2

        pair = shift_and_tent()
        _, shift = pair["shift"]
        v = decide_pointwise_recurrent(shift)
        assert not v.pointwise_recurrent
        assert v.witness is not None and v.witness.kind == "escaping-orbit"

        _, tent = pair["tent"]
        v = decide_pointwise_recurrent(tent)
        assert not v.pointwise_recurrent


def test_criterion_2_main_equivalence():
    with criterion(2, "main equivalence over 2000 seeded instances", budget=60.0):
        for tree, f, v in finite_order_suite():
            assert len(tree.vertex_ids) <= 12
            assert v.pointwise_recurrent
            for vtx in tree.vertex_ids:
                if tree.degree(vtx) >= 2:
                    assert vertex_period(f, vtx) is not None
            assert is_identity(f.iterate(v.identity_power))

        for i in range(1000):
            tree, f = random_folding_map(i)
            v = decide_pointwise_recurrent(f)
            assert not v.pointwise_recurrent
            w = v.witness
            assert w is not None
            if w.kind == "non-injective":
                a, b = w.points[0], w.points[1]
                assert a != b and f.evaluate(a) == f.evaluate(b)
            else:
                assert w.kind == "escaping-orbit"
                assert not f.image().contains(w.points[0])


def test_criterion_3_connected_fixed_sets():
    with criterion(3, "fixed sets connected on recurrent instances"):
        for tree, f, v in finite_order_suite():
            for n in range(1, v.identity_power + 1):
                s = fixed_set(f, n)
                assert not s.is_empty()
                assert s.is_connected()

        tree, tent = shift_and_tent()["tent"]
        expected = Subtree.build(tree, [("e", F(2, 3), F(2, 3))], ["v0"])
        assert fixed_set(tent, 1) == expected
        assert not expected.is_connected()


# -- criterion 4 helpers ------------------------------------------------------


def random_tree(rng, n_vertices):
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


def _param_on_edge(p, eid, ends):
    u, w = ends
    if p.is_vertex:
        if p.vertex == u:
            return F(0)
        if p.vertex == w:
            return F(1)
        return None
    return p.t if p.edge == eid else None


def enumerate_fixed_per_piece(f, n):
    """Exhaustive fixed points of the n-th iterate, solved piece by piece.

    Returns (points, windows): isolated solutions plus parameter windows
    on which a piece holds the whole stretch fixed.
    """
    g = f.iterate(n)
    tree = g.domain
    points = set()
    windows = []
    for v in tree.vertex_ids:
        p = tree.vertex_point(v)
        if g.evaluate(p) == p:
            points.add(p)
    for eid in tree.edge_ids:
        ends = tree.edge_ends(eid)
        edge_sub = Subtree.build(tree, [(eid, F(0), F(1))], list(ends))
        bps = g.breakpoints(eid)
        for (t0, p0), (t1, p1) in zip(bps, bps[1:]):
            if p0 == p1:
                tau_c = _param_on_edge(p0, eid, ends)
                if tau_c is not None and t0 <= tau_c <= t1:
                    points.add(tree.edge_point(eid, tau_c))
                continue
            arc = tree.arc(p0, p1)
            for s1, s2 in edge_sub.intersect_arc(arc):
                a1 = _param_on_edge(arc.point_at(s1), eid, ends)
                a2 = _param_on_edge(arc.point_at(s2), eid, ends)
                span = t1 - t0
                ta = t0 + span * s1 / arc.length
                tb = t0 + span * s2 / arc.length
                if ta == tb:
                    if a1 == ta:
                        points.add(tree.edge_point(eid, ta))
                    continue
                slope = (a2 - a1) / (tb - ta)
                if slope == 1:
                    if a1 == ta:
                        windows.append((eid, ta, tb))
                        points.add(tree.edge_point(eid, ta))
                        points.add(tree.edge_point(eid, tb))
                    continue
                t_star = (a1 - slope * ta) / (1 - slope)
                if ta <= t_star <= tb:
                    points.add(tree.edge_point(eid, t_star))
    return points, windows


def in_enumeration(tree, x, points, windows):
    if x in points:
        return True
    if not x.is_vertex:
        return any(eid == x.edge and lo <= x.t <= hi for eid, lo, hi in windows)
    return False


def test_criterion_4_periodic_point_in_hull():
    with criterion(4, "hull solver against per-piece enumeration", budget=30.0):
        rng = random.Random(4)
        kept = 0
        tried = 0
        while kept < 200:
            tried += 1
            assert tried < 10_000, "generator stopped yielding covering instances"
            tree = random_tree(rng, rng.randint(3, 7))
            f = random_map(rng, tree)
            n = rng.randint(1, 3)
            pts = [random_point(rng, tree) for _ in range(rng.randint(1, 3))]
            hull = tree.connected_hull(pts)
            advanced = pts
            for _ in range(n):
                advanced = [f.evaluate(p) for p in advanced]
            covering = tree.connected_hull(advanced)
            if covering.union(hull) != covering:
                continue
            kept += 1

            x = find_periodic_in_hull(f, pts, n)
            assert hull.contains(x)
            y = x
            for _ in range(n):
                y = f.evaluate(y)
            assert y == x

            points, windows = enumerate_fixed_per_piece(f, n)
            assert in_enumeration(tree, x, points, windows)
            for p in points:
                z = p
                for _ in range(n):
                    z = f.evaluate(z)
                assert z == p
        assert kept == 200


def test_criterion_5_odometer_arithmetic():
    with criterion(5, "odometer arithmetic on (2,4,8) and (3,6,12)", budget=1.0):
        for periods, m_k in (((2, 4, 8), 8), ((3, 6, 12), 12)):
            otype = OdometerType(periods)
            zero = OdometerAddress(otype, (0,) * len(periods))
            orbit = [zero]
            a = tau(zero)
            while a != zero:
                orbit.append(a)
                a = tau(a)
            assert len(orbit) == m_k
            assert len(set(orbit)) == m_k
            assert set(orbit) == set(valid_addresses(otype))

            for addr in valid_addresses(otype):
                b = addr
                for _ in range(m_k):
                    b = tau(b)
                assert b == addr

            for digits in itertools.product(*(range(m) for m in periods)):
                expected = all(
                    digits[i + 1] % periods[i] == digits[i]
                    for i in range(len(periods) - 1)
                )
                got = validate_address(OdometerAddress(otype, digits))
                assert got == expected
            assert not validate_address(OdometerAddress(otype, (0,)))
            assert not validate_address(OdometerAddress(otype, (0,) * 4))


def test_criterion_6_cycle_detection_and_semiconjugacy():
    with criterion(6, "cycles of sets on the (2,4,8) tower", budget=5.0):
        tree, f = odometer_tower(3, (2, 4, 8))
        cycles = detect_cycles_of_sets(f, 4)
        assert [c.period for c in cycles] == [2, 4, 8]
        for c in cycles:
            for p in (s.attachment for s in c.sets):
                assert p.is_vertex
                assert tree.degree(p.vertex) >= 3

        result = verify_semiconjugacy(f, cycles)
        assert result.status == "pass"

        report = classify_adding_machine(cycles)
        assert report.full_ok
        assert report.label == "topological (full)"
        assert report.detected_periods == (2, 4, 8)


def test_criterion_7_truncated_counterexamples():
    with criterion(7, "truncated counterexample fixtures", budget=5.0):
        for k in (3, 5, 8):
            tree, f = stem_collapse_map(k)
            fs = composite_fixed_set(None, f)
            center = tree.vertex_point("c")
            assert not fs.contains(center)
            gap = min(tree.distance(center, p) for p in fs.corner_points())
            assert gap == F(1, 2 * k)

        tree, f = stem_sweep_map(4)
        for eid in tree.edge_ids:
            for t, p in f.breakpoints(eid):
                assert f.evaluate(tree.edge_point(eid, t)) == p
        spread = stem_sweep_spread(4, F(1, 16))
        assert spread == F(6, 5)
        assert spread >= F(1, 3)


def test_criterion_8_invariance_and_preperiodic_suites():
    with criterion(8, "invariance and preperiodic suites", budget=30.0):
        for tree, f, v in finite_order_suite():
            assert check_full_invariance(f).status == "pass"
            assert check_no_preperiodic(f).status == "pass"

        negatives = [shift_and_tent()["tent"], stem_collapse_map(3), stem_collapse_map(5)]
        for tree, f in negatives:
            a = check_full_invariance(f)
            assert a.status == "fail" and a.witness is not None
            b = check_no_preperiodic(f)
            assert b.status == "fail" and b.witness is not None
