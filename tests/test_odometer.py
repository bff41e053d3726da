import random
from fractions import Fraction as F
from itertools import product

import pytest

from dendrodyn import ConsistencyError, MetricTree, PreconditionError, StructureError, plmap
from dendrodyn.fixtures import (
    interval_flip,
    odometer_tower,
    random_finite_order_map,
    rotation_star,
    shift_and_tent,
)
from dendrodyn.odometer import (
    AddingMachineReport,
    CycleOfSets,
    OdometerAddress,
    OdometerType,
    address_of,
    classify_adding_machine,
    detect_cycles_of_sets,
    tau,
    validate_address,
    verify_semiconjugacy,
)
from dendrodyn.plmap import PLTreeMap, identity_map
from dendrodyn.tree import Subtree
from oracles import (
    Component,
    arc_subtree,
    assert_tower_facts,
    classify_by_closures,
    decision_corpus,
    former_classify,
    point_subtree,
    split_address_digits,
    split_cycles_of_sets,
    valid_addresses,
)


def compatible(digits, periods):
    """Independent compatibility oracle, straight from the definition."""
    if len(digits) != len(periods):
        return False
    if any(not 0 <= j < m for j, m in zip(digits, periods)):
        return False
    return all(
        digits[i + 1] % periods[i] == digits[i] for i in range(len(digits) - 1)
    )


# -- address arithmetic ---------------------------------------------------------


def test_type_validation():
    OdometerType((2, 4, 8))
    OdometerType((3,))
    with pytest.raises(StructureError):
        OdometerType(())
    with pytest.raises(StructureError):
        OdometerType((4, 2))
    with pytest.raises(StructureError):
        OdometerType((2, 2))
    with pytest.raises(StructureError):
        OdometerType((2, 3))
    with pytest.raises(StructureError, match="periods must be positive"):
        OdometerType((0, 2))
    # a period is an int: a flag or a float is refused, never coerced
    for periods in ((True, 2), (2.5, 5), (2, F(4))):
        with pytest.raises(StructureError, match=r"^periods must be ints, got \("):
            OdometerType(periods)
    assert OdometerType([2, 4]).periods == (2, 4)
    t24 = OdometerType((2, 4))
    for digits in ((1.9, 3), (True, 3), (1, F(3))):
        with pytest.raises(StructureError, match=r"^digits must be ints, got \("):
            OdometerAddress(t24, digits)


def test_validate_address_frozen_cases():
    t24 = OdometerType((2, 4))
    assert validate_address(OdometerAddress(t24, (1, 3)))
    assert not validate_address(OdometerAddress(t24, (1, 2)))
    assert validate_address(OdometerAddress(OdometerType((2, 4, 8)), (0, 2, 6)))
    assert not validate_address(OdometerAddress(t24, (1,)))
    assert not validate_address(OdometerAddress(t24, (1, 4)))


def test_validate_address_exhaustive_against_oracle():
    for periods in ((2, 4), (2, 4, 8), (3, 6, 12)):
        otype = OdometerType(periods)
        for digits in product(*(range(m) for m in periods)):
            a = OdometerAddress(otype, digits)
            assert validate_address(a) == compatible(digits, periods)


def test_valid_address_count_is_last_period():
    for periods in ((2, 4), (2, 4, 8), (3, 6, 12), (5,)):
        assert len(valid_addresses(OdometerType(periods))) == periods[-1]


def test_tau_frozen_values():
    t248 = OdometerType((2, 4, 8))
    assert tau(OdometerAddress(t248, (0, 0, 0))).digits == (1, 1, 1)
    assert tau(OdometerAddress(t248, (1, 3, 7))).digits == (0, 0, 0)
    assert tau(OdometerAddress(OdometerType((2, 4)), (0, 2))).digits == (1, 3)


def test_tau_rejects_invalid_addresses():
    with pytest.raises(PreconditionError):
        tau(OdometerAddress(OdometerType((2, 4)), (1, 2)))


def test_tau_is_a_bijection_preserving_validity():
    for periods in ((2, 4, 8), (3, 6, 12)):
        addrs = valid_addresses(OdometerType(periods))
        images = [tau(a) for a in addrs]
        assert all(validate_address(b) for b in images)
        assert len(set(images)) == len(addrs)
        assert set(images) == set(addrs)


def test_tau_orbit_of_zero_visits_everything_once():
    for periods in ((2, 4, 8), (3, 6, 12)):
        otype = OdometerType(periods)
        zero = OdometerAddress(otype, (0,) * len(periods))
        orbit = [zero]
        cur = zero
        for _ in range(periods[-1] - 1):
            cur = tau(cur)
            assert cur not in orbit
            orbit.append(cur)
        assert tau(cur) == zero
        assert set(orbit) == set(valid_addresses(otype))


def test_tau_has_no_fixed_address():
    for periods in ((2, 4), (2, 4, 8), (3, 6, 12)):
        for a in valid_addresses(OdometerType(periods)):
            assert tau(a) != a


# -- cycle detection -------------------------------------------------------------


def five_arms():
    """Arms a0, a1 swapped and b0, b1, b2 rotated about a fixed centre."""
    arms = ["a0", "a1", "b0", "b1", "b2"]
    tree = MetricTree(["c"] + arms, [(f"e{v}", ("c", v), 1) for v in arms])
    turn = {"a0": "a1", "a1": "a0", "b0": "b1", "b1": "b2", "b2": "b0", "c": "c"}
    ends = {f"e{v}": [(0, tree.vertex_point("c")), (1, tree.vertex_point(turn[v]))] for v in arms}
    return PLTreeMap(tree, ends)


def drifts():
    """The interval with both ends fixed and its inside drifting, and with
    its ends swapped and a drift inside: no tower on either."""
    tree = MetricTree(["v0", "v1"], [("e", ("v0", "v1"), 1)])
    v0, v1 = tree.vertex_point("v0"), tree.vertex_point("v1")
    quarter = tree.edge_point("e", F(1, 4))
    return [
        PLTreeMap(tree, {"e": [(0, v0), (F(1, 2), quarter), (1, v1)]}),
        PLTreeMap(tree, {"e": [(0, v1), (F(1, 2), quarter), (1, v0)]}),
    ]


def test_detect_rotation_single_level():
    tree, rot = rotation_star(3)
    cycles = detect_cycles_of_sets(rot, 3)
    assert len(cycles) == 1
    assert cycles[0].period == 3
    assert cycles[0].level == 1
    assert all(s.attachment == tree.vertex_point("c") for s in cycles[0].sets)


def test_detect_flip_stops_after_one_level():
    _, flip = interval_flip()
    cycles = detect_cycles_of_sets(flip, 5)
    assert [c.period for c in cycles] == [2]


def test_detect_identity_has_no_cycles():
    tree, _ = rotation_star(3)
    assert detect_cycles_of_sets(identity_map(tree), 3) == ()


def test_detect_rejects_non_injective_maps():
    _, tent = shift_and_tent()["tent"]
    with pytest.raises(PreconditionError):
        detect_cycles_of_sets(tent, 2)


def test_detect_and_semiconjugacy_reject_empty_requests():
    _, rot = rotation_star(3)
    with pytest.raises(PreconditionError, match="depth must be at least 1"):
        detect_cycles_of_sets(rot, 0)
    with pytest.raises(PreconditionError, match="no cycle levels to verify against"):
        verify_semiconjugacy(rot, ())


def test_detect_drift_between_two_fixed_ends_is_no_tower():
    # v0 and v1 fixed, the open edge drifts toward v0: its one component
    # touches the fixed set at both ends
    with pytest.raises(PreconditionError, match="touches the periodic set at 2 points"):
        detect_cycles_of_sets(drifts()[0], 4)


def test_detect_drops_a_level_that_does_not_refine_the_cycle():
    # arms a0, a1 swapped and b0, b1, b2 rotated about a fixed centre: level
    # 1 leaves the five arms, and the root's cycle is the three b-arms; level
    # 2 removes the a-arms too and leaves the same period-3 cycle, which is
    # dropped; level 3 removes the whole tree
    f = five_arms()
    cycles = detect_cycles_of_sets(f, 4)
    assert [(c.level, c.period) for c in cycles] == [(1, 3)]
    assert {s.attachment for s in cycles[0].sets} == {f.domain.vertex_point("c")}


def test_detect_roots_at_the_least_component():
    # the arms' closures order by edge id, so the cycle starts on a0
    tree, rot = rotation_star(3)
    cycles = detect_cycles_of_sets(rot, 2)
    assert cycles[0].sets[0].contains(tree.edge_point("a0", F(1, 3)))
    assert address_of(cycles, tree.edge_point("a2", F(1, 3))).digits == (2,)


def test_detect_composes_no_power_past_the_whole_tree(monkeypatch):
    """The flip's P_2 is the whole interval, so depth 5 stops there, and the
    flip is certified, so it composes nothing at all; the rotation's
    P_1 = P_2 = P_3 is one level, kept at power 1.  The tent is refused as not injective before
    any power is composed; an injective map that is not certified (the
    flip with a drift inside) composes one power per level past the
    second, each only as a factor of the next level's power."""
    composed = []
    plain = plmap.compose

    def counted(*args):
        composed.append(args)
        return plain(*args)

    monkeypatch.setattr(plmap, "compose", counted)
    _, flip = interval_flip()
    assert [c.period for c in detect_cycles_of_sets(flip, 5)] == [2]
    assert not composed
    tent = shift_and_tent()["tent"][1]
    with pytest.raises(PreconditionError, match="injective"):
        detect_cycles_of_sets(tent, 5)
    assert not composed
    t = tent.domain
    drift = [(0, t.vertex_point("v1")), (F(1, 2), t.edge_point("e", F(1, 4))), (1, t.vertex_point("v0"))]
    swung = PLTreeMap(t, {"e": drift})
    with pytest.raises(PreconditionError, match="touches the periodic set at 2 points"):
        detect_cycles_of_sets(swung, 4)
    # f^2 = f . f and f^3 = f^2 . f built as factors; Fix(f^4) solved from (f^3, f)
    assert len(composed) == 2
    composed.clear()
    _, rot = rotation_star(4)
    assert [(c.level, c.period) for c in detect_cycles_of_sets(rot, 3)] == [(1, 4)]


def test_cycle_sets_map_into_successors():
    """The containment `_follow_cycle` proves rather than checks: each set's
    closure maps into the next set's, on towers, rotations, the injective
    shift and random homeomorphisms."""
    towers = ((2, (2, 4)), (2, (3, 6)), (3, (2, 4, 8)), (4, (2, 4, 8, 16)))
    maps = [odometer_tower(d, ps)[1] for d, ps in towers]
    maps += [rotation_star(k)[1] for k in (2, 3, 5)]
    maps += [shift_and_tent()["shift"][1]]
    maps += [random_finite_order_map(seed, seed + 3)[1] for seed in range(40)]
    checked = 0
    for f in maps:
        try:
            cycles = detect_cycles_of_sets(f, 8)
        except PreconditionError:  # a cycle through a set with two contacts
            continue
        for cyc in cycles:
            for i, comp in enumerate(cyc.sets):
                nxt = cyc.sets[(i + 1) % cyc.period]
                assert nxt.closure.union(f.image_of_subtree(comp.closure)) == nxt.closure
                checked += 1
    assert checked > 100


def detection_or_refusal(detect, f, depth):
    try:
        return detect(f, depth)
    except PreconditionError as exc:
        return (type(exc), str(exc))


def address_digits(cycles, x):
    try:
        return address_of(cycles, x).digits
    except PreconditionError as exc:
        return ("PreconditionError", str(exc))


def test_detection_matches_the_split_route():
    """Detection by attachment against the former route, which split the
    tree at every level (`split_cycles_of_sets`), at depths 1, 2, 4 and 8:
    the same refusals, and per set the same level, period, attachment,
    representative point and closure, its closure's edges in the same
    order, and the same address digits for the representative point and
    its image."""
    towers = ((2, (2, 4)), (2, (3, 6)), (3, (2, 4, 8)), (4, (2, 4, 8, 16)), (6, (2, 4, 8, 16, 32, 64)))
    maps = [odometer_tower(d, ps)[1] for d, ps in towers]
    maps += [rotation_star(k)[1] for k in (2, 3, 4, 5, 8)]
    maps += [interval_flip()[1], five_arms(), *drifts(), shift_and_tent()["shift"][1]]
    maps += [random_finite_order_map(seed, seed + 3)[1] for seed in range(40)]
    homeos, _, sags = decision_corpus(random.Random(4242))
    maps += homeos + sags
    sets = refused = 0
    for f in maps:
        for depth in (1, 2, 4, 8):
            new = detection_or_refusal(detect_cycles_of_sets, f, depth)
            old = detection_or_refusal(split_cycles_of_sets, f, depth)
            if old and isinstance(old[0], type):
                assert new == old
                refused += 1
                continue
            assert [(c.level, c.period) for c in new] == [(c.level, c.period) for c in old]
            for cyc, former in zip(new, old):
                for s, t in zip(cyc.sets, former.sets):
                    assert (s.attachment, s.repr_point) == (t.attachment, t.repr_point)
                    assert s.closure == t.closure
                    assert list(s.closure.segments) == list(t.closure.segments)
                    for x in (s.repr_point, f.evaluate(s.repr_point)):
                        assert address_digits(new, x) == split_address_digits(old, x)
                    sets += 1
    assert sets > 5000 and refused > 500


# -- addresses -------------------------------------------------------------------


def test_address_digits_follow_the_cycle_order():
    tree, rot = rotation_star(3)
    cycles = detect_cycles_of_sets(rot, 1)
    pts = {i: cycles[0].sets[i].repr_point for i in range(3)}
    for i, p in pts.items():
        assert address_of(cycles, p).digits == (i,)


def test_address_constant_on_each_deepest_set():
    tree, f = odometer_tower(2, (2, 4))
    cycles = detect_cycles_of_sets(f, 4)
    for i, comp in enumerate(cycles[-1].sets):
        a = address_of(cycles, comp.repr_point)
        eid = next(iter(comp.closure.segments))
        other = tree.edge_point(eid, F(1, 7))
        if comp.contains(other):
            assert address_of(cycles, other) == a


def test_address_errors_outside_the_sets():
    tree, rot = rotation_star(3)
    cycles = detect_cycles_of_sets(rot, 1)
    with pytest.raises(PreconditionError):
        address_of(cycles, tree.vertex_point("c"))
    with pytest.raises(PreconditionError):
        address_of((), tree.vertex_point("c"))


def test_nested_sets_respect_compatibility():
    tree, f = odometer_tower(2, (2, 4))
    cycles = detect_cycles_of_sets(f, 4)
    level1, level2 = cycles
    for j, deep in enumerate(level2.sets):
        for i, shallow in enumerate(level1.sets):
            nested = shallow.closure.union(deep.closure) == shallow.closure
            assert nested == (j % level1.period == i)


def test_tower_addresses_match_construction_indices():
    tree, f = odometer_tower(2, (2, 4))
    cycles = detect_cycles_of_sets(f, 4)
    for j in range(4):
        leaf = tree.vertex_point(f"n2_{j}")
        assert address_of(cycles, leaf).digits == (j % 2, j)


# -- semiconjugacy and classification ----------------------------------------------


def test_semiconjugacy_passes_on_honest_cycles():
    for build in (lambda: rotation_star(3), lambda: odometer_tower(2, (2, 4))):
        tree, f = build()
        cycles = detect_cycles_of_sets(f, 4)
        assert verify_semiconjugacy(f, cycles).status == "pass"


def test_semiconjugacy_flags_a_mis_ordered_cycle():
    tree, rot = rotation_star(3)
    good = detect_cycles_of_sets(rot, 1)[0]
    bad = CycleOfSets(
        level=good.level,
        period=good.period,
        sets=good.sets[::-1],
    )
    report = verify_semiconjugacy(rot, (bad,))
    assert report.status == "fail"
    assert report.witness.kind == "semiconjugacy-mismatch"


def test_semiconjugacy_fails_where_the_image_has_no_address():
    # the constant map onto the centre sends every sample off every set
    tree, rot = rotation_star(3)
    cycles = detect_cycles_of_sets(rot, 1)
    c = tree.vertex_point("c")
    collapse = PLTreeMap(tree, {eid: [(0, c), (1, c)] for eid in tree.edge_ids})
    report = verify_semiconjugacy(collapse, cycles)
    assert report.status == "fail"
    assert report.detail == "3 of 3 samples failed"
    assert report.witness.kind == "semiconjugacy-mismatch"
    assert report.witness.detail.startswith("address undefined:")


def test_classify_rotation_is_full_at_depth_one():
    tree, rot = rotation_star(3)
    report = classify_adding_machine(detect_cycles_of_sets(rot, 2))
    assert report.label == "topological (full)"
    assert report.detected_periods == (3,)


def test_classify_tower_is_full():
    _, f = odometer_tower(2, (2, 4))
    cycles = detect_cycles_of_sets(f, 4)
    report = classify_adding_machine(cycles)
    assert report.label == "topological (full)"
    assert report.detected_periods == (2, 4)
    assert report.openness_ok and report.chains_ok and report.disjoint_ok


def test_classify_emptied_chain_is_weak():
    """Detection never returns an emptied set, so only the two former
    gradings still read one, and both grade it "weak"; the detected
    cycle it was cut from is "topological (full)"."""
    tree, rot = rotation_star(3)
    good = detect_cycles_of_sets(rot, 1)[0]
    hollow = Component(
        closure=Subtree.empty(tree),
        boundary=(tree.vertex_point("c"),),
        repr_point=tree.edge_point("a1", F(1, 2)),
    )
    maimed = CycleOfSets(
        level=1,
        period=3,
        sets=(good.sets[0], hollow, good.sets[2]),
    )
    for former in (classify_by_closures, former_classify):
        report = former((maimed,))
        assert report.label == "weak"
        assert not report.chains_ok
    assert assert_tower_facts(rot, (good,)).chains_ok


def test_classify_requires_cycles():
    with pytest.raises(PreconditionError):
        classify_adding_machine(())


def tampered(rng, cycles):
    """The cycles with one set of one level replaced: hollowed, duplicated,
    grown by a point or an arc of another set, given another set's
    boundary or representative point, or swapped with a set of another
    level."""
    tree = cycles[0].sets[0].closure.tree
    k = rng.randrange(len(cycles))
    cyc = cycles[k]
    sets = list(cyc.sets)
    i = rng.randrange(len(sets))
    comp = sets[i]
    other = rng.choice([c for level in cycles for c in level.sets])
    far = other.closure.corner_points() + (other.repr_point,)
    action = rng.randrange(6)
    if action == 0:
        comp = Component(Subtree.empty(tree), comp.boundary, comp.repr_point)
    elif action == 1:
        comp = other
    elif action == 2:
        grown = point_subtree(tree, rng.choice(far))
        if rng.random() < 0.5:
            grown = arc_subtree(tree.arc(comp.repr_point, rng.choice(far)))
        comp = Component(comp.closure.union(grown), comp.boundary, comp.repr_point)
    elif action == 3:
        comp = Component(comp.closure, other.boundary, comp.repr_point)
    elif action == 4:
        comp = Component(comp.closure, comp.boundary, other.repr_point)
    else:
        sets[rng.randrange(len(sets))] = other
    sets[i] = comp
    level = CycleOfSets(cyc.level, cyc.period, tuple(sets))
    return cycles[:k] + (level,) + cycles[k + 1 :]


def openness_cases():
    """One-set levels built by hand, each with its openness: one fails
    each condition of a whole branch, and two are branches, at an edge
    point and at a leaf."""
    tree = MetricTree(
        ["c", "m", "x", "y"], [("e", ("c", "m"), 1), ("f", ("m", "x"), 1), ("g", ("m", "y"), 1)]
    )
    c, m, x = (tree.vertex_point(v) for v in "cmx")
    half, quarter = tree.edge_point("e", F(1, 2)), tree.edge_point("e", F(1, 4))
    on_f = tree.edge_point("f", F(1, 2))
    whole = [("e", 0, 1), ("f", 0, 1), ("g", 0, 1)]

    def level(segments, at, p):
        closure = Subtree.build(tree, segments, [])
        return (CycleOfSets(1, 1, (Component(closure, (at,), p),)),)

    return [
        (level(whole, half, quarter), False),  # a inside e, with C on both sides
        (level([("e", 0, F(1, 2))], c, quarter), False),  # C ends inside e, away from a
        (level([("e", 0, 1), ("f", 0, 1)], c, quarter), False),  # m lacks its edge g
        (level([("f", 0, 1), ("g", 0, 1)], m, on_f), False),  # two germs at a = m
        (level([("e", F(1, 2), 1), ("f", 0, 1), ("g", 0, 1)], half, on_f), True),
        (level(whole, x, x), False),  # p = a
        (level(whole, x, quarter), True),
    ]


def outcome(classify, cycles):
    try:
        return classify(cycles)
    except (ConsistencyError, PreconditionError) as exc:  # the same refusal from both
        return type(exc), str(exc)


def test_classify_matches_the_former_loops():
    """On the towers detection returns, the proven grade equals both
    former gradings.  On tampered cycles, which detection never returns,
    and on hand-built levels, the closure-reading grading that
    `assert_tower_facts` asserts equals the former loops: it tells a
    weak tower from a full one."""
    rng = random.Random(911)
    towers = [rotation_star(k)[1] for k in (2, 3, 5, 8)]
    towers += [odometer_tower(d, ps)[1] for d, ps in ((2, (2, 4)), (2, (3, 6)), (3, (2, 4, 8)))]
    towers += [random_finite_order_map(seed, seed + 3)[1] for seed in range(30)]
    real = []
    for f in towers:
        try:
            cycles = detect_cycles_of_sets(f, 4)
        except PreconditionError:
            continue
        if cycles:
            assert assert_tower_facts(f, cycles) == former_classify(cycles)
            real.append(cycles)
    labels = {}
    for cycles in [tampered(rng, rng.choice(real)) for _ in range(300)]:
        got = outcome(classify_by_closures, cycles)
        assert got == outcome(former_classify, cycles)
        if isinstance(got, AddingMachineReport):
            labels[got.label] = labels.get(got.label, 0) + 1
            labels[got.disjoint_ok, got.openness_ok] = 1
    for cycles, open_ in openness_cases():
        got = classify_by_closures(cycles)
        assert got == former_classify(cycles)
        assert got.openness_ok == open_
    assert len(real) >= 15
    assert labels["weak"] > 25 and labels["topological (full)"] > 25
    assert {(True, False), (False, True), (False, False)} <= set(labels)


def test_classify_maimed_matches_the_former_loops():
    tree, rot = rotation_star(3)
    good = detect_cycles_of_sets(rot, 1)[0]
    assert assert_tower_facts(rot, (good,)) == former_classify((good,))
    hollow = Component(Subtree.empty(tree), (tree.vertex_point("c"),), good.sets[1].repr_point)
    maimed = CycleOfSets(1, 3, (good.sets[0], hollow, good.sets[2]))
    assert classify_by_closures((maimed,)) == former_classify((maimed,))
    # a set already not open does not stop the grading: the next set's two
    # contacts are still read, and refused
    c = tree.vertex_point("c")
    shut = Component(good.sets[0].closure, good.sets[0].boundary, c)
    torn = Component(good.sets[2].closure, (c, tree.vertex_point("l2")), good.sets[2].repr_point)
    cut = (CycleOfSets(1, 3, (shut, good.sets[1], torn)),)
    refusal = outcome(classify_by_closures, cut)
    assert refusal == outcome(former_classify, cut)
    assert refusal[0] is PreconditionError


def test_every_detected_tower_is_full_by_the_former_loops():
    """Every tower detected at depths 1, 2, 4 and 8 over the decision
    corpus and the shift: the former loops grade it "topological (full)"
    with every flag true, as `classify_adding_machine` reports, and the
    facts that detection rests on hold (`assert_tower_facts`)."""
    homeos, folding, sags = decision_corpus(random.Random(4242))
    maps = homeos + folding + sags + [shift_and_tent()["shift"][1]]
    towers = refused = 0
    for f in maps:
        for depth in (8, 4, 2, 1):
            try:
                cycles = detect_cycles_of_sets(f, depth)
            except PreconditionError:
                refused += 1
                continue
            if cycles:
                assert assert_tower_facts(f, cycles) == former_classify(cycles)
                towers += 1
    assert towers > 1000 and refused > 1000
