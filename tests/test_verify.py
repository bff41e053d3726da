import random
from fractions import Fraction as F

import pytest

import dendrodyn.verify
from dendrodyn import MetricTree, PLTreeMap, build_fixture
from dendrodyn.dynamics import (
    CheckResult,
    RecurrenceVerdict,
    Witness,
    _walk,
    decide_pointwise_recurrent,
    periodic_union,
    returns_to_components,
)
from dendrodyn.fixtures import odometer_tower
from dendrodyn.plmap import DEFAULT_PIECE_CAP
from dendrodyn.verify import (
    CHECK_NAMES,
    _periodic_points_totally_return,
    _recurrence_verdict_consistency,
    run_checks,
)
from oracles import decision_corpus, maps_equal, orbit


def by_name(records):
    out = {r.name: r for r in records}
    assert len(out) == len(records)
    return out


def test_all_named_checks_run_once():
    tree, f = build_fixture("flip")
    records = run_checks(f)
    assert tuple(r.name for r in records) == CHECK_NAMES


def test_flip_is_clean():
    tree, f = build_fixture("flip")
    recs = by_name(run_checks(f))
    assert recs["recurrence-verdict-consistency"].result.status == "pass"
    assert "identity power 2" in recs["recurrence-verdict-consistency"].result.detail
    for name in CHECK_NAMES:
        assert recs[name].result.status != "fail", name
        assert not recs[name].undecided, name


def test_rotation_is_clean_and_classified():
    tree, f = build_fixture("rotation", {"arms": "3"})
    recs = by_name(run_checks(f))
    for name in CHECK_NAMES:
        assert recs[name].result.status != "fail", name
    assert "periods [3]" in recs["adding-machine-semiconjugacy"].result.detail


def test_tent_fails_the_instance_checks():
    tree, f = build_fixture("tent")
    recs = by_name(run_checks(f))
    assert recs["recurrence-verdict-consistency"].result.status == "pass"
    assert recs["fixed-sets-connected"].result.status == "fail"
    assert recs["surjectivity-and-orbit-invariance"].result.status == "fail"
    assert recs["no-preperiodic-samples"].result.status == "fail"
    assert recs["no-radial-stretch"].result.status == "fail"
    assert recs["adding-machine-semiconjugacy"].result.status == "skipped"
    w = recs["no-preperiodic-samples"].result.witness
    assert w is not None and w.kind == "preperiodic-sample"


def test_shift_witness_reverifies_and_escape_passes():
    tree, f = build_fixture("shift")
    recs = by_name(run_checks(f))
    assert recs["recurrence-verdict-consistency"].result.status == "pass"
    assert "escaping-orbit" in recs["recurrence-verdict-consistency"].result.detail
    assert recs["escape-containment"].result.status == "pass"
    assert recs["surjectivity-and-orbit-invariance"].result.status == "fail"


def test_stem_collapse_fails_with_witnesses():
    tree, f = build_fixture("stem_collapse", {"k": "3"})
    recs = by_name(run_checks(f))
    assert recs["fixed-sets-connected"].result.status == "fail"
    assert recs["no-preperiodic-samples"].result.status == "fail"
    assert recs["no-radial-stretch"].result.status == "fail"


def test_tower_semiconjugacy_detected():
    tree, f = build_fixture("tower", {"periods": "2,4"})
    recs = by_name(run_checks(f, depth=2))
    detail = recs["adding-machine-semiconjugacy"].result.detail
    assert recs["adding-machine-semiconjugacy"].result.status == "pass"
    assert "periods [2, 4]" in detail
    assert "topological (full)" in detail


def test_undecided_marks_the_record():
    # the decision takes no bound; composing f^2 for the power check does
    tree, f = build_fixture("rotation", {"arms": "5"})
    recs = by_name(run_checks(f, piece_cap=1))
    assert not recs["recurrence-verdict-consistency"].undecided
    rec = recs["power-recurrence-consistency"]
    assert rec.undecided
    assert rec.result.status == "skipped"
    assert "bound" in rec.result.detail


def test_positive_verdict_rechecks_within_any_piece_cap():
    # the decision on the 3-arm rotation composes nothing, nor does its re-check
    tree, f = build_fixture("rotation", {"arms": "3"})
    rec = by_name(run_checks(f, piece_cap=1))["recurrence-verdict-consistency"]
    assert not rec.undecided
    assert rec.result.status == "pass"
    assert rec.result.detail == "identity power 3"


def interval():
    return MetricTree(["v0", "v1"], [("e", ("v0", "v1"), 1)])


@pytest.mark.parametrize("case", ["rotation-power-2", "folding-orbits-return"])
def test_forged_positive_verdict_fails_the_recheck(case):
    if case == "rotation-power-2":
        tree, f = build_fixture("rotation", {"arms": "3"})
    else:
        # v0 and the midpoint swap and v1 is fixed, so every vertex and
        # breakpoint has period dividing 2, yet the map folds
        t = interval()
        mid = t.edge_point("e", F(1, 2))
        v0, v1 = t.vertex_point("v0"), t.vertex_point("v1")
        f = PLTreeMap(t, {"e": [(0, mid), (F(1, 2), v0), (1, v1)]})
    forged = RecurrenceVerdict(pointwise_recurrent=True, identity_power=2, reason="identity-power")
    result = _recurrence_verdict_consistency(f, forged)
    assert result.status == "fail"
    assert result.detail == "claimed power 2 is not the identity"


@pytest.mark.parametrize(
    "forged, expected",
    [
        (
            RecurrenceVerdict(pointwise_recurrent=True, identity_power=None),
            CheckResult("fail", detail="positive verdict carries no power"),
        ),
        (
            RecurrenceVerdict(pointwise_recurrent=True, identity_power=0),
            CheckResult("fail", detail="positive verdict carries no power"),
        ),
        (
            RecurrenceVerdict(pointwise_recurrent=False),
            CheckResult("fail", detail="negative verdict carries no witness"),
        ),
        (
            RecurrenceVerdict(pointwise_recurrent=False, witness=Witness("bogus", ())),
            CheckResult(
                "fail", witness=Witness("bogus", ()), detail="unknown witness kind 'bogus'"
            ),
        ),
    ],
    ids=["no-power", "power-zero", "no-witness", "unknown-kind"],
)
def test_forged_verdict_without_evidence_fails_the_recheck(forged, expected):
    _, f = build_fixture("rotation", {"arms": "3"})
    assert _recurrence_verdict_consistency(f, forged) == expected


def test_forged_drift_witness_fails_the_recheck():
    # a leaf of the 3-arm rotation moves under f but not under f^N, N = 3
    tree, f = build_fixture("rotation", {"arms": "3"})
    witness = Witness(kind="non-periodic-cutpoint", points=(tree.vertex_point("l0"),))
    forged = RecurrenceVerdict(pointwise_recurrent=False, witness=witness)
    result = _recurrence_verdict_consistency(f, forged)
    assert result.status == "fail"
    assert result.detail == "witness did not re-verify"


def test_drift_witness_reverifies_by_orbit():
    # fixes both endpoints, pushes everything between toward v0
    t = interval()
    v0, v1 = t.vertex_point("v0"), t.vertex_point("v1")
    sag = PLTreeMap(t, {"e": [(0, v0), (F(1, 2), t.edge_point("e", F(1, 4))), (1, v1)]})
    verdict = decide_pointwise_recurrent(sag)
    assert verdict.witness.kind == "non-periodic-cutpoint"
    result = _recurrence_verdict_consistency(sag, verdict)
    assert result.status == "pass"
    assert result.detail == "negative verdict re-verified (non-periodic-cutpoint)"


def test_drift_between_fixed_ends_fails_two_checks_and_skips_the_tower():
    t = interval()
    v0, v1 = t.vertex_point("v0"), t.vertex_point("v1")
    sag = PLTreeMap(t, {"e": [(0, v0), (F(1, 2), t.edge_point("e", F(1, 4))), (1, v1)]})
    recs = by_name(run_checks(sag))
    failed = sorted(name for name, r in recs.items() if r.result.status == "fail")
    assert failed == ["fixed-sets-connected", "no-radial-stretch"]
    tower = recs["adding-machine-semiconjugacy"].result
    assert tower.status == "skipped"
    assert "touches the periodic set at 2 points" in tower.detail


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records the first argument of each call."""
    seen = []
    plain = getattr(owner, name)

    def counted(*args, **kwargs):
        seen.append(args[0])
        return plain(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return seen


def test_tower_checks_compute_each_power_once(monkeypatch):
    _, f = odometer_tower(4, (2, 4, 8, 16))
    fixed = [
        count_calls(monkeypatch, dendrodyn.dynamics, "composite_fixed_set"),
        count_calls(monkeypatch, dendrodyn.plmap, "composite_fixed_set"),
    ]
    composed = count_calls(monkeypatch, dendrodyn.plmap, "compose")
    decided = count_calls(monkeypatch, dendrodyn.verify, "decide_pointwise_recurrent")
    recs = run_checks(f)
    assert all(r.result.status != "fail" and not r.undecided for r in recs)
    # the tower is certified, so every fixed set is read off its orbits:
    # no power is solved for its fixed points, and the only compositions
    # are f^2 = f . f and f^3 = f^2 . f for the power-recurrence check
    assert fixed == [[], []]
    assert len(composed) == 2
    assert len(decided) == 3
    assert decided[0] is f
    assert maps_equal(decided[1], f.iterate(2))
    assert maps_equal(decided[2], f.iterate(3))


def test_verdict_is_decided_once_and_shared(monkeypatch):
    # f is decided once, and the power check decides only f^2 and f^3 afresh
    tree, f = build_fixture("rotation", {"arms": "5"})
    decided = count_calls(monkeypatch, dendrodyn.verify, "decide_pointwise_recurrent")
    recs = by_name(run_checks(f))
    assert len(decided) == 3 and decided[0] is f
    first = recs["recurrence-verdict-consistency"]
    second = recs["power-recurrence-consistency"]
    assert not first.undecided and not second.undecided
    assert first.result == CheckResult("pass", detail="identity power 5")
    assert second.result.status == "pass"


def test_finite_order_sweep_has_no_failures():
    for seed in range(8):
        tree, f = build_fixture(
            "random_finite_order", {"seed": str(seed), "order_seed": str(seed + 50)}
        )
        for r in run_checks(f, depth=2):
            assert r.result.status != "fail", (seed, r.name, r.result.detail)


def test_folding_sweep_reverifies_negative_verdicts():
    for seed in range(8):
        tree, f = build_fixture("random_folding", {"seed": str(seed)})
        recs = by_name(run_checks(f, depth=2))
        rec = recs["recurrence-verdict-consistency"]
        assert rec.result.status == "pass", (seed, rec.result.detail)
        assert "re-verified" in rec.result.detail


def test_totally_return_catches_a_planted_failure(monkeypatch):
    # a point of period 3 probed with horizon 1 or 2 has not come back yet:
    # the negative is horizon-relative, so the check hit a bound, not a fault
    tree, f = build_fixture("rotation", {"arms": "3"})
    for horizon in (1, 2):
        rec = by_name(run_checks(f, horizon=horizon))["periodic-points-totally-return"]
        assert rec.undecided
        assert rec.result == CheckResult(
            "skipped",
            detail=(
                "bound reached: a periodic point's orbit does not close "
                f"within the horizon ({horizon})"
            ),
        )
    rec = by_name(run_checks(f, horizon=3))["periodic-points-totally-return"]
    assert not rec.undecided
    assert rec.result == CheckResult("pass", detail="4 periodic points probed")
    # below horizon 3, where anchors are still probed, a missing return
    # from an orbit that closed within the horizon fails: the flip's
    # anchors have period at most 2
    monkeypatch.setattr(dendrodyn.verify, "returns_to_components", lambda *a, **k: False)
    _, flip = build_fixture("flip")
    rec = by_name(run_checks(flip, horizon=2))["periodic-points-totally-return"]
    assert not rec.undecided
    assert rec.result.status == "fail"
    assert rec.result.witness.kind == "missing-return"


def former_totally_return(f, horizon):
    """The former `periodic-points-totally-return`, which probed every
    anchor at every horizon."""
    anchors = periodic_union(f, 3).corner_points()
    if not anchors:
        return CheckResult("skipped", detail="no low-period points found")
    others = f.domain.grid_points(1)
    for x in anchors:
        for y in [y for y in others[:5] if y != x][:4]:
            if not returns_to_components(f, x, y, power=1, horizon=horizon):
                if _walk(f, x, horizon) is None:
                    return "undecided"
                return CheckResult(
                    "fail",
                    witness=Witness("missing-return", (x, y)),
                    detail="periodic point never re-entered its side of a cut",
                )
    return CheckResult("pass", detail=f"{len(anchors)} periodic points probed")


def test_anchors_of_p3_return_within_three_steps():
    """Every corner of P_3 is back at itself within 3 steps, by the plain
    orbit, so from horizon 3 on the check that probes nothing answers as
    the former probe loop: over the decision corpus and the tent."""
    homeos, folding, sags = decision_corpus(random.Random(4242))
    anchors = 0
    for f in homeos + folding + sags + [build_fixture("tent")[1]]:
        for x in periodic_union(f, 3).corner_points():
            assert x in orbit(f, x, 3)[1:]
            anchors += 1
        for horizon in (3, 10):
            got = _periodic_points_totally_return(f, horizon, DEFAULT_PIECE_CAP)
            assert got == former_totally_return(f, horizon)
    assert anchors > 2000
