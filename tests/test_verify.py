from fractions import Fraction as F

import pytest

import dendrodyn.verify
from dendrodyn import MetricTree, PLTreeMap, build_fixture
from dendrodyn.fixtures import odometer_tower
from dendrodyn.verify import CHECK_NAMES, run_checks


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
    tree, f = build_fixture("rotation", {"arms": "5"})
    recs = by_name(run_checks(f, max_period=3))
    rec = recs["recurrence-verdict-consistency"]
    assert rec.undecided
    assert rec.result.status == "skipped"
    assert "bound" in rec.result.detail


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
    fixed = count_calls(monkeypatch, PLTreeMap, "fixed_point_set")
    decided = count_calls(monkeypatch, dendrodyn.verify, "decide_pointwise_recurrent")
    recs = run_checks(f)
    assert all(r.result.status != "fail" and not r.undecided for r in recs)
    assert len(fixed) == 5  # powers 1..5, each once
    assert len(decided) == 3
    assert decided[0] is f
    assert decided[1].equals(f.iterate(2))
    assert decided[2].equals(f.iterate(3))


def test_undecided_verdict_is_shared(monkeypatch):
    tree, f = build_fixture("rotation", {"arms": "5"})
    decided = count_calls(monkeypatch, dendrodyn.verify, "decide_pointwise_recurrent")
    recs = by_name(run_checks(f, max_period=3))
    assert len(decided) == 1
    first = recs["recurrence-verdict-consistency"]
    second = recs["power-recurrence-consistency"]
    assert first.undecided and second.undecided
    assert first.result == second.result
    assert first.result.detail == "bound reached: the candidate identity power exceeds the bound (5 > 3)"


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


def test_totally_return_catches_a_planted_failure():
    # a point of period 3 probed with horizon 1 means the single probed
    # image stays on the far side of some separator, which must fail
    tree, f = build_fixture("rotation", {"arms": "3"})
    recs = by_name(run_checks(f, horizon=1))
    rec = recs["periodic-points-totally-return"]
    assert rec.result.status == "fail"
    assert rec.result.witness.kind == "missing-return"
