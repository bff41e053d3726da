import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

import dendrodyn
from dendrodyn import MetricTree, PLTreeMap, build_fixture, cli, dynamics, plmap, save_instance_file
from dendrodyn import io as dio
from dendrodyn.cli import DEPTH_DEFAULT, MAX_ANALYZE_SIZE, MAX_DEPTH, _build_parser, main
from dendrodyn.dynamics import MAX_PERIOD_DEFAULT
from dendrodyn.fixtures import FIXTURE_KINDS
from dendrodyn.io import MAX_VERTICES, load_instance_file
from dendrodyn.tree import MAX_DIGITS


def write_fixture(tmp_path, kind, params=None, name="inst.json"):
    tree, f = build_fixture(kind, params)
    path = tmp_path / name
    save_instance_file(path, tree, f)
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_recurrence_rotation_exit_zero(tmp_path, capsys):
    path = write_fixture(tmp_path, "rotation", {"arms": "3"})
    code, report = run_json(capsys, ["recurrence", path])
    assert code == 0
    assert report["verdict"]["pointwise_recurrent"] is True
    assert report["verdict"]["identity_power"] == 3
    assert report["verdict"]["witness"] is None


def test_recurrence_tent_exit_one_with_witness(tmp_path, capsys):
    path = write_fixture(tmp_path, "tent")
    code = main(["recurrence", path])
    out = capsys.readouterr().out
    assert code == 1
    assert "pointwise recurrent: no" in out
    assert "witness" in out

    code, report = run_json(capsys, ["recurrence", path])
    assert code == 1
    w = report["verdict"]["witness"]
    assert w["kind"] == "non-injective"
    assert w["points"] == [{"edge": "e", "t": "1/4"}, {"edge": "e", "t": "3/4"}]


def test_recurrence_stem_sweep_witness_points(tmp_path, capsys):
    # the stem's far end and the deepest cut collapse together
    path = write_fixture(tmp_path, "stem_sweep")
    code, report = run_json(capsys, ["recurrence", path])
    assert code == 1
    w = report["verdict"]["witness"]
    assert w["kind"] == "non-injective"
    assert w["points"] == [{"vertex": "s"}, {"edge": "stem", "t": "1/32"}]


def test_odometer_tower_depth_two(tmp_path, capsys):
    path = write_fixture(tmp_path, "tower", {"periods": "2,4"})
    code, report = run_json(capsys, ["odometer", "--depth", "2", path])
    assert code == 0
    assert [c["period"] for c in report["cycles"]] == [2, 4]
    # each set's attachment, in the cycle's order
    assert report["cycles"][1]["attachments"] == [
        {"vertex": v} for v in ("n1_0", "n1_1", "n1_0", "n1_1")
    ]
    assert report["semiconjugacy"]["status"] == "pass"
    assert report["classification"]["label"] == "topological (full)"
    assert report["classification"]["periods"] == [2, 4]
    digit_sets = sorted(tuple(a["digits"]) for a in report["addresses"])
    assert digit_sets == [(0, 0), (0, 2), (1, 1), (1, 3)]


def test_odometer_rejects_non_injective(tmp_path, capsys):
    path = write_fixture(tmp_path, "tent")
    assert main(["odometer", path]) == 3
    assert "injective" in capsys.readouterr().err


def test_analyze_reports_structure(tmp_path, capsys):
    path = write_fixture(tmp_path, "flip")
    code, report = run_json(capsys, ["analyze", "--depth", "2", path])
    assert code == 0
    assert set(report["fixed_sets"]) == {"1", "2"}
    assert report["fixed_sets"]["1"]["segments"] == {"e": [["1/2", "1/2"]]}
    assert report["fixed_sets"]["2"]["segments"] == {"e": [["0/1", "1/1"]]}
    rows = {r["id"]: r for r in report["vertices"]}
    assert rows["v0"]["class"] == "endpoint"
    assert rows["v0"]["period"] == 2


def test_classify_vertex_and_edge_point(tmp_path, capsys):
    path = write_fixture(tmp_path, "tent")
    code, report = run_json(capsys, ["classify", path, "--point", "v0"])
    assert code == 0
    assert report["class"] == "endpoint"
    assert report["period"] == 1

    code, report = run_json(
        capsys, ["classify", path, "--point", '{"edge": "e", "t": "1/5"}']
    )
    assert code == 0
    assert report["class"] == "cutpoint"
    assert report["period"] is None
    assert report["preperiod"] == 1
    assert report["eventual_period"] == 2


@pytest.mark.parametrize(
    "point", ['{"edge": "e"}', '{"vertex": "v0", "edge": "e", "t": "1/2"}', '{"vertex": "v0", "x": 1}']
)
def test_classify_refuses_a_point_object_of_neither_form(tmp_path, capsys, point):
    path = write_fixture(tmp_path, "flip")
    assert main(["classify", path, "--point", point]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a point has the keys ['vertex'] or ['edge', 't']")


def test_classify_works_without_a_map(tmp_path, capsys):
    tree, _ = build_fixture("star", {"k": "3"})
    path = tmp_path / "tree.json"
    save_instance_file(path, tree)
    code, report = run_json(capsys, ["classify", str(path), "--point", "c"])
    assert code == 0
    assert report["class"] == "branchpoint"
    assert report["period"] is None

    assert main(["recurrence", str(path)]) == 3
    assert "no map" in capsys.readouterr().err


def test_classify_rejects_unknown_point(tmp_path, capsys):
    path = write_fixture(tmp_path, "tent")
    assert main(["classify", path, "--point", "nope"]) == 3
    assert "unknown vertex" in capsys.readouterr().err


@pytest.mark.parametrize("edge", ['"x"', '["e"]', "1"])
def test_classify_rejects_a_point_on_an_unknown_edge(tmp_path, capsys, edge):
    path = write_fixture(tmp_path, "tent")
    assert main(["classify", path, "--point", '{"edge": %s, "t": "1/2"}' % edge]) == 3
    one_error_line(capsys, "unknown edge")


def test_verify_exit_codes(tmp_path, capsys):
    good = write_fixture(tmp_path, "flip", name="good.json")
    code, report = run_json(capsys, ["verify", good])
    assert code == 0
    assert report["summary"]["fail"] == 0
    assert {c["name"] for c in report["checks"]} >= {
        "recurrence-verdict-consistency",
        "no-preperiodic-samples",
    }

    bad = write_fixture(tmp_path, "tent", name="bad.json")
    code, report = run_json(capsys, ["verify", bad])
    assert code == 1
    failed = {c["name"] for c in report["checks"] if c["status"] == "fail"}
    assert "no-preperiodic-samples" in failed
    assert "surjectivity-and-orbit-invariance" in failed


def test_verify_horizon_below_the_period_is_undecided(tmp_path, capsys):
    # the rotation's leaves have period 3: at horizon 1 or 2 their orbits
    # have not closed, which is a bound reached, not a failed check
    path = write_fixture(tmp_path, "rotation")
    for horizon, code in (("1", 2), ("2", 2), ("3", 0)):
        got, report = run_json(capsys, ["verify", "--horizon", horizon, path])
        assert got == code, horizon
        assert report["summary"]["fail"] == 0


@pytest.mark.parametrize("command, sweeps", [("verify", 3), ("odometer", 1)])
def test_one_injectivity_sweep_per_map(tmp_path, capsys, monkeypatch, command, sweeps):
    # verify decides f, f^2 and f^3; odometer asks only of f
    path = write_fixture(tmp_path, "tower", {"periods": "2,4,8,16"})
    swept = []
    plain = PLTreeMap._decide_injective

    def counted(f):
        swept.append(f)
        return plain(f)

    monkeypatch.setattr(PLTreeMap, "_decide_injective", counted)
    assert main([command, path]) == 0
    capsys.readouterr()
    assert len(swept) == sweeps
    assert len({id(f) for f in swept}) == sweeps


def test_escape_check_skips_before_the_piece_budget(tmp_path, capsys):
    # the rotation's centre is fixed by f itself, so the escape check skips
    # without composing the powers a budget of one piece cannot hold; the
    # rotation is certified, so its fixed sets are read off its orbits and
    # only the check that composes f^2 and f^3 itself meets the budget
    path = write_fixture(tmp_path, "rotation")
    code, report = run_json(capsys, ["verify", "--piece-cap", "1", path])
    assert code == 2
    checks = {c["name"]: c for c in report["checks"]}
    escape = checks["escape-containment"]
    assert escape["status"] == "skipped"
    assert escape["detail"] == "periodic cutpoints exist within power 5"
    assert "undecided" not in escape
    assert report["summary"] == {"pass": 8, "fail": 0, "skipped": 2, "undecided": 1}
    undecided = [name for name, c in checks.items() if c.get("undecided")]
    assert undecided == ["power-recurrence-consistency"]
    assert checks["power-recurrence-consistency"]["detail"] == (
        "bound reached: iterate exceeded the piece budget (3 > 1)"
    )
    passed = {name for name, c in checks.items() if c["status"] == "pass"}
    assert passed >= {
        "fixed-sets-connected",
        "periodic-union-monotone",
        "periodic-points-totally-return",
        "adding-machine-semiconjugacy",
    }


def test_inconclusive_exit_two(tmp_path, capsys):
    path = write_fixture(tmp_path, "tent")
    code, report = run_json(capsys, ["analyze", path, "--depth", "12", "--piece-cap", "100"])
    assert code == 2
    assert report["outcome"] == "inconclusive"
    assert report["error"] == "iterate exceeded the piece budget (128 > 100)"


def test_input_errors_exit_three(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["recurrence", missing]) == 3
    capsys.readouterr()

    broken = tmp_path / "broken.json"
    broken.write_text('{"vertices": [')
    assert main(["recurrence", str(broken)]) == 3
    err = capsys.readouterr().err
    assert "line" in err


def one_error_line(capsys, start):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {start}") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "content, start",
    [(b'{"vertices": ["\xff"], "edges": []}', "not UTF-8 text"), (b"[" * 100_000, "not valid JSON")],
    ids=["not-utf8", "nested"],
)
def test_instance_that_cannot_be_decoded_exits_three(tmp_path, capsys, content, start):
    path = tmp_path / "inst.json"
    path.write_bytes(content)
    assert main(["recurrence", str(path)]) == 3
    one_error_line(capsys, start)


@pytest.mark.parametrize(
    "key, unknown, copied", [("vertex_images", "zz", "c"), ("edge_pieces", "ghost", "a0")]
)
def test_instance_naming_an_unknown_id_exits_three(tmp_path, capsys, key, unknown, copied):
    path = write_fixture(tmp_path, "rotation")
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    obj[key][unknown] = obj[key][copied]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    assert main(["recurrence", path]) == 3
    one_error_line(capsys, f"{key!r} names unknown")


@pytest.mark.parametrize("point", ["[" * 20_000, "1" * 5_000], ids=["nested", "long-number"])
def test_point_that_cannot_be_decoded_exits_three(tmp_path, capsys, point):
    path = write_fixture(tmp_path, "flip")
    assert main(["classify", path, "--point", point]) == 3
    one_error_line(capsys, "the point is not valid JSON")


def test_bad_flags_exit_three(tmp_path):
    path = write_fixture(tmp_path, "flip")
    with pytest.raises(SystemExit) as exc:
        main(["recurrence", path, "--no-such-flag"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["fixture", "no_such_kind"])
    assert exc.value.code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--horizon", "-1"],
        ["analyze", "--max-period", "-5"],
        ["odometer", "--piece-cap", "0"],
        ["classify", "--point", "l0", "--max-period", "-1"],
        ["verify", "--depth", "0"],
    ],
)
def test_bounds_below_one_exit_three(tmp_path, capsys, argv):
    path = write_fixture(tmp_path, "rotation", {"arms": "3"})
    with pytest.raises(SystemExit) as exc:
        main(argv + [path])
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert "must be at least 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["analyze", "odometer", "verify"])
def test_depth_above_the_limit_exits_three_before_composing(tmp_path, capsys, monkeypatch, command):
    path = write_fixture(tmp_path, "rotation", {"arms": "3"})
    composed = []
    monkeypatch.setattr(plmap, "compose", lambda *args: composed.append(1))
    for depth in (MAX_DEPTH + 1, 10**12):
        with pytest.raises(SystemExit) as exc:
            main([command, path, "--depth", str(depth)])
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert f"must be at most {MAX_DEPTH}, got {depth}" in captured.err
        assert captured.out == ""
    assert not composed
    assert _build_parser().parse_args([command, path, "--depth", str(MAX_DEPTH)]).depth == MAX_DEPTH


def test_analyze_refuses_depth_times_size_above_the_bound_before_any_work(
    tmp_path, capsys, monkeypatch
):
    # the default depth passes on the largest file that loads
    assert DEPTH_DEFAULT * (2 * MAX_VERTICES - 1) <= MAX_ANALYZE_SIZE == DEPTH_DEFAULT * 2 * MAX_VERTICES
    path = write_fixture(tmp_path, "rotation", {"arms": "100"})  # 101 vertices, 100 edges
    depths = []

    class Reached(Exception):
        pass

    def reached(f, depth, *bounds):
        depths.append(depth)
        raise Reached

    monkeypatch.setattr(cli, "periodic_structure", reached)
    most = MAX_ANALYZE_SIZE // 201
    for depth in (most + 1, MAX_DEPTH):
        assert main(["analyze", path, "--depth", str(depth)]) == 3
        one_error_line(
            capsys,
            f"analyze reports two subtrees per level: --depth {depth} times 201 "
            f"vertices and edges passes {MAX_ANALYZE_SIZE}",
        )
    assert not depths
    with pytest.raises(Reached):
        main(["analyze", path, "--depth", str(most)])
    assert depths == [most]


@pytest.mark.parametrize(
    "flag",
    [
        ["--horizon", "5"],
        ["--depth", "0"],
        ["--piece-cap", "9"],
        ["--format", "text"],
        ["--seed", "1"],
    ],
)
def test_fixture_takes_no_bound_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["fixture", "flip"] + flag)
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err
    assert captured.out == ""


# the bound flags each analysis command reads
READS = {
    "recurrence": (),
    "analyze": ("--max-period", "--depth", "--piece-cap"),
    "odometer": ("--depth", "--piece-cap"),
    "classify": ("--max-period",),
    "verify": ("--horizon", "--depth", "--piece-cap"),
}
BOUND_FLAGS = ("--max-period", "--horizon", "--depth", "--piece-cap")
# for each flag a command reads, a value and an instance on which it changes
# the JSON report or the exit code
CHANGED_BY = [
    ("analyze", "--max-period", "2", "rotation"),
    ("analyze", "--depth", "1", "rotation"),
    ("analyze", "--piece-cap", "1", "sagged"),
    ("odometer", "--depth", "1", "tower"),
    ("odometer", "--piece-cap", "1", "sagged"),
    ("classify", "--max-period", "2", "rotation"),
    ("verify", "--horizon", "1", "rotation"),
    ("verify", "--depth", "1", "rotation"),
    ("verify", "--piece-cap", "1", "sagged"),
]


def write_named_instance(tmp_path, name):
    """The 3-arm rotation, the (2, 4) tower, the tent, or the rotation with
    one arm sagged: injective, not recurrent, so its powers are composed."""
    if name == "tower":
        return write_fixture(tmp_path, "tower", {"periods": "2,4"}, name="tower.json")
    if name == "tent":
        return write_fixture(tmp_path, "tent", name="tent.json")
    tree, rot = build_fixture("rotation", {"arms": "3"})
    if name == "sagged":
        table = {eid: list(rot.breakpoints(eid)) for eid in tree.edge_ids}
        table["a0"].insert(1, (F(1, 2), tree.edge_point("a1", F(1, 4))))
        rot = PLTreeMap(tree, table)
    path = tmp_path / f"{name}.json"
    save_instance_file(path, tree, rot)
    return str(path)


@pytest.mark.parametrize(
    "command, flag",
    [(c, flag) for c, reads in READS.items() for flag in BOUND_FLAGS if flag not in reads],
)
def test_each_command_refuses_the_bound_flags_it_does_not_read(tmp_path, capsys, command, flag):
    path = write_named_instance(tmp_path, "rotation")
    point = ["--point", "c"] if command == "classify" else []
    with pytest.raises(SystemExit) as exc:
        main([command, path, *point, flag, "5"])
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag} 5" in captured.err
    assert captured.out == ""


def test_every_flag_a_command_reads_has_an_instance_it_changes():
    assert sorted((c, flag) for c, flag, _, _ in CHANGED_BY) == sorted(
        (c, flag) for c, reads in READS.items() for flag in reads
    )


@pytest.mark.parametrize("command, flag, value, instance", CHANGED_BY)
def test_each_bound_flag_a_command_reads_changes_its_answer(
    tmp_path, capsys, command, flag, value, instance
):
    path = write_named_instance(tmp_path, instance)
    point = ["--point", "l0"] if command == "classify" else []
    argv = [command, path, *point, "--format", "json"]
    default = (main(argv), capsys.readouterr().out)
    bounded = (main(argv + [flag, value]), capsys.readouterr().out)
    assert bounded != default


def instance_with(**changes):
    """A valid map on the interval a-b, with top-level fields replaced."""
    a, b = {"vertex": "a"}, {"vertex": "b"}
    obj = {
        "vertices": ["a", "b"],
        "edges": [{"id": "e", "ends": ["a", "b"], "length": "1/1"}],
        "vertex_images": {"a": b, "b": a},
        "edge_pieces": {"e": [{"t": "0/1", "image": b}, {"t": "1/1", "image": a}]},
    }
    obj.update(changes)
    return obj


@pytest.mark.parametrize(
    "obj",
    [
        instance_with(edges=[{"id": "e", "ends": ["a", "b"], "length": True}]),
        instance_with(vertices="ab"),
        instance_with(edges=5),
        instance_with(edges=[{"id": "e", "ends": 5, "length": "1/1"}]),
        instance_with(vertices=[["a"]]),
        instance_with(vertex_images=5),
        instance_with(edge_pieces=5),
        instance_with(edge_pieces={"e": 5}),
        {"vertices": ["a", 1], "edges": [{"id": "e", "ends": ["a", 1], "length": "1/1"}]},
        instance_with(edges=[{"id": "e", "ends": [["a"], "b"], "length": "1/1"}]),
        instance_with(vertex_images={"a": {"vertex": ["b"]}, "b": {"vertex": "a"}}),
        instance_with(edges=[{"id": "e", "ends": ["a", "b"], "length": "1e100000000"}]),
        instance_with(edges=[{"id": "e", "ends": ["a", "b"], "length": "1/" + "3" * 1001}]),
        instance_with(edges=[{"id": "e", "ends": ["a", "b"], "length": 10**1001}]),
        instance_with(edges=[{"id": "e", "ends": ["a", "b"], "length": "1.5"}]),
    ],
    ids=[
        "boolean-length",
        "string-vertices",
        "edges-number",
        "ends-number",
        "list-vertex",
        "vertex-images-number",
        "edge-pieces-number",
        "edge-piece-list-number",
        "int-vertex-id",
        "list-end",
        "list-vertex-image",
        "exponent-length",
        "overlong-length",
        "overlong-integer-length",
        "decimal-length",
    ],
)
def test_malformed_instance_exits_three(tmp_path, capsys, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["classify", str(path), "--point", "a"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def identity_star_instance(arms):
    leaves = [f"l{i}" for i in range(arms)]
    return {
        "vertices": ["c", *leaves],
        "edges": [{"id": f"a{i}", "ends": ["c", v], "length": "1/1"} for i, v in enumerate(leaves)],
        "vertex_images": {v: {"vertex": v} for v in ["c", *leaves]},
        "edge_pieces": {
            f"a{i}": [{"t": "0/1", "image": {"vertex": "c"}}, {"t": "1/1", "image": {"vertex": v}}]
            for i, v in enumerate(leaves)
        },
    }


def test_instance_past_the_vertex_limit_exits_three(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(identity_star_instance(MAX_VERTICES)))
    assert main(["recurrence", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert f"{MAX_VERTICES + 1} entries" in captured.err and "20000 vertices" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, code", [("odometer", 3), ("verify", 1)])
def test_drift_between_fixed_ends_has_no_tower(tmp_path, capsys, command, code):
    tree = MetricTree(["v0", "v1"], [("e", ("v0", "v1"), 1)])
    v0, v1 = tree.vertex_point("v0"), tree.vertex_point("v1")
    sag = PLTreeMap(tree, {"e": [(0, v0), (F(1, 2), tree.edge_point("e", F(1, 4))), (1, v1)]})
    path = tmp_path / "sag.json"
    save_instance_file(path, tree, sag)
    assert main([command, str(path)]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if command == "odometer":
        assert captured.err.startswith("error: a component on the cycle touches")
        assert captured.out == ""
    else:
        assert "adding-machine-semiconjugacy: skipped" in captured.out
        assert "2 failed" in captured.out


def test_fixture_command_emits_loadable_instances(tmp_path, capsys):
    out = tmp_path / "rot.json"
    assert main(["fixture", "rotation", "--param", "arms=4", "-o", str(out)]) == 0
    assert main(["recurrence", str(out), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"]["identity_power"] == 4

    assert main(["fixture", "flip"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert set(obj) == {"vertices", "edges", "vertex_images", "edge_pieces"}


def test_fixture_param_validation(tmp_path, capsys):
    assert main(["fixture", "rotation", "--param", "arms"]) == 3
    capsys.readouterr()
    assert main(["fixture", "rotation", "--param", "bogus=1"]) == 3
    assert "unexpected" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, key",
    [
        (["--param", "arms=3", "--param", "arms=4"], "arms"),
        (["--param", "arms=4", "--param", "arms=4"], "arms"),
        (["--param", "seed=5", "--param", "seed=6"], "seed"),
        (["--param", "seed=6", "--param", "seed=6"], "seed"),
    ],
)
def test_fixture_parameter_given_twice_exits_three(tmp_path, capsys, argv, key):
    out = tmp_path / "twice.json"
    kind = "random_folding" if key == "seed" else "rotation"
    assert main(["fixture", kind, *argv, "-o", str(out)]) == 3
    assert capsys.readouterr().err == f"error: fixture parameter {key!r} is given twice\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, name",
    [
        (["fixture", "rotation", "--param", "arms=abc"], "'arms'"),
        (["fixture", "rotation", "--param", "arm_length=1/0"], "'arm_length'"),
        (["fixture", "tower", "--param", "periods=2,x"], "'periods'"),
        (["fixture", "random_folding", "--param", "seed=abc"], "'seed'"),
        (["fixture", "rotation", "--param", "arm_length=1e100000000"], "'arm_length'"),
    ],
)
def test_fixture_parameters_that_are_not_numbers_exit_three(capsys, argv, name):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert f"parameter {name} is not a number" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "kind, param, limit",
    [
        ("star", "k=20000", "20001 vertices"),
        ("stem_collapse", "k=20000", "20001 vertices"),
        ("stem_sweep", "k=3320", "1000 digits"),
        ("stem_sweep", "k=" + "9" * 30, "1000 digits"),
        ("rotation", "arms=20000", "20001 vertices"),
        ("tower", "periods=19999", "20001 vertices"),
        ("tower", "periods=" + "9" * 30, "vertices"),
    ],
)
def test_fixture_sizes_no_file_may_hold_exit_three_at_once(tmp_path, capsys, kind, param, limit):
    out = tmp_path / "big.json"
    start = time.perf_counter()
    assert main(["fixture", kind, "--param", param, "-o", str(out)]) == 3
    assert time.perf_counter() - start < 1  # refused before anything is built
    err = capsys.readouterr().err
    assert err.startswith(f"error: fixture '{kind}' parameter") and limit in err
    assert not out.exists()


def test_the_largest_stem_sweep_still_loads(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["fixture", "stem_sweep", "--param", "k=3319", "-o", str(out)]) == 0
    tree, f = load_instance_file(str(out))
    assert len(tree.vertex_ids) == 3321
    assert max(len(str(t.denominator)) for t, _ in f.breakpoints("stem")) == MAX_DIGITS


def test_fixture_seed_is_a_parameter(tmp_path, capsys):
    # an absent seed is 0
    texts = []
    for extra in ([], ["--param", "seed=0"], ["--param", "seed=1"]):
        out = tmp_path / "random.json"
        assert main(["fixture", "random_folding", *extra, "-o", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1] != texts[2]


def test_reports_are_byte_identical(tmp_path, capsys):
    path = write_fixture(tmp_path, "tower", {"periods": "2,4"})
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["odometer", path, "--depth", "2", "--format", "json", "-o", str(a)])
    main(["odometer", path, "--depth", "2", "--format", "json", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()
    main(["verify", path, "--format", "json", "-o", str(a)])
    main(["verify", path, "--format", "json", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def written_reports(monkeypatch):
    """The objects the CLI hands its JSON writer, in order."""
    reports = []
    plain = dio.dump_json

    def recorded(obj):
        reports.append(obj)
        return plain(obj)

    monkeypatch.setattr(dio, "dump_json", recorded)
    return reports


WRITER_FIXTURES = [(kind, ["seed=11"] if kind.startswith("random") else [])
                   for kind in FIXTURE_KINDS]
WRITER_FIXTURES += [("tower", ["periods=2,4,8"]), ("tower", ["periods=3,6"])]


def test_every_json_report_is_the_standard_librarys(tmp_path, capsys, monkeypatch):
    """Every `--format json` report, inconclusive ones included, and every
    fixture file is byte for byte what `json.dumps(obj, sort_keys=True,
    indent=2)` writes for the object the CLI wrote."""
    reports = written_reports(monkeypatch)

    def oracle():
        return [json.dumps(obj, sort_keys=True, indent=2) + "\n" for obj in reports]

    path = tmp_path / "inst.json"
    codes = set()
    for kind, params in WRITER_FIXTURES:
        reports.clear()
        argv = ["fixture", kind, *(f"--param={p}" for p in params), "-o", str(path)]
        assert main(argv) == 0
        assert [path.read_text()] == oracle()
        vertex = load_instance_file(path)[0].vertex_ids[-1]
        runs = [[command, str(path)] for command in ("recurrence", "analyze", "odometer", "verify")]
        runs += [["classify", str(path), "--point", vertex],
                 ["verify", str(path), "--horizon", "1"],
                 ["analyze", str(path), "--depth", "12", "--piece-cap", "100"]]
        for run in runs:
            reports.clear()
            code = main(run + ["--format", "json"])
            codes.add(code)
            out = capsys.readouterr().out
            if code == 3:  # refused: no report
                assert (out, reports) == ("", []), (kind, run)
            else:
                assert [out] == oracle(), (kind, run)
    assert codes == {0, 1, 2, 3}


def test_text_rendering_mentions_the_essentials(tmp_path, capsys):
    path = write_fixture(tmp_path, "tower", {"periods": "2,4"})
    code = main(["odometer", path, "--depth", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "level 1: period 2" in out
    assert "level 2: period 4" in out
    assert "semiconjugacy: pass" in out

    code = main(["verify", path])
    out = capsys.readouterr().out
    assert "recurrence-verdict-consistency: pass" in out
    assert "passed" in out


def test_text_rendering_of_analyze_classify_and_inconclusive(tmp_path, capsys):
    tent = write_fixture(tmp_path, "tent", name="tent.json")
    rot3 = write_fixture(tmp_path, "rotation", {"arms": "3"}, name="rot3.json")

    def text(argv, code):
        assert main(argv) == code
        return capsys.readouterr().out.splitlines()

    lines = text(["analyze", tent], 0)
    assert lines[:3] == [
        "fixed sets up to power 4:",
        "  power 1: 1 vertices, 1 segments",
        "  power 2: 1 vertices, 3 segments",
    ]
    assert lines[-3:] == ["vertices:", "  v0: endpoint, period 1", "  v1: endpoint, period none found"]
    assert text(["classify", tent, "--point", "v1"], 0) == [
        "vertex v1: endpoint (order 1)",
        "preperiodic: enters a period-1 cycle after 1 steps",
    ]
    assert text(["classify", tent, "--point", '{"edge": "e", "t": "2/3"}'], 0) == [
        "edge e @ 2/3: cutpoint (order 2)",
        "periodic with period 1",
    ]

    bound = ["--max-period", "2"]
    with pytest.raises(SystemExit) as exc:
        main(["recurrence", rot3] + bound)
    assert exc.value.code == 3
    assert "unrecognized arguments: --max-period 2" in capsys.readouterr().err
    assert text(["analyze", tent, "--depth", "12", "--piece-cap", "100"], 2) == [
        "inconclusive: iterate exceeded the piece budget (128 > 100)"
    ]
    lines = text(["analyze", rot3] + bound, 0)
    assert "  power 3: 4 vertices, 3 segments" in lines
    assert "  c: branchpoint, period 1" in lines
    assert "  l0: endpoint, period none found" in lines
    assert text(["classify", rot3, "--point", "l0"] + bound, 0) == [
        "vertex l0: endpoint (order 1)",
        "no periodicity found within the bound",
    ]


def test_odometer_text_on_the_identity_star_has_no_cycles(tmp_path, capsys):
    """The identity fixes the whole tree, so no level has a component."""
    path = write_fixture(tmp_path, "star")
    assert main(["odometer", path]) == 0
    assert capsys.readouterr().out == "no nested cycles of sets\n"


def test_one_parser_serves_every_call(tmp_path, capsys):
    """The parser is built once per process; each call still gets its own
    defaults and its own exit code."""
    assert _build_parser() is _build_parser()
    path = write_fixture(tmp_path, "tent")
    code, report = run_json(capsys, ["classify", path, "--point", "v0", "--max-period", "3"])
    assert code == 0 and report["period"] == 1
    code, report = run_json(capsys, ["recurrence", path])
    assert code == 1 and report["verdict"]["reason"] == "not-injective"
    args = _build_parser().parse_args(["analyze", path])
    assert args.max_period == MAX_PERIOD_DEFAULT and not hasattr(args, "point")
    with pytest.raises(SystemExit) as exc:
        main(["classify", path, "--max-period", "0", "--point", "v0"])
    assert exc.value.code == 3
    assert "must be at least 1" in capsys.readouterr().err
    code, report = run_json(capsys, ["classify", path, "--point", "v1"])
    assert code == 0 and report["point"] == {"vertex": "v1"}
    assert report["preperiod"] == 1 and report["eventual_period"] == 1
    with pytest.raises(SystemExit) as exc:
        main(["recurrence", path, "--piece-cap", "5"])
    assert exc.value.code == 3
    assert _build_parser().parse_args(["analyze", path]).depth == DEPTH_DEFAULT


@pytest.mark.parametrize("command, compositions", [("odometer", 0), ("analyze", 0), ("verify", 2)])
def test_deep_tower_composes_no_power(tmp_path, capsys, monkeypatch, command, compositions):
    """A tower is certified, so `--depth 64` reads every fixed set off its
    orbits; `verify` composes only f^2 and then f^3 from it, for the power
    check."""
    path = write_fixture(tmp_path, "tower", {"periods": "2,4,8,16,32,64"})
    composed = []
    plain = plmap.compose

    def counted(*args):
        composed.append(args)
        return plain(*args)

    monkeypatch.setattr(plmap, "compose", counted)
    code, report = run_json(capsys, [command, path, "--depth", "64"])
    assert code == 0
    assert len(composed) == compositions
    if command == "odometer":
        assert [c["period"] for c in report["cycles"]] == [2, 4, 8, 16, 32, 64]
        assert report["classification"]["label"] == "topological (full)"
    if command == "analyze":
        assert len(report["fixed_sets"]) == 64
        assert report["cumulative"]["64"]["segments"] == report["fixed_sets"]["64"]["segments"]


def test_analyze_builds_only_the_factor_powers(tmp_path, capsys, monkeypatch):
    """stem_sweep has no certificate, so `analyze --depth 4` takes its fixed
    sets from powers: Fix(f) from f itself, and each Fix(f^n) from the
    factors (f^(n-1), f), by the one solver.  So only f^2 = f . f and
    f^3 = f^2 . f are built, each as a factor of the next power, and f^4 is
    never built."""
    path = write_fixture(tmp_path, "stem_sweep")
    composed = []
    solved = []
    plain_compose = plmap.compose
    plain_solve = dynamics.composite_fixed_set

    def counted_compose(outer, inner):
        composed.append((outer, inner, plain_compose(outer, inner)))
        return composed[-1][2]

    def counted_solve(outer, inner):
        solved.append((outer, inner))
        return plain_solve(outer, inner)

    monkeypatch.setattr(plmap, "compose", counted_compose)
    monkeypatch.setattr(dynamics, "composite_fixed_set", counted_solve)
    code, report = run_json(capsys, ["analyze", path, "--depth", "4"])
    assert code == 0 and len(report["fixed_sets"]) == 4
    (f, g, square), (cube_outer, cube_inner, cube) = composed
    assert f is g is cube_inner and cube_outer is square
    assert [(outer, inner is f) for outer, inner in solved] == [
        (None, True), (f, True), (square, True), (cube, True)
    ]


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    """Every report, exit code and message is the same byte for byte under
    two hash seeds, each run in its own process: no report order follows
    the hashes of strings or points."""
    files = {
        "tower": write_fixture(tmp_path, "tower", {"periods": "2,4"}, name="tower.json"),
        "sweep": write_fixture(tmp_path, "stem_sweep", {"k": "3"}, name="sweep.json"),
    }
    src = os.path.dirname(os.path.dirname(os.path.abspath(dendrodyn.__file__)))
    runs = {}
    for seed in ("0", "4021"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for command in ("odometer", "verify", "analyze"):
            for name, path in files.items():
                out = tmp_path / f"{command}-{name}-{seed}.json"
                argv = [sys.executable, "-m", "dendrodyn.cli", command, path, "--format", "json"]
                done = subprocess.run(argv + ["-o", str(out)], env=env, capture_output=True, timeout=120)
                report = out.read_bytes() if out.exists() else None
                runs.setdefault((command, name), []).append(
                    (done.returncode, done.stdout, done.stderr, report)
                )
    for key, (first, second) in runs.items():
        assert first == second, key
    # both sides of a verdict, and a refusal, are compared
    codes = {key: first[0] for key, (first, _) in runs.items()}
    assert codes[("verify", "tower")] == 0 and codes[("verify", "sweep")] == 1
    assert codes[("odometer", "sweep")] == 3
