import json

import pytest

from dendrodyn import build_fixture, save_instance_file
from dendrodyn.cli import main


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
    assert len(w["points"]) == 2


def test_odometer_tower_depth_two(tmp_path, capsys):
    path = write_fixture(tmp_path, "tower", {"periods": "2,4"})
    code, report = run_json(capsys, ["odometer", "--depth", "2", path])
    assert code == 0
    assert [c["period"] for c in report["cycles"]] == [2, 4]
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


def test_inconclusive_exit_two(tmp_path, capsys):
    path = write_fixture(tmp_path, "rotation", {"arms": "3"})
    code, report = run_json(capsys, ["recurrence", path, "--max-period", "2"])
    assert code == 2
    assert report["outcome"] == "inconclusive"
    assert "3 > 2" in report["error"]


def test_input_errors_exit_three(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["recurrence", missing]) == 3
    capsys.readouterr()

    broken = tmp_path / "broken.json"
    broken.write_text('{"vertices": [')
    assert main(["recurrence", str(broken)]) == 3
    err = capsys.readouterr().err
    assert "line" in err


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
        ["recurrence", "--max-period", "-5"],
        ["recurrence", "--piece-cap", "0"],
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
    "argv, name",
    [
        (["fixture", "rotation", "--param", "arms=abc"], "'arms'"),
        (["fixture", "rotation", "--param", "arm_length=1/0"], "'arm_length'"),
        (["fixture", "tower", "--param", "periods=2,x"], "'periods'"),
        (["fixture", "random_folding", "--seed", "abc"], "'seed'"),
    ],
)
def test_fixture_parameters_that_are_not_numbers_exit_three(capsys, argv, name):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert f"parameter {name} is not a number" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_fixture_seed_env_that_is_not_a_number_exits_three(capsys, monkeypatch):
    monkeypatch.setenv("DENDRODYN_SEED", "zz")
    assert main(["fixture", "random_finite_order"]) == 3
    assert "parameter 'seed' is not a number: 'zz'" in capsys.readouterr().err


def test_fixture_seed_env(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    c = tmp_path / "c.json"
    monkeypatch.setenv("DENDRODYN_SEED", "21")
    assert main(["fixture", "random_folding", "-o", str(a)]) == 0
    assert main(["fixture", "random_folding", "-o", str(b)]) == 0
    monkeypatch.setenv("DENDRODYN_SEED", "22")
    assert main(["fixture", "random_folding", "-o", str(c)]) == 0
    assert a.read_text() == b.read_text()
    assert a.read_text() != c.read_text()


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
