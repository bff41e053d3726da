"""Call counts that must grow at most linearly with the size of a star.

Rotation, identity and half-rotated stars at 200 and 400 arms go through
`run_checks` and `cli.main odometer`, counting `PLTreeMap.evaluate`,
`MetricTree.components_minus` and `Component.contains` calls.  There is
no time budget: a quadratic step shows as a count that about quadruples
when the star doubles.  On a star every set of a tower hangs off the
centre and the periodic set is the same at every level, so the tree is
split once for the levels and once for the openness test, whatever the
number of arms.
"""

import pytest

from dendrodyn import MetricTree, PLTreeMap, save_instance_file
from dendrodyn.cli import main
from dendrodyn.plmap import map_from_vertex_images
from dendrodyn.tree import Component
from dendrodyn.verify import run_checks


def star_map(arms, moved):
    """A star of unit arms whose last `moved` arms rotate by one; the others stay."""
    verts = ["c"] + [f"l{i}" for i in range(arms)]
    tree = MetricTree(verts, [(f"a{i}", ("c", f"l{i}"), 1) for i in range(arms)])
    images = {v: tree.vertex_point(v) for v in verts}
    first = arms - moved
    for i in range(first, arms):
        images[f"l{i}"] = tree.vertex_point(f"l{first + (i - first + 1) % moved}")
    return tree, map_from_vertex_images(tree, images)


SHAPES = {
    "rotation": lambda arms: star_map(arms, arms),
    "identity": lambda arms: star_map(arms, 0),
    "half-rotated": lambda arms: star_map(arms, arms // 2),
}


def counted(monkeypatch, owner, name, tally):
    plain = getattr(owner, name)

    def wrapped(*args, **kwargs):
        tally[name] += 1
        return plain(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapped)


def calls(monkeypatch, run, arms, build):
    tally = {"evaluate": 0, "components_minus": 0, "contains": 0}
    with monkeypatch.context() as patch:
        counted(patch, PLTreeMap, "evaluate", tally)
        counted(patch, MetricTree, "components_minus", tally)
        counted(patch, Component, "contains", tally)
        run(*build(arms))
    return tally


def assert_linear(small, large):
    for name in small:
        assert large[name] <= 2.1 * small[name] + 2, (name, small, large)
    assert large["components_minus"] == small["components_minus"] <= 2, (small, large)


def checks(tree, f):
    records = run_checks(f)
    assert not any(r.result.status == "fail" for r in records)


@pytest.mark.parametrize("shape", SHAPES)
def test_checks_grow_linearly(monkeypatch, shape):
    small, large = (calls(monkeypatch, checks, arms, SHAPES[shape]) for arms in (200, 400))
    assert_linear(small, large)


@pytest.mark.parametrize("shape", SHAPES)
def test_odometer_command_grows_linearly(monkeypatch, tmp_path, shape, capsys):
    def odometer(tree, f):
        path = tmp_path / "star.json"
        save_instance_file(path, tree, f)
        assert main(["odometer", str(path), "--format", "json"]) == 0
        capsys.readouterr()

    small, large = (calls(monkeypatch, odometer, arms, SHAPES[shape]) for arms in (200, 400))
    assert_linear(small, large)
