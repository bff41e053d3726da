"""Call counts that must grow at most linearly with the size of a star.

Rotation, identity and half-rotated stars at 200 and 400 arms go through
`run_checks` and `cli.main odometer`, counting `PLTreeMap.evaluate`,
`MetricTree.contacts` and `TowerSet.contains` calls.  There is no time
budget: a quadratic step shows as a count that about quadruples when the
star doubles.  Detection finds each set from its attachment, so neither a
star nor a tower is split, whatever its size, nor has a component's
contacts counted, which only a refusal does; on towers
`verify` builds no set's closure, and the classification reads no set
at all.  The running union of the fixed sets merges each distinct fixed
set once.  From horizon 3 on, `verify` walks no grid sample of an
injective map and probes no anchor.  A map that is not onto is refuted
at the first gap of its image, with no split.
"""

import inspect
import random

import pytest

from dendrodyn import MetricTree, PLTreeMap, dynamics, save_instance_file, verify
from dendrodyn.cli import main
from dendrodyn.dynamics import _periodic_levels, check_full_invariance, decide_pointwise_recurrent
from dendrodyn.fixtures import build_fixture, odometer_tower, rotation_star
from dendrodyn.odometer import TowerSet, classify_adding_machine, detect_cycles_of_sets
from dendrodyn.plmap import map_from_vertex_images
from dendrodyn.tree import Subtree
from dendrodyn.verify import run_checks
from oracles import pieces_with_edges, sagged


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
    tally = {"evaluate": 0, "contacts": 0, "contains": 0}
    with monkeypatch.context() as patch:
        counted(patch, PLTreeMap, "evaluate", tally)
        counted(patch, MetricTree, "contacts", tally)
        counted(patch, TowerSet, "contains", tally)
        run(*build(arms))
    return tally


def assert_linear(small, large):
    for name in small:
        assert large[name] <= 2.1 * small[name] + 2, (name, small, large)
    assert large["contacts"] == small["contacts"] == 0, (small, large)


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


@pytest.mark.parametrize(
    "periods, depth",
    [((2, 4), 4), ((2, 4, 8), 4), ((2, 4, 8), 8), ((2, 4, 8, 16, 32, 64), 64)],
    ids=["t2-depth4", "t3-depth4", "t3-depth8", "t6-depth64"],
)
def test_towers_split_no_tree_to_detect_or_classify(monkeypatch, periods, depth):
    # each set is found from its attachment, so neither detection nor the
    # classification walks a component for its contacts
    _, f = odometer_tower(len(periods), periods)
    tally = {"contacts": 0}
    counted(monkeypatch, MetricTree, "contacts", tally)
    cycles = detect_cycles_of_sets(f, depth)
    assert tally["contacts"] == 0
    assert classify_adding_machine(cycles).label == "topological (full)"
    assert tally["contacts"] == 0


def test_verify_builds_no_set_closure(monkeypatch):
    _, f = odometer_tower(6, (2, 4, 8, 16, 32, 64))
    tally = {"closure": 0}
    plain = TowerSet.closure

    def closure(s):
        tally["closure"] += 1
        return plain.__get__(s)

    monkeypatch.setattr(TowerSet, "closure", property(closure))
    records = {r.name: r.result for r in run_checks(f, depth=64)}
    tower = records["adding-machine-semiconjugacy"]
    assert tower.status == "pass" and "[2, 4, 8, 16, 32, 64]" in tower.detail
    assert tally["closure"] == 0


def test_odometer_command_splits_no_tower(monkeypatch, tmp_path, capsys):
    tree, f = odometer_tower(6, (2, 4, 8, 16, 32, 64))
    path = tmp_path / "tower64.json"
    save_instance_file(path, tree, f)
    tally = {"contacts": 0}
    counted(monkeypatch, MetricTree, "contacts", tally)
    assert main(["odometer", str(path), "--depth", "64", "--format", "json"]) == 0
    assert '"periods": [' in capsys.readouterr().out
    assert tally["contacts"] == 0


def test_tower_union_merges_each_distinct_fixed_set_once(monkeypatch):
    # the 64-tower is certified with N = 64, so Fix(f^n) = Fix(f^gcd(n, 64)):
    # seven fixed sets for n = 1, ..., 64
    _, f = odometer_tower(6, (2, 4, 8, 16, 32, 64))
    tally = {"union": 0}
    with monkeypatch.context() as patch:
        counted(patch, Subtree, "union", tally)
        levels = list(_periodic_levels(f, 64))
    assert tally["union"] == len({id(fixed) for _, fixed, _ in levels}) == 7
    running = Subtree.empty(f.domain)
    for _, fixed, union in levels:
        running = running.union(fixed)
        assert union == running


@pytest.mark.parametrize("horizon", [3, 1000])
@pytest.mark.parametrize(
    "build",
    [lambda: odometer_tower(3, (2, 4, 8)), lambda: (None, sagged(random.Random(7), rotation_star(5)[1]))],
    ids=["tower", "sagged-rotation"],
)
def test_checks_walk_no_sample_and_probe_no_anchor(monkeypatch, build, horizon):
    """An injective map has no strictly preperiodic sample, and every
    anchor of P_3 is back within 3 steps: no grid sample other than a
    vertex or breakpoint is walked, and `returns_to_components` is not
    called."""
    f = build()[1]
    tree = f.domain
    starts = []
    plain = dynamics._walk

    def walk(g, x, h):
        if g is f:  # not a power the verdict check decides afresh
            starts.append(x)
        return plain(g, x, h)

    tally = {"returns_to_components": 0}
    monkeypatch.setattr(dynamics, "_walk", walk)
    monkeypatch.setattr(verify, "_walk", walk)
    counted(monkeypatch, dynamics, "returns_to_components", tally)
    counted(monkeypatch, verify, "returns_to_components", tally)
    records = run_checks(f, horizon=horizon)
    assert not any(r.result.status == "fail" or r.undecided for r in records)
    breaks = {tree.edge_point(eid, piece.t0) for eid, piece in pieces_with_edges(f) if piece.t0}
    samples = set(tree.grid_points(3)[len(tree.vertex_ids):]) - breaks
    assert starts and samples.isdisjoint(starts)
    assert tally["returns_to_components"] == 0


def test_classify_calls_no_subtree_method(monkeypatch):
    _, f = odometer_tower(3, (2, 4, 8))
    cycles = detect_cycles_of_sets(f, 8)
    tally = {}
    # the classification reads no set of a cycle, no subtree and no tree
    for cls in (Subtree, TowerSet, MetricTree):
        for name, attr in vars(cls).items():
            if isinstance(attr, property):
                plain = attr.fget
            else:
                plain = attr.__func__ if isinstance(attr, (classmethod, staticmethod)) else attr
            if not inspect.isfunction(plain):
                continue
            key = f"{cls.__name__}.{name}"
            tally[key] = 0

            def wrapped(*args, _plain=plain, _key=key, **kwargs):
                tally[_key] += 1
                return _plain(*args, **kwargs)

            if isinstance(attr, property):
                wrapped = property(wrapped)
            elif isinstance(attr, (classmethod, staticmethod)):
                wrapped = type(attr)(wrapped)
            monkeypatch.setattr(cls, name, wrapped)
    report = classify_adding_machine(cycles)
    monkeypatch.undo()
    assert report.label == "topological (full)" and report.detected_periods == (2, 4, 8)
    assert len(tally) > 20 and not any(tally.values()), tally


def test_a_gap_witness_splits_no_tree(monkeypatch):
    # the shift is injective and not onto: the decision and the invariance
    # check both name the first gap of its image, found with no split
    _, f = build_fixture("shift", {})
    tally = {"contacts": 0}
    counted(monkeypatch, MetricTree, "contacts", tally)
    verdict = decide_pointwise_recurrent(f)
    result = check_full_invariance(f)
    assert verdict.reason == "not-surjective" and result.status == "fail"
    assert verdict.witness.points == result.witness.points
    assert tally["contacts"] == 0
