import gc
import json
import re
from fractions import Fraction as F

import pytest

import dendrodyn.io
from dendrodyn import MetricTree, PLTreeMap, StructureError, build_fixture
from dendrodyn.cli import main
from dendrodyn.fixtures import FIXTURE_KINDS, odometer_tower
from dendrodyn.io import (
    dump_instance,
    dump_json,
    MAX_VERTICES,
    fraction_from_str,
    fraction_to_str,
    load_instance,
    map_from_json,
    point_from_json,
    point_to_json,
    save_instance_file,
    load_instance_file,
    subtree_to_json,
    tree_from_json,
    tree_to_json,
)
from dendrodyn.plmap import composite_fixed_set
from oracles import load_map_directly, loaded_by_both, maps_equal, same_load


def interval():
    return MetricTree(["v0", "v1"], [("e", ("v0", "v1"), 1)])


def tent_on(t):
    p0, p1 = t.vertex_point("v0"), t.vertex_point("v1")
    return PLTreeMap(t, {"e": [(0, p0), (F(1, 2), p1), (1, p0)]})


def test_fraction_strings_lowest_terms():
    assert fraction_to_str(F(2, 4)) == "1/2"
    assert fraction_to_str(F(3)) == "3/1"
    assert fraction_to_str(0) == "0/1"
    assert fraction_from_str("7/21") == F(1, 3)
    assert fraction_from_str("5") == F(5)
    assert fraction_from_str("-" + "9" * 1000) == -(10**1000 - 1)
    assert fraction_from_str("+2/" + "4" * 1000) == F(2, int("4" * 1000))
    assert fraction_from_str(10**1000 - 1) == 10**1000 - 1


def test_fraction_rejects_garbage():
    with pytest.raises(StructureError):
        fraction_from_str("a/b")
    # only [sign]digits[/digits], at most 1000 digits a part, loads
    for bad in ("1e5", "0.5", " 1", "1_0", "1/", "/2", "1/2/3", "9" * 1001, "1/" + "9" * 1001):
        with pytest.raises(StructureError, match="not a rational"):
            fraction_from_str(bad)
    with pytest.raises(StructureError, match="longer than 1000 digits"):
        fraction_from_str(-(10**1000))
    with pytest.raises(StructureError):
        fraction_from_str("1/0")
    with pytest.raises(StructureError):
        fraction_from_str([1, 2])


def test_integer_past_the_json_digit_limit_is_malformed():
    # Python's int parsing refuses more than 4300 digits inside json.loads
    text = '{"vertices": ["a", "b"], "edges": [{"id": "e", "ends": ["a", "b"], "length": %s}]}'
    with pytest.raises(StructureError, match="not valid JSON|longer than 1000 digits"):
        load_instance(text % ("1" * 5000))


def test_point_round_trip():
    t = interval()
    for p in t.grid_points(3):
        obj = point_to_json(p)
        assert point_from_json(obj, t) == p
    assert point_to_json(t.vertex_point("v0")) == {"vertex": "v0"}
    assert point_to_json(t.edge_point("e", F(1, 3))) == {"edge": "e", "t": "1/3"}


def test_point_parse_errors():
    t = interval()
    with pytest.raises(StructureError):
        point_from_json({"vertex": "nope"}, t)
    with pytest.raises(StructureError):
        point_from_json({"edge": "nope", "t": "1/2"}, t)
    with pytest.raises(StructureError):
        point_from_json({"something": 1}, t)
    with pytest.raises(StructureError):
        point_from_json("v0", t)


@pytest.mark.parametrize("eid", ["x", ["e"], {"e": 1}, 1, None])
def test_point_on_an_unknown_edge_is_malformed(eid):
    with pytest.raises(StructureError, match=re.escape(f"unknown edge {eid!r}") + "$"):
        point_from_json({"edge": eid, "t": "1/2"}, interval())


def midpoint_path(n):
    """A path of n vertices whose vertex and breakpoint images are all edge
    midpoints: each vertex goes to the midpoint of the edge after it."""
    vs = [f"p{i}" for i in range(n)]

    def mid(i):
        return {"edge": f"e{min(i, n - 2)}", "t": "1/2"}

    return json.dumps({
        "vertices": vs,
        "edges": [{"id": f"e{i}", "ends": [vs[i], vs[i + 1]], "length": "1"} for i in range(n - 1)],
        "vertex_images": {v: mid(i) for i, v in enumerate(vs)},
        "edge_pieces": {
            f"e{i}": [{"t": "0", "image": mid(i)}, {"t": "1", "image": mid(i + 1)}]
            for i in range(n - 1)
        },
    })


def test_loading_edge_points_does_not_scan_the_edge_ids(monkeypatch):
    """Each edge-point image is looked up by hash, not found by scanning
    `edge_ids`, so loading stays linear in the file."""
    reads = []
    plain = MetricTree.edge_ids

    def counted(tree):
        reads.append(1)
        return plain.fget(tree)

    monkeypatch.setattr(MetricTree, "edge_ids", property(counted))
    counts = []
    for n in (50, 500):
        reads.clear()
        tree, f = load_instance(midpoint_path(n))
        assert f.vertex_image("p0") == tree.edge_point("e0", F(1, 2))
        counts.append(len(reads))
    assert counts[0] == counts[1]


POINT_FORMS = r"the keys \['vertex'\] or \['edge', 't'\]"


@pytest.mark.parametrize(
    "obj",
    [
        {"edge": "e"},  # no t: not the point at t = 0
        {"t": "1/2"},
        {"vertex": "v0", "edge": "e", "t": "1/2"},  # not the vertex alone
        {"vertex": "v0", "t": "1/2"},
        {"vertex": "v0", "label": "x"},
        {"edge": "e", "t": "1/2", "label": "x"},
        {},
    ],
)
def test_point_has_exactly_one_of_the_two_forms(obj):
    with pytest.raises(StructureError, match=POINT_FORMS):
        point_from_json(obj, interval())


def test_breakpoint_image_without_t_is_malformed():
    t = interval()
    obj = json.loads(dump_instance(t, tent_on(t)))
    assert load_instance(json.dumps(obj))  # the file as written loads
    obj["edge_pieces"]["e"][1]["image"] = {"edge": "e"}
    with pytest.raises(StructureError, match=POINT_FORMS):
        load_instance(json.dumps(obj))


def test_tree_json_shape():
    t = interval()
    obj = tree_to_json(t)
    assert obj == {
        "vertices": ["v0", "v1"],
        "edges": [{"id": "e", "ends": ["v0", "v1"], "length": "1/1"}],
    }
    assert tree_from_json(obj) == t


def test_tree_json_rejects_bad_input():
    with pytest.raises(StructureError):
        tree_from_json([1, 2])
    with pytest.raises(StructureError):
        tree_from_json({"vertices": ["a"]})
    with pytest.raises(StructureError):
        tree_from_json({"vertices": ["a"], "edges": [{"id": "e"}]})
    with pytest.raises(StructureError):
        tree_from_json(
            {"vertices": ["a", "b"], "edges": [{"id": "e", "ends": ["a"], "length": "1/1"}]}
        )


def test_vertex_limit():
    def star(arms):
        return {
            "vertices": ["c", *(f"l{i}" for i in range(arms))],
            "edges": [{"id": f"a{i}", "ends": ["c", f"l{i}"], "length": 1} for i in range(arms)],
        }

    assert len(tree_from_json(star(MAX_VERTICES - 1)).vertex_ids) == MAX_VERTICES
    for key in ("vertices", "edges"):
        obj = star(1)
        obj[key] = [None] * (MAX_VERTICES + 1)  # rejected before any element is read
        with pytest.raises(StructureError, match=f"{key!r} has {MAX_VERTICES + 1} entries"):
            tree_from_json(obj)


def test_boolean_length_is_not_a_rational():
    with pytest.raises(StructureError, match="rational"):
        fraction_from_str(True)
    obj = tree_to_json(interval())
    obj["edges"][0]["length"] = True
    with pytest.raises(StructureError):
        tree_from_json(obj)
    with pytest.raises(StructureError):
        point_from_json({"edge": "e", "t": False}, interval())


@pytest.mark.parametrize("vertices", ["ab", {"a": 1, "b": 2}, None, 2])
def test_vertices_must_be_a_list(vertices):
    obj = {
        "vertices": vertices,
        "edges": [{"id": "e", "ends": ["a", "b"], "length": "1/1"}],
    }
    with pytest.raises(StructureError, match="'vertices' must be a list"):
        tree_from_json(obj)


def test_non_string_ids_rejected_on_dump():
    t = MetricTree([0, 1], [("e", (0, 1), 1)])
    with pytest.raises(StructureError):
        tree_to_json(t)


def test_map_round_trip_is_bit_exact():
    t = interval()
    f = tent_on(t)
    text = dump_instance(t, f)
    t2, f2 = load_instance(text)
    assert t2 == t
    assert maps_equal(f2, f)
    assert dump_instance(t2, f2) == text


def test_every_fixture_round_trips_bit_exactly():
    for kind in FIXTURE_KINDS:
        params = {"seed": "11"} if kind.startswith("random") else None
        tree, f = build_fixture(kind, params)
        text = dump_instance(tree, f)
        tree2, f2 = load_instance(text)
        assert tree2 == tree, kind
        assert maps_equal(f2, f), kind
        assert dump_instance(tree2, f2) == text, kind


def test_tree_only_instance_loads_with_no_map():
    t = interval()
    text = dump_instance(t)
    t2, f2 = load_instance(text)
    assert t2 == t
    assert f2 is None
    assert dump_instance(t2) == text


def test_load_rejects_mismatched_vertex_images():
    t = interval()
    f = tent_on(t)
    obj = json.loads(dump_instance(t, f))
    obj["vertex_images"]["v0"] = {"vertex": "v1"}
    with pytest.raises(StructureError):
        load_instance(json.dumps(obj))


def test_load_rejects_missing_pieces_and_images():
    t = interval()
    f = tent_on(t)
    base = json.loads(dump_instance(t, f))

    broken = dict(base)
    broken["edge_pieces"] = {}
    with pytest.raises(StructureError):
        load_instance(json.dumps(broken))

    broken = dict(base)
    broken["vertex_images"] = {"v0": {"vertex": "v0"}}
    with pytest.raises(StructureError):
        load_instance(json.dumps(broken))

    broken = json.loads(dump_instance(t, f))
    broken["edge_pieces"]["e"][0] = {"t": "0/1"}
    with pytest.raises(StructureError):
        load_instance(json.dumps(broken))


@pytest.mark.parametrize(
    "key, unknown", [("vertex_images", "zz"), ("edge_pieces", "ghost")]
)
def test_load_rejects_unknown_ids(key, unknown):
    # a key naming no vertex or edge would be dropped, so the file could not round-trip
    t = interval()
    obj = json.loads(dump_instance(t, tent_on(t)))
    obj[key][unknown] = obj[key]["v0" if key == "vertex_images" else "e"]
    with pytest.raises(StructureError, match=f"{key!r} names unknown .*{unknown!r}"):
        load_instance(json.dumps(obj))


def test_load_rejects_syntax_errors_with_position():
    with pytest.raises(StructureError, match="line"):
        load_instance('{"vertices": [')


def test_single_vertex_instance_round_trips():
    t = MetricTree(["only"], [])
    f = PLTreeMap(t, {})
    text = dump_instance(t, f)
    t2, f2 = load_instance(text)
    assert t2 == t
    assert maps_equal(f2, f)
    assert dump_instance(t2, f2) == text


def test_file_round_trip(tmp_path):
    tree, f = build_fixture("rotation", {"arms": "4"})
    path = tmp_path / "rot.json"
    save_instance_file(path, tree, f)
    tree2, f2 = load_instance_file(path)
    assert tree2 == tree
    assert maps_equal(f2, f)


# -- the one JSON writer --------------------------------------------------------

WRITER_CORNERS = [
    {},
    [],
    (),
    {"a": {}, "b": [[], {}], "c": [{"d": []}], "": ()},
    ["naïve", "quote \" here", "back\\slash", "\x00\x1f\x7f\n\t", "\u2028 \U0001f600"],
    {"é": "ü", "z": 1, "A": None, "a b": [None]},
    [True, 1, False, 0, None, -1],
    {"on": True, "one": 1, "off": False, "zero": 0, "none": None},
    10**400,
    [-(10**400), ("tuple", ("inside", 2))],
    "a bare string",
]


@pytest.mark.parametrize("obj", WRITER_CORNERS)
def test_dump_json_writes_what_the_standard_library_writes(obj):
    assert dump_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "obj", [1.5, {1, 2}, {1: "a"}, {"a": [0.5]}, {"a": {"b": {2: None}}}, [F(1, 2)]]
)
def test_dump_json_refuses_what_no_report_holds(obj):
    with pytest.raises(TypeError):
        dump_json(obj)


def test_subtree_json_is_sorted_and_exact():
    tree, f = build_fixture("tent")
    sub = composite_fixed_set(None, f)
    obj = subtree_to_json(sub)
    assert obj == {"vertices": ["v0"], "segments": {"e": [["2/3", "2/3"]]}}


# -- one load, each repeated value read once ----------------------------------------


def fixture_instances():
    for kind in FIXTURE_KINDS:
        params = {"seed": "11"} if kind.startswith("random") else None
        yield kind, json.loads(dump_instance(*build_fixture(kind, params)))


def test_loader_matches_the_direct_loader_on_every_fixture():
    for kind, obj in fixture_instances():
        got, want = loaded_by_both(obj)
        assert same_load(got, want), kind
        bare = {"vertices": obj["vertices"], "edges": obj["edges"]}
        assert same_load(map_from_json(bare), load_map_directly(bare)), kind


# fields no point may have: the list and the object are unhashable
ODD_FIELDS = (["c"], {"vertex": "c"}, [], 3, 1, None, True, 1.5)


def odd_points(obj):
    """Point objects with one field that is not a string."""
    eid = obj["edges"][0]["id"]
    for odd in ODD_FIELDS:
        yield {"vertex": odd}
        yield {"edge": odd, "t": "1/2"}
        yield {"edge": eid, "t": odd}


def test_point_fields_that_are_not_strings_are_read_afresh(tmp_path, capsys):
    """A point with a field that is not a string is never kept for reuse:
    it is refused, or loads, exactly as the value-by-value loader does,
    and a refused file exits 3, wherever the point stands."""
    path = tmp_path / "odd.json"
    base = json.loads(dump_instance(*build_fixture("rotation")))
    eid = base["edges"][0]["id"]
    refused = 0
    for point in odd_points(base):
        for where in ("vertex_images", "first", "last"):
            obj = json.loads(json.dumps(base))
            if where == "vertex_images":
                obj[where]["c"] = point
            else:
                obj["edge_pieces"][eid][0 if where == "first" else -1]["image"] = point
            got, want = loaded_by_both(obj)
            if isinstance(want, str):
                assert got == want, (point, where)
                path.write_text(json.dumps(obj))
                assert main(["recurrence", str(path)]) == 3, (point, where)
                assert capsys.readouterr().err.startswith("error: ")
                refused += 1
            else:
                assert same_load(got, want), (point, where)
    assert refused > 60


def record_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records the last argument of each call."""
    seen = []
    plain = getattr(owner, name)

    def recorded(*args):
        seen.append(args[-1])
        return plain(*args)

    monkeypatch.setattr(owner, name, recorded)
    return seen


def test_a_load_parses_and_validates_each_value_once(monkeypatch):
    """A load parses each distinct rational string once and builds each
    distinct point object once, checked against the tree as it is built,
    and hands the columns it reads to the table builder, which calls
    `validate_point` for none; a table handed to `PLTreeMap` directly has
    each breakpoint validated once."""
    obj = json.loads(midpoint_path(40))
    obj["vertex_images"]["p0"] = {"vertex": "p1"}  # a vertex point too
    obj["edge_pieces"]["e0"][0]["image"] = {"vertex": "p1"}
    strings = [e["length"] for e in obj["edges"]]
    points = list(obj["vertex_images"].values())
    for bps in obj["edge_pieces"].values():
        strings += [bp["t"] for bp in bps]
        points += [bp["image"] for bp in bps]
    strings += [p["t"] for p in points if "t" in p]
    parsed = record_calls(monkeypatch, dendrodyn.io, "as_fraction")
    vertices = record_calls(monkeypatch, MetricTree, "vertex_point")
    edge_points = record_calls(monkeypatch, MetricTree, "edge_point")
    validated = record_calls(monkeypatch, MetricTree, "validate_point")
    tree, f = map_from_json(obj)
    assert sorted(parsed) == sorted(set(strings))
    distinct = {json.dumps(p, sort_keys=True) for p in points}
    assert len(vertices) + len(edge_points) == len(distinct)
    assert validated == []
    table = {eid: f.breakpoints(eid) for eid in tree.edge_ids}
    assert maps_equal(PLTreeMap(tree, table), f)
    assert len(validated) == sum(len(bps) for bps in table.values())


def short(bps):
    return bps[:1]


def unspanned(bps):
    return [bps[0], {"t": "1/2", "image": bps[-1]["image"]}]


def unsorted(bps):
    return [bps[0], {"t": "0", "image": bps[0]["image"]}, *bps[1:]]


FAULTS = {
    short: "needs at least two breakpoints",
    unspanned: "breakpoints must span [0, 1]",
    unsorted: "breakpoints must increase",
}


@pytest.mark.parametrize("first", FAULTS)
@pytest.mark.parametrize("second", FAULTS)
def test_the_earlier_edges_fault_is_refused_first(first, second):
    """A table with a fault on each of two edges is refused for the first
    edge's fault, by a load and by `PLTreeMap` on the same table: each
    edge is checked in full before the next."""
    obj = json.loads(midpoint_path(3))
    pieces = obj["edge_pieces"]
    pieces["e0"], pieces["e1"] = first(pieces["e0"]), second(pieces["e1"])
    want = f"edge 'e0' {FAULTS[first]}"
    with pytest.raises(StructureError, match=re.escape(want)):
        map_from_json(obj)
    tree = tree_from_json(obj)
    table = {
        eid: [(fraction_from_str(bp["t"]), point_from_json(bp["image"], tree)) for bp in bps]
        for eid, bps in pieces.items()
    }
    with pytest.raises(StructureError, match=re.escape(want)):
        PLTreeMap(tree, table)


def test_loading_a_tower_tracks_no_more_objects_than_before():
    """The objects the cyclic collector tracks after a depth-8 tower
    (512 vertices) is loaded and kept.  A load added 5,129, about 10 per
    edge, while each piece kept its image arc; with a segment table in
    its place, and no `Arc` or offset tuple per piece, it added 4,107.
    With each edge holding only the tuple of its pieces, and no column of
    breakpoint parameters beside it, it added 3,085.  With no flat tuple
    of all the pieces beside the edges' tuples, and no vertex set beside
    the tree's adjacency, it adds 3,083, and it may not add more.  CPython
    3.10 to 3.13 count the same; another interpreter may not."""
    depth = 8
    text = dump_instance(*odometer_tower(depth, [2**i for i in range(1, depth + 1)]))
    load_instance(text)  # whatever a first load makes once
    gc.collect()
    before = len(gc.get_objects())
    held = load_instance(text)
    gc.collect()
    added = len(gc.get_objects()) - before
    assert len(held[0].edge_ids) == 511
    assert added <= 3_083
