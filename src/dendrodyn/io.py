"""Exact JSON serialization for trees, points, and maps.

One instance is one JSON object.  A bare tree carries "vertices" and
"edges"; adding a map contributes "vertex_images" and "edge_pieces".
Every rational is a "p/q" string in lowest terms, so values survive a
round trip bit for bit; nothing is ever written as a float.  On input a
rational is a JSON integer of at most `MAX_DIGITS` digits, or a string in
`tree.as_fraction`'s grammar: decimal digits with an optional sign and
"/digits" part, each part at most `MAX_DIGITS` digits.  The library takes
the same grammar for every rational it is handed.

A file states the same values many times over: "0/1" and "1/1" on every
edge, and each vertex image again as a breakpoint image on every edge at
that vertex.  One load reads through one `_Reader`, which parses and
validates each distinct rational string and each distinct point object
once and hands out the same value for every repeat.  A value that is
not a string, or a point with a field that is not, is never kept (a list
or an object could not be a key): it is read afresh wherever it stands,
so a malformed one is refused there.

A map's breakpoints are read edge by edge into two columns, parameters
and points; once every edge is read, `plmap`'s table builder (`_built`)
checks each edge in turn, validating no point the reader built, and its
pieces go to the one assembler (`PLTreeMap._from_pieces`).  No list of
(t, point) pairs is made.

Every instance file and every JSON report of the command line is
written by one writer, `dump_json`: the bytes of `json.dumps(obj,
sort_keys=True, indent=2)` and a newline, without the standard library's
pure-Python encoder, which it uses whenever `indent` is set.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import StructureError
from .plmap import PLTreeMap, _built
from .tree import MAX_DIGITS, MetricTree, Subtree, TreePoint, _new, as_fraction


def fraction_to_str(x) -> str:
    return f"{x.numerator}/{x.denominator}"


_INTEGER_LIMIT = 10**MAX_DIGITS
# 25 times the largest instance the tests and the benchmark load (an
# 800-vertex star): a bad file cannot ask for unbounded time and memory
MAX_VERTICES = 20_000


def fraction_from_str(s) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        if abs(s) >= _INTEGER_LIMIT:
            raise StructureError(f"an integer longer than {MAX_DIGITS} digits")
    elif not isinstance(s, str):
        raise StructureError(f"expected a rational string, got {s!r}")
    return as_fraction(s)


def point_to_json(p: TreePoint) -> dict:
    if p.is_vertex:
        return {"vertex": p.vertex}
    return {"edge": p.edge, "t": fraction_to_str(p.t)}


def point_from_json(obj, tree: MetricTree) -> TreePoint:
    """A point from one of the two forms `point_to_json` writes:
    {"vertex": v} or {"edge": e, "t": p/q}, with no other key."""
    return _Reader().point(obj, tree)


def _string_ids(ids) -> list:
    bad = [x for x in ids if not isinstance(x, str)]
    if bad:
        raise StructureError(f"the file format uses string ids, got {bad[0]!r}")
    return list(ids)


def tree_to_json(tree: MetricTree) -> dict:
    _string_ids((*tree.vertex_ids, *tree.edge_ids))
    return {
        "vertices": list(tree.vertex_ids),
        "edges": [
            {
                "id": eid,
                "ends": list(tree.edge_ends(eid)),
                "length": fraction_to_str(tree.edge_length(eid)),
            }
            for eid in tree.edge_ids
        ],
    }


class _Reader:
    """The rationals and points of one load, each distinct one read once.

    Only a string, or a point object whose fields are all strings, is
    kept: it is hashable, and what it reads as depends only on the tree,
    which is fixed for the load.  Anything else is read afresh each time.
    """

    __slots__ = ("_rationals", "_points")

    def __init__(self):
        self._rationals: dict = {}
        self._points: dict = {}

    def rational(self, value) -> Fraction:
        if type(value) is not str:
            return fraction_from_str(value)
        q = self._rationals.get(value)
        if q is None:
            q = self._rationals[value] = as_fraction(value)
        return q

    def point(self, obj, tree: MetricTree) -> TreePoint:
        key = None  # {"vertex": v} is kept under v, {"edge": e, "t": t} under (e, t)
        if type(obj) is dict:
            if len(obj) == 1:
                v = obj.get("vertex")
                if type(v) is str:
                    key = v
            elif len(obj) == 2:
                e, t = obj.get("edge"), obj.get("t")
                if type(e) is str and type(t) is str:
                    key = (e, t)
        if key is None:
            return self._read_point(obj, tree)
        p = self._points.get(key)
        if p is None:
            p = self._points[key] = self._read_point(obj, tree)
        return p

    def _read_point(self, obj, tree: MetricTree) -> TreePoint:
        if not isinstance(obj, dict):
            raise StructureError(f"a point must be an object, got {obj!r}")
        if len(obj) == 1 and "vertex" in obj:
            v = obj["vertex"]
            if not isinstance(v, str) or not tree.has_vertex(v):
                raise StructureError(f"unknown vertex {v!r}")
            return tree.vertex_point(v)
        if len(obj) == 2 and "edge" in obj and "t" in obj:
            eid = obj["edge"]
            if not isinstance(eid, str) or not tree.has_edge(eid):
                raise StructureError(f"unknown edge {eid!r}")
            return tree.edge_point(eid, self.rational(obj["t"]))
        raise StructureError(
            f"a point has the keys ['vertex'] or ['edge', 't'], got {sorted(map(str, obj))}"
        )


def tree_from_json(obj) -> MetricTree:
    return _tree_from_json(obj, _Reader())


def _tree_from_json(obj, reader: _Reader) -> MetricTree:
    if not isinstance(obj, dict):
        raise StructureError("an instance must be a JSON object")
    for key in ("vertices", "edges"):
        if key not in obj:
            raise StructureError(f"instance is missing {key!r}")
        if not isinstance(obj[key], list):
            raise StructureError(f"{key!r} must be a list, got {obj[key]!r}")
        if len(obj[key]) > MAX_VERTICES:
            raise StructureError(
                f"{key!r} has {len(obj[key])} entries; an instance holds at most "
                f"{MAX_VERTICES} vertices"
            )
    edges = []
    for i, e in enumerate(obj["edges"]):
        try:
            eid, ends, length = e["id"], e["ends"], e["length"]
        except (TypeError, KeyError) as exc:
            raise StructureError(f"edge #{i} is missing {exc}") from None
        if not isinstance(ends, list) or len(ends) != 2:
            raise StructureError(f"edge {eid!r} needs exactly two ends")
        u, w = ends
        if not (type(eid) is str and type(u) is str and type(w) is str):
            _string_ids([eid, u, w])  # raises on the first id that is not a string
        edges.append((eid, (u, w), reader.rational(length)))
    return MetricTree(_string_ids(obj["vertices"]), edges)


def _object_field(obj, key):
    value = obj.get(key, {})
    if not isinstance(value, dict):
        raise StructureError(f"{key!r} must be an object, got {value!r}")
    return value


def _known_keys(field: dict, ids, key: str, what: str) -> None:
    """Refuse a key of `field` that names none of `ids`: it would be dropped."""
    unknown = sorted(set(field) - set(ids))
    if unknown:
        raise StructureError(f"{key!r} names unknown {what}: {unknown}")


def subtree_to_json(sub: Subtree) -> dict:
    return {
        "vertices": sorted(sub.vertices, key=str),
        "segments": {
            str(eid): [[fraction_to_str(lo), fraction_to_str(hi)] for lo, hi in ivs]
            for eid, ivs in sub.segments.items()
        },
    }


def map_to_json(f: PLTreeMap) -> dict:
    out = tree_to_json(f.domain)
    out["vertex_images"] = {
        v: point_to_json(f.vertex_image(v)) for v in f.domain.vertex_ids
    }
    out["edge_pieces"] = {
        eid: [
            {"t": fraction_to_str(t), "image": point_to_json(p)}
            for t, p in f.breakpoints(eid)
        ]
        for eid in f.domain.edge_ids
    }
    return out


def map_from_json(obj) -> tuple:
    """The tree of an instance, and its map or None, in one pass.

    Every value goes through one `_Reader`, so a repeated rational or
    point is parsed and validated once for the whole load.  Every edge's
    breakpoint list is read first, into a column of parameters and one
    of points; the columns go to the table builder (`plmap._built`) and
    its pieces to `PLTreeMap._from_pieces`, with no point validated
    again, and the vertex images the file declares are compared with
    the ones the edges gave.
    """
    reader = _Reader()
    tree = _tree_from_json(obj, reader)
    if "edge_pieces" not in obj and "vertex_images" not in obj:
        return tree, None
    vimg_raw = _object_field(obj, "vertex_images")
    _known_keys(vimg_raw, tree.vertex_ids, "vertex_images", "vertices")
    point = reader.point
    vimg = {v: point(p, tree) for v, p in vimg_raw.items()}
    for v in tree.vertex_ids:
        if v not in vimg:
            raise StructureError(f"vertex {v!r} has no image")

    pieces_raw = _object_field(obj, "edge_pieces")
    _known_keys(pieces_raw, tree.edge_ids, "edge_pieces", "edges")
    rational = reader.rational
    columns = []
    for eid in tree.edge_ids:
        bps = pieces_raw.get(eid)
        if not isinstance(bps, list):
            raise StructureError(f"edge {eid!r} needs a breakpoint list")
        params = []
        images = []
        for bp in bps:
            if not isinstance(bp, dict) or "t" not in bp or "image" not in bp:
                raise StructureError(f"bad breakpoint on edge {eid!r}: {bp!r}")
            params.append(rational(bp["t"]))
            images.append(point(bp["image"], tree))
        columns.append((eid, params, images))
    f = _new(PLTreeMap)._from_pieces(tree, *_built(tree, columns))
    built = f._vimg
    for v in tree.vertex_ids:
        got, want = built[v], vimg[v]
        if got is not want and got != want:
            raise StructureError(
                f"vertex_images disagrees with edge_pieces at vertex {v!r}"
            )
    return tree, f


_escape = json.encoder.encode_basestring_ascii  # the standard library's C string encoder


def dump_json(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2) + "\\n"`, byte for byte.

    With `indent` set the standard library encodes in pure Python, one
    generator per level; this writer appends to one list instead.  It
    takes what reports and instances hold: dicts with `str` keys, lists
    and tuples, strings, ints, booleans and None.  Anything else, a float
    or a key that is not a string among them, raises `TypeError`.
    """
    out = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(obj, out: list, newline: str) -> None:
    """Append obj's JSON to out; `newline` is the line break and indent of
    obj's own level."""
    if isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(_escape(key))
            out.append(": ")
            _write(obj[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dump_instance(tree: MetricTree, f: PLTreeMap | None = None) -> str:
    return dump_json(tree_to_json(tree) if f is None else map_to_json(f))


def load_instance(text: str) -> tuple:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also past the digit limit or the stack
        raise StructureError(f"not valid JSON: {exc}") from None
    return map_from_json(obj)


def save_instance_file(path, tree: MetricTree, f: PLTreeMap | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_instance(tree, f))


def load_instance_file(path) -> tuple:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise StructureError(f"not UTF-8 text: {exc}") from None
    return load_instance(text)
