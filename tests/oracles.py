"""Slow, direct oracles shared by the tests.

No command needs these, so they live here rather than in the package:
each answers by the most direct route, for comparison with the routines
the package runs.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product

from dendrodyn.errors import ConsistencyError, PreconditionError, ResourceLimitError, StructureError
from dendrodyn.fixtures import (
    odometer_tower,
    random_finite_order_map,
    random_folding_map,
    rotation_star,
    stem_sweep_map,
)
from dendrodyn.io import (
    MAX_VERTICES,
    _known_keys,
    _object_field,
    _string_ids,
    fraction_from_str,
    map_from_json,
)
from dendrodyn.dynamics import _periodic_levels
from dendrodyn.odometer import (
    AddingMachineReport,
    OdometerAddress,
    classify_adding_machine,
    validate_address,
)
from dendrodyn.plmap import (
    DEFAULT_PIECE_CAP,
    PLTreeMap,
    _retraction,
    _solve,
    built,
    compose,
    identity_map,
)
from dendrodyn.tree import ONE, ZERO, Arc, MetricTree, Subtree, TreePoint, point_key


@dataclass(frozen=True, slots=True)
class DataclassTreePoint:
    """The former `TreePoint`, a frozen dataclass, kept as it was: the
    slotted class in `dendrodyn.tree` must behave the same."""

    vertex: object = None
    edge: object = None
    t: Fraction | None = None

    def __post_init__(self):
        if (self.vertex is None) == (self.edge is None):
            raise StructureError("point must be a vertex or an edge position")
        if self.edge is not None:
            if not isinstance(self.t, Fraction) or not (ZERO < self.t < ONE):
                raise StructureError("edge position needs a Fraction t in (0,1)")

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None

    def __repr__(self):
        if self.is_vertex:
            return f"TreePoint(vertex={self.vertex!r})"
        return f"TreePoint(edge={self.edge!r}, t={str(self.t)})"


def orbit(f, p, length):
    """p, f(p), ..., f^length(p), one `evaluate` per step."""
    out = [p]
    for _ in range(length):
        out.append(f.evaluate(out[-1]))
    return out


def maps_equal(f, g):
    """Pointwise equality, decided through normal forms."""
    if f.domain != g.domain:
        return False
    a = f.normalize()
    b = g.normalize()
    return all(a.vertex_image(v) == b.vertex_image(v) for v in f.domain.vertex_ids) and all(
        a.breakpoints(eid) == b.breakpoints(eid) for eid in f.domain.edge_ids
    )


def is_identity(f):
    return maps_equal(f, identity_map(f.domain))


def measure(sub):
    """Total length of a subtree's intervals."""
    total = Fraction(0)
    for eid, intervals in sub.segments.items():
        length = sub.tree.edge_length(eid)
        for lo, hi in intervals:
            total += (hi - lo) * length
    return total


def point_subtree(tree, p):
    """The closed set {p}, in the canonical form `Subtree.build` gives."""
    if p.is_vertex:
        return Subtree.build(tree, [], [p.vertex])
    return Subtree.build(tree, [(p.edge, p.t, p.t)], [])


def canonical_key(sub):
    """A subtree's intervals by the `str` of their edge, then its vertices
    by `str`: an order worked out apart from the package, for sorting
    oracle output."""
    return (
        tuple(sorted((str(e), ivs) for e, ivs in sub.segments.items())),
        tuple(sorted(sub.vertices, key=str)),
    )


def valid_addresses(otype):
    """Every valid address of the type, in lexicographic digit order."""
    out = []
    for js in product(*(range(m) for m in otype.periods)):
        a = OdometerAddress(otype, js)
        if validate_address(a):
            out.append(a)
    return tuple(out)


def stem_sweep_spread(k, radius=None):
    """Diameter of the second-iterate image of the stem piece within
    `radius` of the far endpoint (default: the deepest cut height)."""
    tree, f = stem_sweep_map(k)
    radius = Fraction(1, 2**k) if radius is None else Fraction(radius)
    if not 0 < radius <= 1:
        raise PreconditionError("radius must lie in (0, 1]")
    ball = tree.arc(tree.vertex_point("s"), tree.edge_point("stem", radius))
    once = f.image_of_subtree(arc_subtree(ball))
    twice = f.image_of_subtree(once)
    corners = twice.corner_points()
    return max(
        (tree.distance(a, b) for a in corners for b in corners),
        default=Fraction(0),
    )


# -- a piece's image arc, and the routes that read it ---------------------------------
#
# A map's pieces keep segment tables (`plmap._Piece`).  These are the
# routes the package took while each piece kept its image arc, with that
# arc walked from the piece's ends by `MetricTree.arc`, kept to check the
# tables against.


def pieces_with_edges(f):
    """f's pieces as (edge, piece) pairs, edge by edge in the order of
    `_by_edge`: the order `_marked` counts them in.  A piece holds no edge
    id of its own; the key of the tuple that holds it names its edge."""
    return [(eid, piece) for eid, pieces in f._by_edge.items() for piece in pieces]


def piece_arc(tree, piece):
    """A piece's image arc, walked from its ends."""
    return tree.arc(piece.p0, piece.p1)


def arc_subtree(arc):
    """The former `Arc.as_subtree`: the closed set an arc covers."""
    segs = []
    verts = [p.vertex for p in (arc.a, arc.b) if p.is_vertex]
    for eid, t0, t1 in arc.segments:
        segs.append((eid, t0, t1) if t0 <= t1 else (eid, t1, t0))
    if not segs and not arc.a.is_vertex:
        segs.append((arc.a.edge, arc.a.t, arc.a.t))
    return Subtree.build(arc.tree, segs, verts)


def arc_table(piece, arc):
    """The table an image arc gives a piece: each segment over the window
    of domain parameters whose shares of the piece's window are the shares
    of the arc's length before the segment's two ends; none for a
    degenerate arc."""
    if not arc.segments:
        return ()
    width = piece.t1 - piece.t0
    xs = [piece.t0 + width * c / arc.length for c in arc.offsets]
    return tuple(
        (e, u0, u1, x0, x1) for (e, u0, u1), x0, x1 in zip(arc.segments, xs, xs[1:])
    )


def rational_table(edges, segs, t0, t1):
    """The former `plmap._table`, by rational arithmetic: the arclength
    up to each segment's end summed as rationals, and each window end
    t0 plus the window's width times that arclength's share of the path's
    total, the last at t1.  `segs` has two or more segments (edge, from,
    to); only the first and last can run part of their edge."""
    e, u0, u1 = segs[0]
    run = edges[e][2]
    if u0._denominator != 1:
        run = (u0 if u1._numerator == 0 else ONE - u0) * run
    ends = [run]
    for e, _, _ in segs[1:-1]:
        run = run + edges[e][2]
        ends.append(run)
    e, u0, u1 = segs[-1]
    last = edges[e][2]
    if u1._denominator != 1:
        last = (u1 if u0._numerator == 0 else ONE - u1) * last
    total = run + last
    whole = t0._numerator == 0 and t1._numerator == 1 == t1._denominator
    scale = None if whole else (t1 - t0) / total
    out = []
    x0 = t0
    for (e, u0, u1), c in zip(segs, ends):
        x1 = c / total if whole else t0 + c * scale
        out.append((e, u0, u1, x0, x1))
        x0 = x1
    out.append((*segs[-1], x0, t1))
    return tuple(out)


def windows_tile(table, t0, t1):
    """Whether a nonempty table's windows tile [t0, t1] in order: the
    first starts at t0, each ends where the next starts, the last ends at
    t1, and each has positive length."""
    starts = [t0] + [x1 for *_, x1 in table]
    ends = [x0 for *_, x0, _ in table] + [t1]
    return starts == ends and all(x0 < x1 for *_, x0, x1 in table)


class ArcPiece:
    """A piece as the package once kept it: its window, its ends and its
    image arc."""

    __slots__ = ("edge", "t0", "t1", "p0", "p1", "arc")

    def __init__(self, edge, t0, t1, p0, p1, arc):
        self.edge, self.t0, self.t1, self.p0, self.p1, self.arc = edge, t0, t1, p0, p1, arc

    @classmethod
    def of(cls, tree, eid, piece):
        """The arc piece of a map's piece over the edge eid."""
        return cls(eid, piece.t0, piece.t1, piece.p0, piece.p1, piece_arc(tree, piece))

    @property
    def is_constant(self):
        return not self.arc.segments

    def param_at_arclength(self, s):
        return self.t0 + (self.t1 - self.t0) * s / self.arc.length

    def arclength_at_param(self, t):
        return self.arc.length * (t - self.t0) / (self.t1 - self.t0)


def breakpoint_params(pieces):
    """The former per-edge `params` column: the pieces' window starts,
    then 1, each breakpoint parameter held a second time."""
    return (*(p.t0 for p in pieces), ONE)


def meeting_by_params(pieces, lo, hi):
    """The former slice of the pieces meeting [lo, hi], lo < hi, in
    positive length, by bisecting the `params` column."""
    params = breakpoint_params(pieces)
    return slice(bisect_right(params, lo, 1) - 1, bisect_left(params, hi))


def piece_at_by_params(pieces, t):
    """The former `evaluate` lookup: the first piece whose window ends at
    or past t, 0 < t <= 1, by bisecting the `params` column."""
    return pieces[bisect_left(breakpoint_params(pieces), t, 1) - 1]


def breakpoints_by_params(f, eid):
    """The former `breakpoints`: the `params` column beside the pieces' ends."""
    pieces = f._by_edge[eid]
    return tuple(zip(breakpoint_params(pieces), [pieces[0].p0] + [p.p1 for p in pieces]))


def arc_index(f):
    """f's pieces per edge, each an `ArcPiece`, beside the edge's `params` column."""
    tree = f.domain
    return {
        eid: (breakpoint_params(pieces), [ArcPiece.of(tree, eid, p) for p in pieces])
        for eid, pieces in f._by_edge.items()
    }


def tables_match_arcs(g, by_edge):
    """Whether g's pieces are the arc pieces `by_edge` gives, edge by edge:
    the same windows and ends, and each table the one its arc gives."""
    if list(g._by_edge) != list(by_edge):
        return False
    for (eid, pieces), arcs in zip(g._by_edge.items(), by_edge.values()):
        if [(eid, p.t0, p.t1, p.p0, p.p1, p.table) for p in pieces] != [
            (q.edge, q.t0, q.t1, q.p0, q.p1, arc_table(q, q.arc)) for q in arcs
        ]:
            return False
    return True


def arc_window(arc, sa, sb):
    """The former `Arc.window`: the sub-arc from arclength sa to sb, for
    0 <= sa < sb <= length, read off the arc's segments; the whole window
    is the arc."""
    if not ZERO <= sa < sb <= arc.length:
        raise PreconditionError(f"window [{sa}, {sb}] outside [0, {arc.length}]")
    if sa == ZERO and sb == arc.length:
        return arc
    cums = arc.offsets
    i = bisect_right(cums, sa) - 1
    j = bisect_left(cums, sb, i + 1) - 1
    a, b = arc.point_at(sa), arc.point_at(sb)
    segs = list(arc.segments[i : j + 1])
    if not a.is_vertex:
        segs[0] = (a.edge, a.t, segs[0][2])
    if not b.is_vertex:
        segs[-1] = (b.edge, segs[-1][1], b.t)
    offsets = (ZERO, *(c - sa for c in cums[i + 1 : j + 1]), sb - sa)
    return Arc(arc.tree, a, b, tuple(segs), offsets)


def arc_reversed(arc):
    """The former `Arc.reversed`."""
    segs = tuple((eid, t1, t0) for eid, t0, t1 in reversed(arc.segments))
    cums = tuple(arc.length - c for c in reversed(arc.offsets))
    return Arc(arc.tree, arc.b, arc.a, segs, cums)


def eval_in_piece(tree, piece, t):
    """The image of parameter t of a piece's window, on the piece's arc at
    the same share of its length: never read off a stored breakpoint."""
    arc = piece_arc(tree, piece)
    if not arc.segments:
        return piece.p0
    return arc.point_at(arc.length * (t - piece.t0) / (piece.t1 - piece.t0))


def evaluate_on_arcs(f, p):
    """The former `evaluate`: f(p) by `eval_in_piece` on the first piece
    whose window ends at or past p, with a vertex's stored image."""
    if p.is_vertex:
        return f.vertex_image(p.vertex)
    return eval_in_piece(f.domain, piece_at_by_params(f._by_edge[p.edge], p.t), p.t)


def arc_constant(tree, eid, t0, t1, q):
    return ArcPiece(eid, t0, t1, q, q, Arc(tree, q, q, (), (ZERO,)))


def arc_compose(outer, inner):
    """The former `compose`, on arc pieces: {edge: [ArcPiece]}, cut by
    `arc_compose_piece` and merged as the former `normalize` merged."""
    tree = inner.domain
    index = arc_index(outer)
    by_edge = {
        eid: [new for piece in pieces for new in arc_compose_piece(tree, index, outer, piece)]
        for eid, (_, pieces) in arc_index(inner).items()
    }
    return arc_normalize(tree, by_edge)


def arc_normalize(tree, by_edge):
    """The former `normalize`: runs of pieces that `arc_continues` joined
    by `arc_joined`."""
    out = {}
    for eid, pieces in by_edge.items():
        runs = [[pieces[0]]]
        for a, b in zip(pieces, pieces[1:]):
            if arc_continues(a, b):
                runs[-1].append(b)
            else:
                runs.append([b])
        out[eid] = [arc_joined(run) for run in runs]
    return out


def arc_continues(a, b):
    """The former `_continues`: same speed, read off the arcs' lengths,
    and no turn back at the shared breakpoint."""
    if a.is_constant or b.is_constant:
        return a.is_constant and b.is_constant
    (ea, u0, u1), (eb, v0, v1) = a.arc.segments[-1], b.arc.segments[0]
    if ea == eb and (u1 > u0) != (v1 > v0):
        return False
    return a.arc.length * (b.t1 - b.t0) == b.arc.length * (a.t1 - a.t0)


def arc_compose_piece(tree, index, outer, piece):
    """The former `_compose_piece`: the pieces of outer . piece, one per
    outer piece each inner arc segment meets, each image arc a window of
    the outer piece's arc, reversed where the inner arc runs its edge
    backwards."""
    if piece.is_constant:
        return [arc_constant(tree, piece.edge, piece.t0, piece.t1, outer.evaluate(piece.p0))]
    out = []
    arc = piece.arc
    offsets = arc.offsets
    scale = (piece.t1 - piece.t0) / arc.length
    ta = piece.t0
    for k, (aeid, u0, u1) in enumerate(arc.segments):
        params, opieces = index[aeid]
        length = tree.edge_length(aeid)
        forward = u0 < u1
        lo, hi = (u0, u1) if forward else (u1, u0)
        met = opieces[bisect_right(params, lo, 1) - 1 : bisect_left(params, hi)]
        for op in met if forward else reversed(met):
            a, b = max(lo, op.t0), min(hi, op.t1)
            end = b if forward else a
            s = offsets[k + 1] if end == u1 else offsets[k] + abs(end - u0) * length
            tb = piece.t1 if s == arc.length else piece.t0 + s * scale
            if op.is_constant:
                out.append(arc_constant(tree, piece.edge, ta, tb, op.p0))
            else:
                image = op.arc
                if a != op.t0 or b != op.t1:
                    image = arc_window(image, op.arclength_at_param(a), op.arclength_at_param(b))
                if not forward:
                    image = arc_reversed(image)
                out.append(ArcPiece(piece.edge, ta, tb, image.a, image.b, image))
            ta = tb
    return out


def arc_joined(run):
    """The former `_joined`: the run's arcs laid end to end, a segment
    continued along its edge across a junction made one."""
    first, last = run[0], run[-1]
    if len(run) == 1:
        return first
    arc = first.arc
    if not first.is_constant:
        segs = list(arc.segments)
        cums = list(arc.offsets)
        for piece in run[1:]:
            more, offsets = piece.arc.segments, piece.arc.offsets
            shift = cums[-1]
            k = 0
            if segs[-1][0] == more[0][0]:
                segs[-1] = (more[0][0], segs[-1][1], more[0][2])
                cums[-1] = shift + offsets[1]
                k = 1
            segs.extend(more[k:])
            cums.extend(shift + c for c in offsets[k + 1 :])
        arc = Arc(arc.tree, first.p0, last.p1, tuple(segs), tuple(cums))
    return ArcPiece(first.edge, first.t0, last.t1, first.p0, last.p1, arc)


def segment_line(piece, k):
    """The former `_segment_line`: (alpha, beta, x0, x1) for the k-th
    segment of an arc piece, from the arc's offsets and length."""
    arc = piece.arc
    _, u0, u1 = arc.segments[k]
    scale = (piece.t1 - piece.t0) / arc.length
    x0 = piece.t0 + arc.offsets[k] * scale
    x1 = piece.t0 + arc.offsets[k + 1] * scale
    alpha = (u1 - u0) / (x1 - x0)
    return alpha, u0 - alpha * x0, x0, x1


def arc_composite_fixed_set(outer, inner):
    """The former `composite_fixed_set`: Fix(outer . inner), or Fix(inner)
    with outer None, each cut's line composed from `segment_line`s of the
    two factors' arc pieces."""
    tree = inner.domain
    segs = []
    verts = []

    def value(p):
        return p if outer is None else outer.evaluate(p)

    for v, img in inner._vimg.items():
        if value(img).vertex == v:
            verts.append(v)
    index = {}
    if outer is not None:
        for _, pieces in arc_index(outer).values():
            for op in pieces:
                if not op.is_constant:
                    keys = [(seg[0], k) for k, seg in enumerate(op.arc.segments)]
                elif op.p0.is_vertex:
                    continue
                else:
                    keys = [(op.p0.edge, None)]
                for e, k in keys:
                    index.setdefault((op.edge, e), []).append((op, k))
    for _, pieces in arc_index(inner).values():
        for piece in pieces:
            eid = piece.edge
            if piece.is_constant:
                q = value(piece.p0)
                if q.edge == eid:
                    _solve(segs, eid, ZERO, q.t, piece.t0, piece.t1)
                continue
            for k, (aeid, u0, u1) in enumerate(piece.arc.segments):
                if outer is None:
                    if aeid == eid:
                        _solve(segs, eid, *segment_line(piece, k))
                    continue
                lo, hi = (u0, u1) if u0 < u1 else (u1, u0)
                a1, b1, _, _ = segment_line(piece, k)
                for op, j in index.get((aeid, eid), ()):
                    a2, b2, y0, y1 = (ZERO, op.p0.t, op.t0, op.t1) if j is None else segment_line(op, j)
                    ya, yb = max(lo, y0), min(hi, y1)
                    if ya > yb:
                        continue
                    ta, tb = (ya - b1) / a1, (yb - b1) / a1
                    _solve(segs, eid, a2 * a1, a2 * b1 + b2, *((ta, tb) if a1 > 0 else (tb, ta)))
    return Subtree.build(tree, segs, verts)


def table_retraction(tree, hull):
    """The former `_retraction`: the nearest-point retraction onto a
    connected subtree, built through the validating table constructor."""
    where = tree.vertex_retractions(hull)
    table = {}
    for eid in tree.edge_ids:
        ivs = hull.segments.get(eid, ())
        if ivs and ivs[0][0] < ivs[0][1]:
            ((lo, hi),) = ivs
            a, b = tree.edge_point(eid, lo), tree.edge_point(eid, hi)
            bps = [(ZERO, a)]
            if lo > ZERO:
                bps.append((lo, a))
            if hi < ONE:
                bps.append((hi, b))
            table[eid] = bps + [(ONE, b)]
        else:
            q = where[tree.edge_ends(eid)[0]]
            table[eid] = [(ZERO, q), (ONE, q)]
    return PLTreeMap(tree, table)


def load_map_directly(obj):
    """`io.map_from_json` read value by value: every rational string and
    every point object parsed and validated wherever it appears."""

    def point(o, tree):
        if not isinstance(o, dict):
            raise StructureError(f"a point must be an object, got {o!r}")
        if len(o) == 1 and "vertex" in o:
            v = o["vertex"]
            if not isinstance(v, str) or not tree.has_vertex(v):
                raise StructureError(f"unknown vertex {v!r}")
            return tree.vertex_point(v)
        if len(o) == 2 and "edge" in o and "t" in o:
            eid = o["edge"]
            if not isinstance(eid, str) or not tree.has_edge(eid):
                raise StructureError(f"unknown edge {eid!r}")
            return tree.edge_point(eid, fraction_from_str(o["t"]))
        raise StructureError(
            f"a point has the keys ['vertex'] or ['edge', 't'], got {sorted(map(str, o))}"
        )

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
        _string_ids([eid, *ends])
        edges.append((eid, (ends[0], ends[1]), fraction_from_str(length)))
    tree = MetricTree(_string_ids(obj["vertices"]), edges)
    if "edge_pieces" not in obj and "vertex_images" not in obj:
        return tree, None
    vimg_raw = _object_field(obj, "vertex_images")
    _known_keys(vimg_raw, tree.vertex_ids, "vertex_images", "vertices")
    vimg = {v: point(p, tree) for v, p in vimg_raw.items()}
    for v in tree.vertex_ids:
        if v not in vimg:
            raise StructureError(f"vertex {v!r} has no image")
    pieces_raw = _object_field(obj, "edge_pieces")
    _known_keys(pieces_raw, tree.edge_ids, "edge_pieces", "edges")
    table = {}
    for eid in tree.edge_ids:
        if not isinstance(pieces_raw.get(eid), list):
            raise StructureError(f"edge {eid!r} needs a breakpoint list")
        bps = []
        for bp in pieces_raw[eid]:
            if not isinstance(bp, dict) or "t" not in bp or "image" not in bp:
                raise StructureError(f"bad breakpoint on edge {eid!r}: {bp!r}")
            bps.append((fraction_from_str(bp["t"]), point(bp["image"], tree)))
        table[eid] = bps
    f = PLTreeMap(tree, table)
    for v in tree.vertex_ids:
        if f.vertex_image(v) != vimg[v]:
            raise StructureError(f"vertex_images disagrees with edge_pieces at vertex {v!r}")
    return tree, f


def arc_offsets(arc):
    """An arc's cumulative arclengths, each segment's share of its edge
    times the edge's length."""
    out = [Fraction(0)]
    for eid, t0, t1 in arc.segments:
        out.append(out[-1] + abs(t1 - t0) * arc.tree.edge_length(eid))
    return tuple(out)


def size_table_rooting(tree):
    """(up, tin, tout) as `MetricTree` once made them: a stack walk from
    the least vertex for the parents and the preorder, then a table of
    subtree sizes summed up the reversed preorder, with tout = tin + size."""
    root = tree.vertex_ids[0]
    up = {root: None}
    order = []
    stack = [root]
    while stack:
        x = stack.pop()
        order.append(x)
        for eid, y in tree._adj[x]:
            if y not in up:
                up[y] = (x, eid)
                stack.append(y)
    tin = {x: i for i, x in enumerate(order)}
    size = dict.fromkeys(order, 1)
    for x in reversed(order[1:]):
        size[up[x][0]] += size[x]
    return up, tin, {x: tin[x] + size[x] for x in order}


def vertex_path_arc(tree, a, b):
    """The arc from a to b as `MetricTree._arc` once walked it: each end's
    lower vertex and each ancestor test a call, and the path between the
    two walk ends listed as (edge, from, to) steps before it becomes
    segments."""
    edges, tin, tout, up = tree._edges, tree._tin, tree._tout, tree._up

    def is_ancestor(u, w):
        return tin[u] <= tin[w] < tout[u]

    def lower_vertex(p):
        if p.is_vertex:
            return p.vertex
        u, w, _ = edges[p.edge]
        return w if tin[w] > tin[u] else u

    def vertex_path(u, w):
        steps = []
        while not is_ancestor(u, w):
            pu, eid = up[u]
            steps.append((eid, u, pu))
            u = pu
        down = []
        while w != u:
            pw, eid = up[w]
            down.append((eid, pw, w))
            w = pw
        return steps + down[::-1]

    if a == b:
        return Arc(tree, a, b, (), (ZERO,))
    if a.edge is not None and a.edge == b.edge:
        return Arc(tree, a, b, ((a.edge, a.t, b.t),), (ZERO, abs(b.t - a.t) * edges[a.edge][2]))
    segs, steps = [], []
    start, low_b = lower_vertex(a), lower_vertex(b)
    if a.edge is not None:
        u, w, length = edges[a.edge]
        if not is_ancestor(start, low_b):
            start = u if start == w else w
        if start == u:
            segs.append((a.edge, a.t, ZERO))
            steps.append(a.t * length)
        else:
            segs.append((a.edge, a.t, ONE))
            steps.append((ONE - a.t) * length)
    target = low_b
    if b.edge is not None:
        u, w, length = edges[b.edge]
        if not is_ancestor(low_b, start):
            target = u if low_b == w else w
    for eid, fr, _to in vertex_path(start, target):
        e = edges[eid]
        segs.append((eid, ZERO, ONE) if fr == e[0] else (eid, ONE, ZERO))
        steps.append(e[2])
    if b.edge is not None:
        if target == u:
            segs.append((b.edge, ZERO, b.t))
            steps.append(b.t * length)
        else:
            segs.append((b.edge, ONE, b.t))
            steps.append((ONE - b.t) * length)
    return Arc(tree, a, b, tuple(segs), (ZERO, *accumulate(steps)))


def same_load(a, b):
    """Whether two loaders' results hold equal trees and maps, piece by
    piece: breakpoints, vertex images and each piece's table, which is
    also the one its image arc gives (`arc_table`)."""
    (ta, fa), (tb, fb) = a, b
    if ta != tb or (fa is None) != (fb is None):
        return False
    if fa is None:
        return True
    tables = [p.table for _, p in pieces_with_edges(fa)]
    return (
        all(fa.vertex_image(v) == fb.vertex_image(v) for v in ta.vertex_ids)
        and all(fa.breakpoints(e) == fb.breakpoints(e) for e in ta.edge_ids)
        and tables == [p.table for _, p in pieces_with_edges(fb)]
        and tables == [arc_table(p, piece_arc(tb, p)) for _, p in pieces_with_edges(fb)]
    )


def loaded_by_both(obj):
    """`io.map_from_json`'s result and `load_map_directly`'s, each the
    pair it returns or the message of the StructureError it raises."""
    out = []
    for load in (map_from_json, load_map_directly):
        try:
            out.append(load(obj))
        except StructureError as exc:
            out.append(str(exc))
    return out


def solve_fixed_points(f):
    """Fix(f), solved the former way: per piece, on each segment of its
    image arc that lies on the piece's own edge, from the segment's
    offsets and the edge length; a constant piece fixes its value where
    that value's parameter on the edge (a vertex end's too) lies in its
    window."""
    tree = f.domain
    segs = []
    verts = [v for v in tree.vertex_ids if f.vertex_image(v) == tree.vertex_point(v)]
    for piece in (ArcPiece.of(tree, eid, p) for eid, p in pieces_with_edges(f)):
        eid = piece.edge
        if piece.is_constant:
            q = piece.p0
            u, w = tree.edge_ends(eid)
            at = {u: ZERO, w: ONE}.get(q.vertex) if q.is_vertex else (q.t if q.edge == eid else None)
            if at is not None and piece.t0 <= at <= piece.t1:
                segs.append((eid, at, at))
            continue
        length = tree.edge_length(eid)
        rate = piece.arc.length / (piece.t1 - piece.t0)
        offsets = piece.arc.offsets
        for k, (aeid, u0, u1) in enumerate(piece.arc.segments):
            if aeid != eid:
                continue
            c = offsets[k]
            sign = 1 if u1 > u0 else -1
            alpha = sign * rate / length
            beta = u0 - sign * (rate * piece.t0 + c) / length
            x_lo = piece.param_at_arclength(c)
            x_hi = piece.param_at_arclength(offsets[k + 1])
            if alpha == 1:
                if beta == 0:
                    segs.append((eid, x_lo, x_hi))
            else:
                x = beta / (1 - alpha)
                if x_lo <= x <= x_hi:
                    segs.append((eid, x, x))
    return Subtree.build(tree, segs, verts)


def composed_fixed_set(outer, inner):
    """Fix(outer . inner) by building the composite and solving it."""
    return solve_fixed_points(compose(outer, inner))


class ComposingPowers:
    """The former composing route of `dynamics.fixed_set` for one map:
    f^n built whole, as f^(n-1) . f when f^(n-1) is the last power built
    here with the same budget, else by squaring, and then solved.  Like
    the map's store it keeps the last power and the fixed sets, and a
    call that raises stores nothing."""

    def __init__(self, f):
        self.f = f
        self.last = None
        self.fixed = {}

    def fixed_set(self, n, piece_cap=DEFAULT_PIECE_CAP):
        if (n, piece_cap) not in self.fixed:
            if self.last is not None and self.last[:2] == (n - 1, piece_cap):
                g = built(self.last[2], self.f, piece_cap)
            else:
                g = self.f.iterate(n, piece_cap)
            if n > 1:
                self.last = (n, piece_cap, g)
            self.fixed[(n, piece_cap)] = solve_fixed_points(g)
        return self.fixed[(n, piece_cap)]


def hull_by_composing(f, points, n, piece_cap=DEFAULT_PIECE_CAP):
    """`plmap.find_periodic_in_hull` the former way: the retraction onto
    the hull composed with f all n times, and the result solved."""
    tree = f.domain
    if n < 1:
        raise PreconditionError("need at least one step")
    pts = list(points)
    hull = tree.connected_hull(pts)
    advanced = pts
    for _ in range(n):
        advanced = [f.evaluate(p) for p in advanced]
    covering = tree.connected_hull(advanced)
    if covering.union(hull) != covering:
        raise PreconditionError("advanced hull does not cover the original hull")
    h = _retraction(tree, hull)
    for _ in range(n):
        h = compose(f, h)
        if h.piece_count > piece_cap:
            raise ResourceLimitError(
                f"hull search exceeded the piece budget ({h.piece_count} > {piece_cap})"
            )
    fixed = solve_fixed_points(h).intersect(hull)
    if fixed.is_empty():
        raise ConsistencyError("no fixed point of the n-th iterate in the hull")
    return sorted_canonical_point(tree, fixed)


def sorted_canonical_point(tree, sub):
    """The former `plmap._canonical_point`: the midpoint of the first
    interval of positive length that opens an edge, else the first of
    every corner point sorted by `point_key`."""
    for eid, intervals in sub.segments.items():
        lo, hi = intervals[0]
        if lo < hi:
            return tree.edge_point(eid, (lo + hi) / 2)
    return sub.corner_points()[0]


# -- locating points by walks of their own -----------------------------------------
#
# The package locates points by position (`MetricTree._position`), read off
# its rooting.  These walk the tree's adjacency and edge records from a
# point instead, reading no rooting and building no `Arc`, and are kept to
# check it against.


def walk_on_arc(tree, x, a, b):
    """Whether x lies on [a, b], read off the arc a walk finds: its
    vertices, its whole edges and the parts of a's and b's edges it
    covers.  The walk runs from a's end vertices to b's with a's and b's
    own edges left out; the rest of the tree splits at them, so exactly
    one start and one goal meet."""
    edges = tree._edges
    if a.edge is not None and a.edge == b.edge:
        return x.edge == a.edge and min(a.t, b.t) <= x.t <= max(a.t, b.t)

    def ends(p):  # each end vertex of p's edge, with the part of the edge up to p
        if p.is_vertex:
            return {p.vertex: None}
        u, w, _ = edges[p.edge]
        return {u: (p.edge, (ZERO, p.t)), w: (p.edge, (p.t, ONE))}

    starts, goals = ends(a), ends(b)
    skip = {a.edge, b.edge}
    up = {v: None for v in starts}
    stack = list(starts)
    while stack:
        v = stack.pop()
        if v in goals:
            break
        for eid, y in tree._adj[v]:
            if eid not in skip and y not in up:
                up[y] = (v, eid)
                stack.append(y)
    goal, vertices, whole = v, {v}, set()
    while up[v] is not None:
        v, eid = up[v]
        vertices.add(v)
        whole.add(eid)
    if x.is_vertex:
        return x.vertex in vertices
    parts = dict(part for part in (starts[v], goals[goal]) if part)
    part = parts.get(x.edge)
    return x.edge in whole or part is not None and part[0] <= x.t <= part[1]


def walk_retract(tree, target, z):
    """The retraction of z onto a connected subtree: z when inside, else
    the first point of the target a walk from z meets, over the tree's
    adjacency and edge records.  The target is connected and misses z, so
    the path from z to any of its points runs through the retraction, and
    the walk leaves a vertex only once its own path from z has met none of
    the target."""
    if target.contains(z):
        return z
    edges, segments = tree._edges, target.segments
    if z.is_vertex:
        stack = [z.vertex]
    else:
        ivs = segments.get(z.edge, ())
        below = [hi for _, hi in ivs if hi < z.t]
        above = [lo for lo, _ in ivs if lo > z.t]
        if below or above:  # the target lies on one side of z on its edge
            return tree.edge_point(z.edge, below[-1] if below else above[0])
        stack = list(edges[z.edge][:2])
    seen = set(stack)
    while stack:
        x = stack.pop()
        if x in target.vertices:
            return tree.vertex_point(x)
        for eid, y in tree._adj[x]:
            if eid == z.edge or y in seen:
                continue
            ivs = segments.get(eid)
            if ivs:  # the target's end nearest x on the edge
                return tree.edge_point(eid, ivs[0][0] if x == edges[eid][0] else ivs[-1][1])
            seen.add(y)
            stack.append(y)
    raise AssertionError("a nonempty target is met")


def corner_scan_first_met(tree, closed, z):
    """`MetricTree.first_met` by scanning every corner of the set, as
    `MetricTree.retract` once did: the deepest corner on z's root path,
    else the top corner, the one first in preorder.  The first point of
    the set a walk from z toward the root meets is reached from below, so
    it is a corner, and no corner on the path lies deeper."""
    pz = tree._position(z)
    on_path, top = None, None  # (depth key, corner)
    for c in closed.corner_points():
        pc = tree._position(c)
        key = (tree._tin[pc[0]], -pc[1])
        if top is None or key < top[0]:
            top = (key, c)
        if on_root_path(tree, pc, pz) and (on_path is None or key > on_path[0]):
            on_path = (key, c)
    return (on_path or top)[1]


# -- separation by root paths ------------------------------------------------------
#
# The package reads "x lies on [a, b]" and "which points does t separate
# from y" off the branch windows (`MetricTree.branch_window`); these are
# the routes it took before, comparing positions on root paths.


def on_root_path(tree, x, p):
    """Whether the point at position x lies on the path from the point at
    position p to the root: x's lower vertex is p's or an ancestor of it,
    and on p's own edge x is no lower than p."""
    (wx, hx), (wp, hp) = x, p
    return tree._tin[wx] <= tree._tin[wp] < tree._tout[wx] and (wx != wp or hx >= hp)


def root_path_on_arc(tree, x, a, b):
    """`MetricTree.on_arc` as it was: the root paths of a and b share the
    root path of their meet m, and [a, b] is the rest of each with m.  So
    x is on the arc when it lies on exactly one of the two root paths, and
    when it lies on both, only if it is m: a or b when x has the lower
    vertex of either, else the branch vertex that a and b lie below
    through different children."""
    for p in (x, a, b):
        tree.validate_point(p)
    px, pa, pb = tree._position(x), tree._position(a), tree._position(b)
    on_a, on_b = on_root_path(tree, px, pa), on_root_path(tree, px, pb)
    if on_a != on_b:
        return True
    if not on_a:
        return False
    (wx, hx), (wa, ha), (wb, hb) = px, pa, pb
    if wx == wa or wx == wb:
        return (wx == wa and hx == ha) or (wx == wb and hx == hb)
    if hx:
        return False  # inside an edge above both lower vertices, so above m
    c_in, c_out = tree._child_window(wx, wa)
    return not c_in <= tree._tin[wb] < c_out


def root_path_first_separated(tree, points):
    """`MetricTree.first_separated` as it was: the points keyed by lower
    vertex preorder number and share up its parent edge, and the part of
    the tree below t found in three cases from positions, as at most two
    runs of keys, with a sparse table for the least index in each run."""
    keyed = sorted(
        (tree._tin[w], h, i)
        for i, (w, h) in enumerate(tree._position(tree.validate_point(p)) for p in points)
    )
    keys = [(a, h) for a, h, _ in keyed]
    table = [[i for _, _, i in keyed]]
    while 2 ** len(table) <= len(keyed):
        prev, span = table[-1], 2 ** (len(table) - 1)
        table.append([min(prev[j], prev[j + span]) for j in range(len(prev) - span)])

    def least(runs):
        best = None
        for lo, hi in runs:
            if lo < hi:
                k = (hi - lo).bit_length() - 1
                i = min(table[k][lo], table[k][hi - 2**k])
                best = i if best is None else min(best, i)
        return best

    def start(*key):
        return bisect_left(keys, key)

    def query(t, y):
        if t == y:
            raise PreconditionError("the separating point must differ from the image")
        pt = tree._position(tree.validate_point(t))
        py = tree._position(tree.validate_point(y))
        (wt, ht), wy = pt, py[0]
        a, b = tree._tin[wt], tree._tout[wt]
        if not on_root_path(tree, pt, py):
            # y is not below t: the points below t
            return least(((start(a), start(a, ht)), (start(a + 1), start(b))))
        past_t = bisect_right(keys, (a, ht))
        if ht:
            # t inside an edge and y below it: the points above t
            return least(((0, start(a)), (past_t, start(a + 1)), (start(b), len(keys))))
        # t a vertex and y below it: every point but t and those under the
        # child whose window holds y's lower vertex
        c_in, c_out = tree._child_window(wt, wy)
        return least(((0, start(a)), (past_t, start(c_in)), (start(c_out), len(keys))))

    return query


def distance_arc_contains(arc, x):
    """Whether x lies on the arc: d(a, x) + d(x, b) is the arc's length."""
    d = arc.tree.distance
    return d(arc.a, x) + d(x, arc.b) == arc.length


def distance_arclength_of(arc, x):
    """The arclength of a point of the arc from its start, d(a, x)."""
    if not distance_arc_contains(arc, x):
        raise PreconditionError("point does not lie on the arc")
    return arc.tree.distance(arc.a, x)


def subtree_meet_point(tree, a, b):
    """The canonical point of the meet of two arcs, with the meet built as
    the intersection of their subtrees; None when they are disjoint."""
    meet = arc_subtree(a).intersect(arc_subtree(b))
    return None if meet.is_empty() else sorted_canonical_point(tree, meet)


def subtree_collision(f, a, b):
    """The pieces a and b, each an (edge, piece) pair, collide as the
    injectivity search used to find it: the preimages, by
    `distance_arclength_of`, of the canonical point of
    `subtree_meet_point`, when they differ; else None."""
    tree = f.domain
    a, b = ArcPiece.of(tree, *a), ArcPiece.of(tree, *b)
    q = subtree_meet_point(tree, a.arc, b.arc)
    if q is None:
        return None
    xa, xb = (
        tree.edge_point(p.edge, p.param_at_arclength(distance_arclength_of(p.arc, q)))
        for p in (a, b)
    )
    return None if xa == xb else (xa, xb)


def colliding_pieces(f):
    """The pieces, as (edge, piece) in edge order, of a map with no
    constant piece that collide with another, by `subtree_collision` on
    every pair."""
    pieces = pieces_with_edges(f)
    out = set()
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            if subtree_collision(f, pieces[i], pieces[j]) is not None:
                out.update((i, j))
    return [pieces[i] for i in sorted(out)]


def covers_by_hulls(tree, cover, points):
    """Whether hull(cover) contains hull(points), both hulls built."""
    covering = tree.connected_hull(cover)
    return covering.union(tree.connected_hull(points)) == covering


def outcome(call, *args, **kwargs):
    """What a call gives: its value, or the type and message of the
    package error it raises."""
    try:
        return call(*args, **kwargs)
    except (ConsistencyError, PreconditionError, ResourceLimitError) as exc:
        return (type(exc).__name__, str(exc))


# -- a shared corpus of maps -------------------------------------------------------


def random_involution(rng, k):
    """The unit interval with k seeded pieces, t_i sent to t_(k-i)."""
    tree = MetricTree(["v0", "v1"], [("e", ("v0", "v1"), 1)])
    cuts = [0]
    for _ in range(k):
        cuts.append(cuts[-1] + rng.randint(1, 9))
    ts = [Fraction(c, cuts[-1]) for c in cuts]

    def at(t):
        return tree.vertex_point("v1" if t else "v0") if t in (0, 1) else tree.edge_point("e", t)

    return PLTreeMap(tree, {"e": [(ts[i], at(ts[k - i])) for i in range(k + 1)]})


def sagged(rng, f):
    """f with a new breakpoint inside one piece, its image moved off the
    piece's midpoint along the image arc; a homeomorphism stays one."""
    tree = f.domain
    eid = rng.choice(tree.edge_ids)
    bps = list(f.breakpoints(eid))
    i = rng.randrange(len(bps) - 1)
    (t0, p0), (t1, p1) = bps[i], bps[i + 1]
    arc = tree.arc(p0, p1)
    share = Fraction(rng.choice([1, 2, 3, 5, 6, 7]), 8)
    bps.insert(i + 1, ((t0 + t1) / 2, arc.point_at(arc.length * share)))
    table = {e: f.breakpoints(e) for e in tree.edge_ids}
    table[eid] = bps
    return PLTreeMap(tree, table)


def two_sagged(rng, f):
    return sagged(rng, sagged(rng, f))


def decision_corpus(rng):
    """The homeomorphisms, folding maps and sagged homeomorphisms every
    decision test shares: (homeomorphisms, folding maps, sagged maps)."""
    finite = [random_finite_order_map(seed, seed + 500)[1] for seed in range(150)]
    towers = [
        odometer_tower(len(ps), ps)[1]
        for ps in ((2, 4), (3, 6), (2, 6, 12), (2, 4, 8), (2, 4, 8, 16), (2, 4, 8, 16, 32))
    ]
    rotations = [rotation_star(k)[1] for k in range(2, 31)]
    homeos = finite + towers + rotations
    homeos += [random_involution(rng, rng.randint(1, 12)) for _ in range(40)]
    folding = [random_folding_map(seed)[1] for seed in range(100)]
    with_edges = [f for f in homeos if f.domain.edge_ids]
    sags = [sagged(rng, rng.choice(with_edges)) for _ in range(200)]
    sags += [two_sagged(rng, rng.choice(with_edges)) for _ in range(200)]
    return homeos, folding, sags


# -- the grading of a tower, by reading its sets -------------------------------------


def meet_only_at_boundaries(tree, sets):
    """Whether every two of the closures meet in at most finitely many
    points, each on the boundary of one of the two sets.

    Every point lying in two closures is found by one sweep.  Shared
    vertices are read off the vertex sets.  On each edge the intervals
    of all closures are taken by left end, keeping the one that reaches
    farthest so far: an interval starting before that reach overlaps it
    in positive length unless the interval is a single point or only
    touches the reach, and then the point is shared.  A point fails when
    two of the closures holding it lack it on their boundary.
    """
    holders = {}  # point -> indices of the closures holding it
    by_edge = {}
    for i, s in enumerate(sets):
        for v in s.closure.vertices:
            holders.setdefault(TreePoint(vertex=v), set()).add(i)
        for eid, intervals in s.closure.segments.items():
            by_edge.setdefault(eid, []).extend((lo, hi, i) for lo, hi in intervals)
    for eid, intervals in by_edge.items():
        intervals.sort()
        reach, holder = None, None
        for lo, hi, i in intervals:
            if reach is not None and reach >= lo:
                if reach > lo and hi > lo:
                    return False
                holders.setdefault(tree.edge_point(eid, lo), set()).update((holder, i))
            if reach is None or hi > reach:
                reach, holder = hi, i
    return not any(
        sum(p not in sets[i].boundary for i in held) > 1
        for p, held in holders.items()
        if len(held) > 1
    )


def is_branch(tree, comp):
    """Whether a set is a whole branch at its attachment a: the closure C
    of the component of the tree minus a that holds its representative p.

    That holds exactly when C holds p != a, every interval of C ending
    inside an edge ends at a, every other vertex of C has all its edges
    starting in C, and one edge germ at a leads into C.  Then C minus a
    is open and closed in the tree minus a, so it is one component and
    needs no connectedness test.  Germs are counted as interval ends, so
    an a strictly inside an interval of C counts none.
    """
    c, a, p = comp.closure, comp.attachment, comp.repr_point
    if p == a or not c.contains(p):
        return False
    germs = dict.fromkeys([a, *map(tree.vertex_point, c.vertices)], 0)
    for eid, intervals in c.segments.items():
        for lo, hi in intervals:
            for end in (tree.edge_point(eid, lo), tree.edge_point(eid, hi)):
                if end not in germs:
                    return False
                germs[end] += 1
    return all(n == (1 if q == a else tree.degree(q.vertex)) for q, n in germs.items())


def grade(openness_ok, chains_ok, disjoint_ok, full_ok, periods):
    """The report the former classification gave for its four flags."""
    if not (openness_ok and chains_ok and disjoint_ok):
        label = "weak"
    elif full_ok:
        label = "topological (full)"
    else:
        label = "topological weak"
    return AddingMachineReport(label, openness_ok, chains_ok, disjoint_ok, full_ok, periods)


def classify_by_closures(cycles):
    """The former `classify_adding_machine`, which read every closure:
    openness by `is_branch`, disjointness of the deepest closures by
    `meet_only_at_boundaries`, each in time linear in the closures."""
    if not cycles:
        raise PreconditionError("no cycle levels to classify")
    tree = cycles[0].sets[0].closure.tree
    # a list, not a generator: every set's attachment is read, in order
    openness_ok = all([
        not comp.closure.is_empty() and is_branch(tree, comp)
        for cyc in cycles
        for comp in cyc.sets
    ])
    deepest = cycles[-1]
    chains_ok = all(not c.closure.is_empty() for c in deepest.sets)
    disjoint_ok = meet_only_at_boundaries(tree, deepest.sets)
    distinct = {c.closure for c in deepest.sets}
    full_ok = chains_ok and disjoint_ok and len(distinct) == deepest.period
    return grade(openness_ok, chains_ok, disjoint_ok, full_ok, tuple(c.period for c in cycles))


def former_classify(cycles):
    """The per-set openness loop and pairwise disjointness loop that
    `classify_by_closures` replaced: each set's component re-derived by
    splitting the tree at its attachment, each pair of closures met."""
    if not cycles:
        raise PreconditionError("no cycle levels to classify")
    tree = cycles[0].sets[0].closure.tree
    openness_ok = True
    for cyc in cycles:
        for comp in cyc.sets:
            if comp.closure.is_empty():
                openness_ok = False
                continue
            others = union_find_components(tree, point_subtree(tree, comp.attachment))
            rederived = next((c for c in others if c.contains(comp.repr_point)), None)
            if rederived is None or rederived.closure != comp.closure:
                openness_ok = False
    deepest = cycles[-1]
    chains_ok = all(not c.closure.is_empty() for c in deepest.sets)
    disjoint_ok = True
    for i in range(len(deepest.sets)):
        for j in range(i + 1, len(deepest.sets)):
            si, sj = deepest.sets[i], deepest.sets[j]
            inter = si.closure.intersect(sj.closure)
            if inter.is_empty():
                continue
            if measure(inter) != 0:
                disjoint_ok = False
                continue
            allowed = set(si.boundary) | set(sj.boundary)
            if any(p not in allowed for p in inter.corner_points()):
                disjoint_ok = False
    keys = {canonical_key(c.closure) for c in deepest.sets}
    full_ok = chains_ok and disjoint_ok and len(keys) == deepest.period
    return grade(openness_ok, chains_ok, disjoint_ok, full_ok, tuple(c.period for c in cycles))


def assert_tower_facts(f, cycles):
    """What `detect_cycles_of_sets` and `classify_adding_machine` prove
    of a tower f carries, asserted on the tower itself:
    - the deepest root set lies in the root set of every level (the
      anchor is off every periodic set);
    - f maps each set's representative point into the next set of its
      cycle (f(y) is off P for y off P), and each attachment onto the
      next attachment (carried), the last set's into the first's;
    - the sets of a cycle are distinct, so the first set met again is
      the start (returns), each a whole branch at its attachment, and
      the deepest closures meet only at boundaries; so the closures read
      afresh grade the tower as `classify_adding_machine` does,
      "topological (full)" with every flag true.
    """
    root = cycles[-1].sets[0].repr_point
    for cyc in cycles:
        assert cyc.period == len(cyc.sets) == len({s.repr_point for s in cyc.sets})
        assert cyc.sets[0].contains(root)
        for i, s in enumerate(cyc.sets):
            nxt = cyc.sets[(i + 1) % cyc.period]
            assert nxt.contains(f.evaluate(s.repr_point))
            assert f.evaluate(s.attachment) == nxt.attachment
    report = classify_adding_machine(cycles)
    assert report == classify_by_closures(cycles)
    assert report.label == "topological (full)"
    return report


# -- complement components by union-find ---------------------------------------------
#
# The package splits no tree: it counts one component's contacts by a walk
# from a point (`MetricTree.contacts`).  The whole split is kept here, for
# the tests and the split-route oracle below.


@dataclass(frozen=True, slots=True)
class Component:
    """A path component of a complement, carried by its closure.

    The open component itself is ``closure`` minus the ``boundary``
    points where it touches the removed set.
    """

    closure: Subtree
    boundary: tuple
    repr_point: TreePoint

    def contains(self, p):
        return self.closure.contains(p) and p not in self.boundary

    @property
    def attachment(self):
        """The one boundary point; a component touching the removed set
        at any other number of points has none, and that is refused."""
        if len(self.boundary) != 1:
            raise PreconditionError(
                f"component touches the removed set at {len(self.boundary)} points"
            )
        return self.boundary[0]


def union_find_components(tree, removed):
    """The components of the tree minus a closed set, by union-find over
    free vertices and gaps, linked where a gap reaches a free vertex.

    A component's representative point is the midpoint of its least gap
    in edge order, or its vertex when it has no gap (the one-point tree
    with nothing removed), and the components are sorted by their
    closures' `canonical_key`.  A gap's node is keyed by the numerators
    and denominators of its ends, so no lookup hashes a `Fraction`, and
    its ends are kernel rationals (`ZERO`, `ONE` and the set's own), so no
    comparison takes `Fraction`'s generic route.
    """
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    units: list = []
    contacts: dict = {}
    ends: dict = {}  # a gap's node -> (lo, hi)
    for v in tree.vertex_ids:
        if v not in removed.vertices:
            key = ("vx", v)
            parent[key] = key
            units.append(key)
            contacts[key] = []
    for eid in tree.edge_ids:
        u, w = tree.edge_ends(eid)
        gaps = []
        prev = ZERO
        for lo, hi in removed.segments.get(eid, ()):
            if prev < lo:
                gaps.append((prev, lo))
            prev = hi
        if prev < 1:
            gaps.append((prev, ONE))
        for glo, ghi in gaps:
            key = ("seg", eid, glo.numerator, glo.denominator, ghi.numerator, ghi.denominator)
            ends[key] = (glo, ghi)
            parent[key] = key
            units.append(key)
            cts = []
            for t, v in ((glo, u), (ghi, w)):
                if 0 < t < 1:
                    cts.append(tree.edge_point(eid, t))
                elif v in removed.vertices:
                    cts.append(tree.vertex_point(v))
                else:
                    union(key, ("vx", v))
            contacts[key] = cts

    groups: dict = {}
    for key in units:
        groups.setdefault(find(key), []).append(key)
    comps = []
    for members in groups.values():
        segs, verts, cts = [], [], []
        rep = None
        for key in sorted(members, key=lambda k: (k[0], str(k[1]))):
            if key[0] == "vx":
                verts.append(key[1])
            else:
                eid, (glo, ghi) = key[1], ends[key]
                segs.append((eid, glo, ghi))
                if rep is None:
                    rep = tree.edge_point(eid, (glo + ghi) / 2)
            cts.extend(contacts[key])
        if rep is None:  # a vertex with no edge: the one-point tree, nothing removed
            rep = tree.vertex_point(verts[0])
        comps.append(
            Component(
                closure=Subtree.build(tree, segs, verts),
                boundary=tuple(sorted(set(cts), key=point_key)),
                repr_point=rep,
            )
        )
    comps.sort(key=lambda c: canonical_key(c.closure))
    return tuple(comps)


# -- cycles of sets by splitting the tree -------------------------------------------
#
# `odometer.detect_cycles_of_sets` finds each set as the branch at its
# attachment; this is the route it took before, splitting the tree into the
# components of its complement at every level and filing them by edge and
# vertex.


def component_locator(comps):
    """A lookup from a point to the index of the first component holding it.

    A component holds an edge point only if its closure has an interval
    on that edge, and a vertex only if the vertex is in its closure and
    not on its boundary.  So each lookup tries the few components filed
    under the point's edge or vertex, not every component.
    """
    filed: dict = {}
    for i, c in enumerate(comps):
        for eid in c.closure.segments:
            filed.setdefault(("edge", eid), []).append(i)
        boundary = {p.vertex for p in c.boundary if p.is_vertex}
        for v in c.closure.vertices:
            if v not in boundary:
                filed.setdefault(("vertex", v), []).append(i)

    def locate(p):
        key = ("vertex", p.vertex) if p.is_vertex else ("edge", p.edge)
        return next((i for i in filed.get(key, ()) if comps[i].contains(p)), None)

    return locate


@dataclass(frozen=True)
class SplitCycle:
    """One level of `split_cycles_of_sets`: components of the tree minus
    the periodic set, in the order the map visits them, and a locator."""

    level: int
    period: int
    sets: tuple
    locate: object

    def index_of(self, x):
        return self.locate(x)


def follow_split_cycle(f, comps, locate, start):
    """The components reachable from `start` by repeated application of
    the map, each checked to carry its one attachment onto the next."""

    def attachment(comp):
        if len(comp.boundary) != 1:
            raise PreconditionError(
                f"a component on the cycle touches the periodic set at "
                f"{len(comp.boundary)} points, so it is no set of an adding machine"
            )
        return comp.boundary[0]

    cycle = [start]
    cur = start
    while True:
        nxt = comps[locate(f.evaluate(cur.repr_point))]
        assert f.evaluate(attachment(cur)) == attachment(nxt)
        if nxt is start:
            return tuple(cycle)
        assert len(cycle) < len(comps), "the component orbit never returns to its start"
        cycle.append(nxt)
        cur = nxt


def split_cycles_of_sets(f, depth, piece_cap=DEFAULT_PIECE_CAP):
    """`detect_cycles_of_sets` by splitting the tree once per distinct
    periodic set, rooted at the first component of the deepest level."""
    if depth < 1:
        raise PreconditionError("depth must be at least 1")
    injective, pair = f.is_injective()
    if not injective:
        raise PreconditionError(
            f"cycle detection needs an injective map; {pair[0]} and {pair[1]} collide"
        )
    tree = f.domain
    levels = []
    full = tree.full_subtree()
    for n, _, removed in _periodic_levels(f, depth, piece_cap):
        if removed == full:
            break
        if not levels or removed != levels[-1][1]:
            comps = union_find_components(tree, removed)
            levels.append((n, removed, comps, component_locator(comps)))
    if not levels:
        return ()
    anchor = levels[-1][2][0].repr_point
    out = []
    last_period = 0
    for n, _, comps, locate in levels:
        cycle = follow_split_cycle(f, comps, locate, comps[locate(anchor)])
        if len(cycle) <= last_period:
            continue
        last_period = len(cycle)
        out.append(SplitCycle(n, len(cycle), cycle, component_locator(cycle)))
    return tuple(out)


def split_address_digits(cycles, x):
    """x's digits through split cycles, or the error `address_of` gives."""
    digits = []
    for cyc in cycles:
        hit = cyc.index_of(x)
        if hit is None:
            return ("PreconditionError", f"the point is outside every set at level {cyc.level}")
        digits.append(hit)
    return tuple(digits)
