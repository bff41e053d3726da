"""Piecewise-linear self-maps of finite metric trees.

A map is described per edge by breakpoints 0 = t_0 < ... < t_k = 1
with a target point at each; between consecutive breakpoints the edge
piece traverses the unique arc joining the two images at constant speed.
Every map sends a tree into itself.  Composition, iteration,
injectivity, and fixed-point sets are computed exactly, so every answer
here is a decision, not an approximation.

`PLTreeMap.image_of_subtree` is the one image routine; the image of the
whole tree is that routine on the full subtree.  A map keeps the two
facts about it decided here, its image and its injectivity, once asked;
and it holds one slot for `dynamics`, whose per-map store (orbits,
certificate, fixed sets of powers) is opaque to this module.

A map is built two ways.  The table constructor validates breakpoints
and asks the tree for each piece's arc; it is the entry point for files,
fixtures and users, and it refuses a table whose pieces and image arcs
together pass `MAX_TABLE_SIZE`.  Derived maps (`compose` and
`normalize`) are built pieces first, from pieces whose arcs are cut
(`Arc.window`), reversed or joined from arcs the map already stores, so
they ask the tree for no arc and validate nothing again.  `normalize` is
the one merge routine: `compose` goes through it, and it keeps the
pieces it does not merge.

The fixed points of a composition are solved from its two factors,
without building it (`composite_fixed_set`): the solve walks the cuts
`compose` would make and works only on those whose image returns to
their own edge, and a map's own fixed set is the same solve with no
outer factor.  A factor pair is built only when its cut count passes the
piece budget (`factored`): the cut count is at least the number of the
composite's normalized pieces, so a pair left unbuilt would pass the
budget, and one built is checked as every composition is.

Injectivity is decided by a sweep over the image arcs and, on a
collision, a bucketing of arc ends by position; the witness is read off
the two colliding pieces' arcs, the canonical point of their meet from
the segments they share (`_meet_point`) and each preimage from the
segment that holds it.  No subtree is built and no distance measured.

`find_periodic_in_hull` starts from the nearest-point retraction onto
the hull, built as a table, composes with f n - 1 times and solves the
n-th composition from its factors.  That composition equals f^n on the
hull and stays constant on each component off it, so the fixed points
of f^n in the hull come from pieces over the hull alone.  Whether the
advanced hull covers the hull is asked of `MetricTree.on_arc`, with no
second hull built (`_covers`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction

from .errors import (
    ConsistencyError,
    PreconditionError,
    ResourceLimitError,
    StructureError,
)
from .tree import (
    ONE,
    ZERO,
    Arc,
    MetricTree,
    Subtree,
    TreePoint,
    _Q,
    as_fraction,
)

DEFAULT_PIECE_CAP = 100_000
# pieces plus image-arc segments a breakpoint table may build: five times
# the largest fixture's, and far below the quadratic worst case of a file
MAX_TABLE_SIZE = 200_000


class _Piece:
    """One linear piece: a domain parameter window and its image arc."""

    __slots__ = ("edge", "t0", "t1", "p0", "p1", "arc")

    def __init__(self, edge, t0, t1, p0, p1, arc):
        self.edge = edge
        self.t0 = t0
        self.t1 = t1
        self.p0 = p0
        self.p1 = p1
        self.arc = arc

    @property
    def is_constant(self) -> bool:
        return not self.arc.segments  # p0 == p1, without comparing points

    def param_at_arclength(self, s: Fraction) -> Fraction:
        return self.t0 + (self.t1 - self.t0) * s / self.arc.length

    def arclength_at_param(self, t: Fraction) -> Fraction:
        return self.arc.length * (t - self.t0) / (self.t1 - self.t0)


class PLTreeMap:
    """An exact piecewise-linear self-map of a metric tree.

    `table` maps each edge id to its breakpoint list; breakpoints are
    ``(t, point)`` pairs with the point in the same tree.  A one-vertex
    tree has one self-map, the identity, so its table is empty.
    """

    __slots__ = (
        "domain", "_vimg", "_pieces", "_edge_index", "_image", "_injective", "_orbits",
    )

    def __init__(self, domain: MetricTree, table):
        """The map of a breakpoint table, checked as it is read.

        Each breakpoint's parameter is read once, a `_Q` as it stands, and
        its point is validated once (`validate_point`).  Each edge's ends
        come off its record in the tree, and a vertex image met again is
        compared by identity before value, since a load hands out one
        point for every repeat.  Each piece's arc comes from
        `MetricTree._arc`, which validates nothing again, and the pieces
        and image-arc segments are counted against `MAX_TABLE_SIZE` as
        each piece is built.
        """
        vimg: dict = {}
        pieces = []
        edge_index = {}
        size = 0
        validate = domain.validate_point
        edges = domain._edges
        for eid in domain.edge_ids:
            if eid not in table:
                raise StructureError(f"no breakpoints for edge {eid!r}")
            raw = list(table[eid])
            if len(raw) < 2:
                raise StructureError(f"edge {eid!r} needs at least two breakpoints")
            params, images = zip(
                *[(t if type(t) is _Q else as_fraction(t), validate(p)) for t, p in raw]
            )
            if params[0] != ZERO or params[-1] != ONE:
                raise StructureError(f"edge {eid!r} breakpoints must span [0, 1]")
            # two breakpoints spanning [0, 1] increase
            if len(params) > 2 and any(not ta < tb for ta, tb in zip(params, params[1:])):
                raise StructureError(f"edge {eid!r} breakpoints must increase")
            u, w, _ = edges[eid]
            for v, img in ((u, images[0]), (w, images[-1])):
                held = vimg.setdefault(v, img)
                if held is not img and held != img:
                    raise StructureError(f"edges disagree on the image of vertex {v!r}")
            mine = []
            for t0, t1, p0, p1 in zip(params, params[1:], images, images[1:]):
                arc = domain._arc(p0, p1)  # both ends validated above
                size += 1 + len(arc.segments)
                if size > MAX_TABLE_SIZE:
                    raise StructureError(
                        f"the map has more than {MAX_TABLE_SIZE} pieces and image-arc segments"
                    )
                mine.append(_Piece(eid, t0, t1, p0, p1, arc))
            pieces.extend(mine)
            edge_index[eid] = (params, tuple(mine))
        extra = set(table) - set(domain.edge_ids)
        if extra:
            raise StructureError(f"breakpoints for unknown edges: {sorted(map(str, extra))}")
        self._fill(domain, vimg, pieces, edge_index)

    @classmethod
    def _from_pieces(cls, domain: MetricTree, by_edge) -> "PLTreeMap":
        """The map made of pieces already built, as derived maps are.

        `by_edge` gives each edge of the domain, in its order, the pieces
        over it in order; they are trusted, not checked.
        """
        vimg: dict = {}
        pieces = []
        edge_index = {}
        for eid, mine in by_edge.items():
            u, w = domain.edge_ends(eid)
            vimg.setdefault(u, mine[0].p0)
            vimg.setdefault(w, mine[-1].p1)
            pieces.extend(mine)
            edge_index[eid] = ((*(piece.t0 for piece in mine), ONE), tuple(mine))
        f = cls.__new__(cls)
        f._fill(domain, vimg, pieces, edge_index)
        return f

    def _fill(self, domain, vimg, pieces, edge_index):
        if not domain.edge_ids:
            only = domain.vertex_ids[0]
            vimg[only] = domain.vertex_point(only)
        self.domain = domain
        self._vimg = vimg
        self._pieces = tuple(pieces)
        # per edge: breakpoint parameters, and the pieces between them (the map's one form)
        self._edge_index = edge_index
        self._image = None
        self._injective = None
        self._orbits = None  # the store made and kept by dynamics

    # -- inspection --------------------------------------------------------

    @property
    def piece_count(self) -> int:
        return len(self._pieces)

    def breakpoints(self, eid) -> tuple:
        self.domain._edge(eid)
        params, pieces = self._edge_index[eid]
        return tuple(zip(params, [pieces[0].p0] + [piece.p1 for piece in pieces]))

    def __repr__(self):
        return f"PLTreeMap({self.piece_count} pieces)"

    # -- evaluation ---------------------------------------------------------

    def vertex_image(self, v) -> TreePoint:
        if v not in self._vimg:
            raise StructureError(f"unknown vertex: {v!r}")
        return self._vimg[v]

    def evaluate(self, p: TreePoint) -> TreePoint:
        """f(p), read off the map where it stores it.

        A vertex's image and a breakpoint's image (the end `p1` of the
        piece ending there) are stored; any other point lies inside one
        piece and is found on that piece's arc at the same share of its
        length.
        """
        self.domain.validate_point(p)
        if p.is_vertex:
            return self._vimg[p.vertex]
        params, pieces = self._edge_index[p.edge]
        i = bisect_left(params, p.t, 1)  # the first breakpoint at or past p.t
        piece = pieces[i - 1]
        if params[i] == p.t or piece.is_constant:
            return piece.p1
        return piece.arc.point_at(piece.arclength_at_param(p.t))

    def image(self) -> Subtree:
        """The exact image of the whole tree, as a subtree."""
        if self._image is None:
            self._image = self.image_of_subtree(self.domain.full_subtree())
        return self._image

    def image_of_subtree(self, sub: Subtree) -> Subtree:
        """Exact image of a closed subtree, built in one pass.

        Each vertex adds its image and each single point its value.  An
        interval adds the image arcs of the pieces it meets in positive
        length, found by bisecting the edge's breakpoints: a window of each
        one's stored arc, or the whole arc where the interval covers it.
        """
        tree = self.domain
        if sub.tree != tree:
            raise PreconditionError("the subtree must live in the map's tree")
        segs = []
        verts = []

        def add_point(p):
            if p.is_vertex:
                verts.append(p.vertex)
            else:
                segs.append((p.edge, p.t, p.t))

        for v in sub.vertices:
            add_point(self._vimg[v])
        for eid, intervals in sub.segments.items():
            params, pieces = self._edge_index[eid]
            for lo, hi in intervals:
                if lo == hi:
                    add_point(self.evaluate(tree.edge_point(eid, lo)))
                    continue
                # the pieces with t0 < hi and t1 > lo
                for piece in pieces[bisect_right(params, lo, 1) - 1 : bisect_left(params, hi)]:
                    if piece.is_constant:
                        add_point(piece.p0)
                        continue
                    arc = piece.arc
                    if lo > piece.t0 or hi < piece.t1:
                        ends = (max(lo, piece.t0), min(hi, piece.t1))
                        arc = arc.window(*map(piece.arclength_at_param, ends))
                    segs += [(e, u0, u1) if u0 <= u1 else (e, u1, u0) for e, u0, u1 in arc.segments]
        return Subtree.build(tree, segs, verts)

    # -- normal form ---------------------------------------------------------

    def normalize(self) -> "PLTreeMap":
        """Remove breakpoints where adjacent pieces continue the same traversal.

        Pieces A->B and B->C continue one traversal when they run at the
        same speed and do not turn back at B (see `_continues`); in a tree
        they then form the arc [A, C].  A merged run keeps the speed and
        last segment of its last piece, so neighbouring pieces decide.
        A run becomes one piece whose arc is its pieces' arcs joined
        (`_joined`); a piece that continues neither neighbour is kept.
        """
        by_edge = {}
        for eid, (_, pieces) in self._edge_index.items():
            runs = [[pieces[0]]]
            for a, b in zip(pieces, pieces[1:]):
                if _continues(a, b):
                    runs[-1].append(b)
                else:
                    runs.append([b])
            by_edge[eid] = [_joined(run) for run in runs]
        if sum(map(len, by_edge.values())) == len(self._pieces):
            return self  # no breakpoint dropped
        return PLTreeMap._from_pieces(self.domain, by_edge)

    # -- injectivity -----------------------------------------------------------

    def is_injective(self) -> tuple:
        """Exact decision, with a witness pair of distinct points on failure.
        Decided once per map, by `_decide_injective`, and kept."""
        if self._injective is None:
            self._injective = self._decide_injective()
        return self._injective

    def _decide_injective(self) -> tuple:
        """The one injectivity sweep.

        The witness is the window ends of the first constant piece, else
        the first pair of pieces i < j whose arcs meet at distinct
        preimages of the canonical point of their meet.  Arcs in a tree
        meet in an arc, each non-constant piece is injective, and a point
        inside a window is the preimage for that piece alone; so i and j
        collide unless their arcs are disjoint or meet only in f(x) for a
        domain point x that ends both windows.

        With no piece constant, f(x) = f(y) for x != y maps [x, y] onto a
        closed path, which cannot turn at a point z inside an edge off f(x)
        and off every breakpoint image; so two pieces overlap in positive
        length near z.  A per-edge sweep marks every piece overlapping
        another in positive length, and no mark means injective.  Otherwise
        segment ends are bucketed by position (`_place`), since arcs
        meeting in one point q both end a segment there, and a bucket
        holding two preimages of q marks its pieces.  The marked pieces are
        exactly the colliding ones (`_marked`).

        The search pairs the least marked piece a with each later piece in
        turn and returns the first collision, and it cannot run dry.  a is
        marked together with a piece b it collides with, and b comes
        later: by the sweep, when the two overlap in positive length, or
        by a bucket whose point q has distinct preimages in a and b.  If
        the arcs overlap in positive length, the canonical point of their
        meet (`_meet_point`) is the midpoint of an overlap, inside both
        arcs and an end of neither, so its preimages lie inside the two
        windows, which share no inner point, and differ.  Otherwise the
        arcs meet in q alone, q is the canonical point, and its preimages
        are the bucket's two.  The tests assert that the marked pieces are
        exactly the colliding ones, against the pairwise oracle.
        """
        tree = self.domain
        for piece in self._pieces:
            if piece.is_constant:
                ends = (piece.t0, piece.t1)
                return (False, tuple(tree.edge_point(piece.edge, t) for t in ends))
        marked = self._marked()
        if not marked:
            return (True, None)
        first, *later = marked
        a = self._pieces[first]
        pairs = (self._collision(a, self._pieces[j]) for j in later)
        return (False, next(pair for pair in pairs if pair is not None))

    def _marked(self) -> list:
        """The indices of the pieces that collide with another piece, in
        order, for a map with no constant piece: those that overlap
        another in positive length, and those in a bucket of one image
        point holding two preimages."""
        edges = self.domain._edges
        marked = set()
        by_edge: dict = {}
        for i, piece in enumerate(self._pieces):
            for eid, u0, u1 in piece.arc.segments:
                by_edge.setdefault(eid, []).append((u0, u1, i) if u0 < u1 else (u1, u0, i))
        for segs in by_edge.values():
            segs.sort()
            _, reach, holder = segs[0]  # the farthest segment end so far
            for lo, hi, i in segs[1:]:
                if lo < reach:
                    marked.update((i, holder))
                if hi > reach:
                    reach, holder = hi, i
        if not marked:
            return []
        preimages: dict = {}  # image position -> [(piece, its preimage there)]
        for i, piece in enumerate(self._pieces):
            # a window end is placed as an edge end vertex or an edge
            # position; a vertex the arc passes through has its preimage
            # inside the window, named by the piece alone
            for t, q in ((piece.t0, piece.p0), (piece.t1, piece.p1)):
                preimages.setdefault(_point_place(q), []).append((i, _place(edges, piece.edge, t)))
            for aeid, _, u1 in piece.arc.segments[:-1]:
                preimages.setdefault(_place(edges, aeid, u1), []).append((i, i))
        for hits in preimages.values():
            if len({x for _, x in hits}) > 1:
                marked.update(i for i, _ in hits)
        return sorted(marked)

    def _collision(self, a: _Piece, b: _Piece):
        """(x, y) with x in a's window and y in b's, distinct, both sent to
        the canonical point of the two arcs' meet; None when the arcs are
        disjoint or that point has one preimage, a window end of both."""
        q = _meet_point(self.domain, a.arc, b.arc)
        if q is None:
            return None
        xa, xb = self._preimage_in_piece(a, q), self._preimage_in_piece(b, q)
        return None if xa == xb else (xa, xb)

    def _preimage_in_piece(self, piece: _Piece, q: TreePoint) -> TreePoint:
        s = piece.arc.arclength_of(q)
        return self.domain.edge_point(piece.edge, piece.param_at_arclength(s))

    # -- fixed points ------------------------------------------------------------

    def fixed_point_set(self) -> Subtree:
        """All points with f(x) = x, exactly; may be empty or disconnected.
        The solve of `composite_fixed_set` with no outer factor."""
        return composite_fixed_set(None, self)

    # -- iteration ----------------------------------------------------------------

    def iterate(self, n: int, piece_cap: int = DEFAULT_PIECE_CAP) -> "PLTreeMap":
        """The n-th compositional power, by squaring, with a piece budget."""
        if n < 0:
            raise PreconditionError("iteration count must be nonnegative")
        if n == 0:
            return identity_map(self.domain)
        return built(*self.power_factors(n, piece_cap), piece_cap, "iterate")

    def power_factors(self, n: int, piece_cap: int = DEFAULT_PIECE_CAP) -> tuple:
        """(outer, inner) with f^n = outer . inner, or (None, f) for n = 1.

        The powers are made by squaring, as `iterate` makes them: every
        composition but the last is built, within the budget, and the
        last is left to the caller as its two factors.
        """
        if n < 1:
            raise PreconditionError("power must be at least 1")

        result = None
        base = self
        k = n
        while k > 1:
            if k & 1:
                result = base if result is None else built(result, base, piece_cap)
            k >>= 1
            if k == 1 and result is None:
                return (base, base)  # n a power of two: the last step squares
            base = built(base, base, piece_cap)
        return (result, base)


def _continues(a: _Piece, b: _Piece) -> bool:
    """Same speed, and no turn back at the shared breakpoint.

    Both pieces are constant, or the last segment of a's arc and the
    first of b's lie on different edges, or on one edge the same way.
    """
    if a.is_constant or b.is_constant:
        return a.is_constant and b.is_constant
    (ea, u0, u1), (eb, v0, v1) = a.arc.segments[-1], b.arc.segments[0]
    if ea == eb and (u1 > u0) != (v1 > v0):
        return False
    return a.arc.length * (b.t1 - b.t0) == b.arc.length * (a.t1 - a.t0)


def _place(edges, eid, t) -> tuple:
    """The position key of the point at parameter t on an edge: (vertex,)
    at an end, else (edge, numerator, denominator).  A vertex's key has one
    entry and an edge position's three, so neither is taken for the other
    whatever the ids are, and hashing one calls no `Fraction.__hash__`."""
    if not t._numerator:
        return (edges[eid][0],)
    if t._numerator == t._denominator:
        return (edges[eid][1],)
    return (eid, t._numerator, t._denominator)


def _point_place(p: TreePoint) -> tuple:
    """`_place` of a point."""
    if p.edge is None:
        return (p.vertex,)
    return (p.edge, p.t._numerator, p.t._denominator)


def _meet_point(tree: MetricTree, a: Arc, b: Arc):
    """The canonical point of the meet of two non-degenerate arcs, the one
    `_canonical_point` gives for the meet as a subtree; None when the arcs
    are disjoint.

    It is read off their segments.  An arc runs over an edge at most
    once, so two arcs share one interval of an edge they both run over,
    and their meet is an arc, a point or nothing.  With length, the
    point is the midpoint of the shared interval on the least edge (tree
    order) where it has length.  Otherwise the meet is at most one
    point, and that point ends a segment of each arc.
    """
    mine = {eid: (u0, u1) if u0 < u1 else (u1, u0) for eid, u0, u1 in a.segments}
    best = None
    for eid, v0, v1 in b.segments:
        span = mine.get(eid)
        if span is not None:
            lo, hi = (v0, v1) if v0 < v1 else (v1, v0)
            lo, hi = max(lo, span[0]), min(hi, span[1])
            if lo < hi and (best is None or str(eid) < str(best[0])):
                best = (eid, lo, hi)
    if best is not None:
        eid, lo, hi = best
        return tree.edge_point(eid, (lo + hi) / 2)
    edges = tree._edges
    ends = {_place(edges, eid, t) for eid, u0, u1 in a.segments for t in (u0, u1)}
    for eid, v0, v1 in b.segments:
        for t in (v0, v1):
            if _place(edges, eid, t) in ends:
                return tree.edge_point(eid, t)
    return None


def _canonical_point(tree: MetricTree, sub: Subtree) -> TreePoint:
    """A deterministic representative: first interval midpoint, else a corner."""
    for eid, intervals in sub.segments.items():
        lo, hi = intervals[0]
        if lo < hi:
            return tree.edge_point(eid, (lo + hi) / 2)
    return sub.corner_points()[0]


def identity_map(tree: MetricTree) -> PLTreeMap:
    return map_from_vertex_images(tree, {v: tree.vertex_point(v) for v in tree.vertex_ids})


def map_from_vertex_images(tree: MetricTree, images) -> PLTreeMap:
    """The map sending each edge linearly onto the arc between vertex images."""
    table = {}
    for eid in tree.edge_ids:
        u, w = tree.edge_ends(eid)
        for v in (u, w):
            if v not in images:
                raise StructureError(f"no image for vertex {v!r}")
        table[eid] = [(ZERO, images[u]), (ONE, images[w])]
    return PLTreeMap(tree, table)


def compose(outer: PLTreeMap, inner: PLTreeMap) -> PLTreeMap:
    """The exact composition outer(inner(.)), refined and normalized.

    Each inner piece is cut wherever its image arc crosses a vertex or
    an outer breakpoint; between cuts the composite is again a
    constant-speed arc traversal, so the result is a valid PL map.  The
    image arc of each cut piece is a window of one outer piece's arc,
    reversed where the inner arc runs its edge backwards.  The result is
    built from those pieces directly: nothing in it is looked up in the
    tree again.
    """
    if inner.domain != outer.domain:
        raise PreconditionError("composed maps must live on the same tree")
    by_edge = {
        eid: [new for piece in pieces for new in _compose_piece(outer, piece)]
        for eid, (_, pieces) in inner._edge_index.items()
    }
    return PLTreeMap._from_pieces(inner.domain, by_edge).normalize()


def _compose_piece(outer: PLTreeMap, piece: _Piece) -> list:
    """The pieces of outer . piece: one per outer piece each inner segment meets."""
    tree = outer.domain
    if piece.is_constant:
        return [_constant(tree, piece.edge, piece.t0, piece.t1, outer.evaluate(piece.p0))]
    out = []
    arc = piece.arc
    offsets = arc.segment_offsets
    scale = (piece.t1 - piece.t0) / arc.length  # domain parameter per unit of arclength
    ta = piece.t0
    for k, (aeid, u0, u1) in enumerate(arc.segments):
        params, opieces = outer._edge_index[aeid]
        length = tree.edge_length(aeid)
        forward = u0 < u1
        lo, hi = (u0, u1) if forward else (u1, u0)
        # the outer pieces with t0 < hi and t1 > lo, in the segment's direction
        met = opieces[bisect_right(params, lo, 1) - 1 : bisect_left(params, hi)]
        for op in met if forward else reversed(met):
            a, b = max(lo, op.t0), min(hi, op.t1)
            # the cut where this piece ends: a vertex the inner arc passes,
            # the inner piece's end, or an outer breakpoint
            end = b if forward else a
            s = offsets[k + 1] if end == u1 else offsets[k] + abs(end - u0) * length
            tb = piece.t1 if s == arc.length else piece.t0 + s * scale
            if op.is_constant:
                out.append(_constant(tree, piece.edge, ta, tb, op.p0))
            else:
                image = op.arc
                if a != op.t0 or b != op.t1:
                    image = image.window(op.arclength_at_param(a), op.arclength_at_param(b))
                if not forward:
                    image = image.reversed()
                out.append(_Piece(piece.edge, ta, tb, image.a, image.b, image))
            ta = tb
    return out


def _constant(tree: MetricTree, eid, t0: Fraction, t1: Fraction, q: TreePoint) -> _Piece:
    return _Piece(eid, t0, t1, q, q, Arc(tree, q, q, (), (ZERO,)))


def _joined(run: list) -> _Piece:
    """One piece for a run of pieces that continue one traversal.

    Its arc is theirs laid end to end.  No piece turns back into the one
    before it (`_continues`), so that is the arc between the run's ends,
    with a segment continued along its edge across a junction made one.
    """
    first, last = run[0], run[-1]
    if len(run) == 1:
        return first
    arc = first.arc  # a constant run stays at its one point
    if not first.is_constant:
        segs = list(arc.segments)
        cums = list(arc.segment_offsets)
        for piece in run[1:]:
            more, offsets = piece.arc.segments, piece.arc.segment_offsets
            shift = cums[-1]
            k = 0
            if segs[-1][0] == more[0][0]:  # one segment across the junction
                segs[-1] = (more[0][0], segs[-1][1], more[0][2])
                cums[-1] = shift + offsets[1]
                k = 1
            segs.extend(more[k:])
            cums.extend(shift + c for c in offsets[k + 1 :])
        arc = Arc(arc.tree, first.p0, last.p1, tuple(segs), tuple(cums))
    return _Piece(first.edge, first.t0, last.t1, first.p0, last.p1, arc)


# -- fixed points of a composition ----------------------------------------------


def cut_count(outer: PLTreeMap, inner: PLTreeMap) -> int:
    """The number of pieces `compose(outer, inner)` cuts before it
    normalizes: one per constant inner piece, and one per outer piece
    each inner arc segment meets.  Normalizing only merges pieces, so
    the composite has at most this many."""
    n = 0
    for piece in inner._pieces:
        if piece.is_constant:
            n += 1
            continue
        for aeid, u0, u1 in piece.arc.segments:
            params = outer._edge_index[aeid][0]
            lo, hi = (u0, u1) if u0 < u1 else (u1, u0)
            n += bisect_left(params, hi) - bisect_right(params, lo, 1) + 1
    return n


def built(outer, inner: PLTreeMap, piece_cap: int = DEFAULT_PIECE_CAP, what: str = "iterate") -> PLTreeMap:
    """The map a factor pair stands for: inner when outer is None, else
    outer . inner within the budget, raising ResourceLimitError naming
    `what` past it."""
    if outer is None:
        return inner
    g = compose(outer, inner)
    if g.piece_count > piece_cap:
        raise ResourceLimitError(
            f"{what} exceeded the piece budget ({g.piece_count} > {piece_cap})"
        )
    return g


def factored(outer, inner: PLTreeMap, piece_cap: int, what: str) -> tuple:
    """The factor pair (outer, inner), left unbuilt while its cut count is
    within the budget; past it, (None, outer . inner) built by `built`.

    The cut count is at least the composite's number of normalized
    pieces, so a pair left unbuilt would pass the budget, and a pair
    built is checked and refused exactly as composing it always was.
    """
    if outer is not None and cut_count(outer, inner) > piece_cap:
        return (None, built(outer, inner, piece_cap, what))
    return (outer, inner)


def composite_fixed_set(outer, inner: PLTreeMap) -> Subtree:
    """The one fixed-point solve: Fix(outer . inner), solved from the two
    factors without building the composite, or Fix(inner) when outer is
    None.

    A vertex is fixed when its image is itself.  A fixed point x inside
    an edge e lies in a cut `compose` would make: a window of an inner
    piece over e on which one segment of the inner arc, on an edge a,
    runs across one outer piece over a.  There the composite runs at
    constant speed along a window of that outer piece's arc, so x can be
    fixed only where that window lies on e.  The outer pieces are
    indexed by (domain edge, image edge) (`_by_image_edge`), and only
    the cuts whose image returns to e are solved: on each, the image's
    parameter on e is one affine function alpha * t + beta of x's
    parameter t (`_segment_line`, composed), a constant piece being the
    case alpha = 0, and `_solve` reads off the fixed points.  With no
    outer factor, the inner arc's own segment on e is solved.  Windows
    are closed, so a fixed point where two cuts meet is found by both
    and merged by `Subtree.build`.
    """
    tree = inner.domain
    if outer is not None and outer.domain != tree:
        raise PreconditionError("composed maps must live on the same tree")
    segs = []
    verts = []
    known = {}  # outer's value at each point off the vertices, once per solve

    def value(p):
        """outer(p), p itself with no outer factor: a vertex's read off
        the stored vertex images, any other point's evaluated once."""
        if outer is None:
            return p
        if p.vertex is not None:
            return outer._vimg[p.vertex]
        q = known.get(p)
        if q is None:
            q = known[p] = outer.evaluate(p)
        return q

    for v, img in inner._vimg.items():
        if value(img).vertex == v:
            verts.append(v)
    index = None if outer is None else _by_image_edge(outer)
    for piece in inner._pieces:
        eid = piece.edge
        if piece.is_constant:
            q = value(piece.p0)
            if q.edge == eid:
                _solve(segs, eid, ZERO, q.t, piece.t0, piece.t1)
            continue
        for k, (aeid, u0, u1) in enumerate(piece.arc.segments):
            if outer is None:
                if aeid == eid:
                    _solve(segs, eid, *_segment_line(piece, k))
                continue
            met = index.get((aeid, eid))
            if met is None:
                continue
            t0s, t1s, entries = met
            lo, hi = (u0, u1) if u0 < u1 else (u1, u0)
            a1, b1, _, _ = _segment_line(piece, k)
            # the outer pieces whose closed windows meet [lo, hi]
            for entry in entries[bisect_left(t1s, lo) : bisect_right(t0s, hi)]:
                if entry[2] is None:
                    op, j = entry[:2]
                    entry[2] = (ZERO, op.p0.t, op.t0, op.t1) if j is None else _segment_line(op, j)
                a2, b2, y0, y1 = entry[2]
                ya, yb = max(lo, y0), min(hi, y1)
                if ya > yb:
                    continue
                ta, tb = (ya - b1) / a1, (yb - b1) / a1
                _solve(segs, eid, a2 * a1, a2 * b1 + b2, *((ta, tb) if a1 > 0 else (tb, ta)))
    return Subtree.build(tree, segs, verts)


def _by_image_edge(f: PLTreeMap) -> dict:
    """f's pieces by (domain edge, image edge): the pieces over the domain
    edge whose arc has a segment on the image edge, or whose constant
    value lies inside it, in order, as (their t0s, their t1s, entries).
    An entry is [piece, segment index or None when constant, line], the
    line `_segment_line` gives, filled when first met."""
    index = {}
    for piece in f._pieces:
        if not piece.is_constant:
            keys = [(seg[0], k) for k, seg in enumerate(piece.arc.segments)]
        elif piece.p0.is_vertex:
            continue
        else:
            keys = [(piece.p0.edge, None)]
        for e, k in keys:
            t0s, t1s, entries = index.setdefault((piece.edge, e), ([], [], []))
            t0s.append(piece.t0)
            t1s.append(piece.t1)
            entries.append([piece, k, None])
    return index


def _segment_line(piece: _Piece, k: int) -> tuple:
    """(alpha, beta, x0, x1): on the window [x0, x1] of the piece's
    parameter that the k-th segment of its arc covers, the image lies on
    that segment's edge at parameter alpha * t + beta."""
    arc = piece.arc
    _, u0, u1 = arc.segments[k]
    scale = (piece.t1 - piece.t0) / arc.length  # parameter per unit of arclength
    x0 = piece.t0 + arc.segment_offsets[k] * scale
    x1 = piece.t0 + arc.segment_offsets[k + 1] * scale
    alpha = (u1 - u0) / (x1 - x0)
    return alpha, u0 - alpha * x0, x0, x1


def _solve(segs: list, eid, alpha: Fraction, beta: Fraction, lo: Fraction, hi: Fraction) -> None:
    """Add to segs the points t of [lo, hi] on the edge with alpha * t + beta = t."""
    if alpha == ONE:
        if beta == ZERO:
            segs.append((eid, lo, hi))
    else:
        x = beta / (ONE - alpha)
        if lo <= x <= hi:
            segs.append((eid, x, x))


# -- hulls -------------------------------------------------------------------


def _retraction(tree: MetricTree, hull: Subtree) -> PLTreeMap:
    """The nearest-point retraction onto a connected subtree, in normal form.

    A connected subtree holds at most one interval of an edge: the map is
    the identity on it and constant at its ends beyond it.  An edge the
    hull holds in no interval of positive length retracts to one point,
    where its end u does (`MetricTree.vertex_retractions`).
    """
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


def _covers(tree: MetricTree, cover, points) -> bool:
    """Whether hull(cover) contains hull(points).  A hull is connected, so
    it holds the other exactly when it holds every one of the points, and
    hull(cover) is the union of the arcs from cover[0] to each point of
    cover."""
    return all(any(tree.on_arc(p, cover[0], q) for q in cover) for p in points)


def find_periodic_in_hull(
    f: PLTreeMap,
    points,
    n: int,
    piece_cap: int = DEFAULT_PIECE_CAP,
) -> TreePoint:
    """A point x in the hull of the given points with f^n(x) = x.

    Requires the n-times-advanced hull to contain the original one.  The
    search starts from the nearest-point retraction r onto the hull and
    composes with f n - 1 times, to h = f^(n-1) . r.  Then f . h = f^n . r
    equals f^n on the hull and is constant on each component off it, so
    only pieces over the hull grow, and the fixed points of f . h in the
    hull are exactly those of f^n there; they are solved from the
    factors (f, h), with no n-th composition built.  The answer is the
    canonical point of that set: the midpoint of its first interval, else
    its first corner.  A composition with more than `piece_cap` pieces
    raises ResourceLimitError; the last one is built to be checked only
    when its cut count, at least its number of normalized pieces, passes
    `piece_cap`.

    Covering guarantees a point of period n in the hull on an interval,
    not on other trees: on a tripod, a map that swaps two ends and sends
    the centre out the third leg covers the hull of those two ends and
    fixes none of its points.  When f^n fixes no point of the hull this
    raises ConsistencyError("no fixed point of the n-th iterate in the
    hull").
    """
    tree = f.domain
    if n < 1:
        raise PreconditionError("need at least one step")
    pts = list(points)
    hull = tree.connected_hull(pts)  # validates the points and rejects none
    advanced = pts
    for _ in range(n):
        advanced = [f.evaluate(p) for p in advanced]
    if not _covers(tree, advanced, pts):
        raise PreconditionError("advanced hull does not cover the original hull")
    h = _retraction(tree, hull)
    for _ in range(n - 1):
        h = built(f, h, piece_cap, "hull search")
    fixed = composite_fixed_set(*factored(f, h, piece_cap, "hull search")).intersect(hull)
    if fixed.is_empty():
        raise ConsistencyError("no fixed point of the n-th iterate in the hull")
    return _canonical_point(tree, fixed)
