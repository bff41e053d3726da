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

A map holds each piece once, in its edge's tuple (`_by_edge`), whose key
alone names the edge; each breakpoint parameter is held once, as a window
end.  The pieces at a parameter, or meeting a window, are one bisection
of the windows (`_meeting`).  A piece is its segment table: for each
segment of its image path, the image edge, the segment's two parameters
on it, and the window of domain parameters it covers.  A piece is affine on each segment, so every reader
takes parameters off one entry and measures no arclength.  One builder
(`_built`) makes the pieces of every map read from breakpoints: it takes
each edge's parameters and images as two columns, checks the edge, walks
the tree's path for each piece (`MetricTree._path`) and refuses a table
whose pieces and segments pass `MAX_TABLE_SIZE`.  `PLTreeMap(tree,
table)` reads its table into columns edge by edge, validating each point
(`_columns`); a load hands over the columns its reader has already
checked.  A piece's window ends come from its segments' arclengths summed
as integers over one common denominator (`_table`).  Derived maps
(`compose`, `normalize`, the hull retraction) are built pieces first,
from tables cut (`_cut`) or joined from stored ones, asking the tree for
nothing; `_merged` is the one merge routine.  Every map ends in one
assembler, `PLTreeMap._from_pieces`, handed its vertex images by `_built`.

The fixed points of a composition are solved from its two factors,
without building it (`composite_fixed_set`): the solve walks the cuts
`compose` would make and works only on those whose image returns to
their own edge, and a map's own fixed set is the same solve with no
outer factor.  A factor pair is built only when its cut count passes the
piece budget (`factored`): the cut count is at least the number of the
composite's normalized pieces, so a pair left unbuilt would pass the
budget, and one built is checked as every composition is.

Injectivity is decided by a sweep over the table segments and, on a
collision, a bucketing of segment ends by position; the witness is the
canonical point of two colliding pieces' meet (`_meet_point`) and each
preimage, read off their tables.  No subtree is built.

`find_periodic_in_hull` starts from the nearest-point retraction onto
the hull, built from its pieces, composes with f n - 1 times and solves the
n-th composition from its factors.  That composition equals f^n on the
hull and stays constant on each component off it, so the fixed points
of f^n in the hull come from pieces over the hull alone.  Whether the
advanced hull covers the hull is asked of `MetricTree.on_arc`, with no
second hull built (`_covers`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import attrgetter, itemgetter

from .errors import (
    ConsistencyError,
    PreconditionError,
    ResourceLimitError,
    StructureError,
    _at_least,
    _at_least_one,
)
from .tree import (
    ONE,
    ZERO,
    MetricTree,
    Subtree,
    TreePoint,
    _Q,
    _new,
    as_fraction,
)

DEFAULT_PIECE_CAP = 100_000
# pieces plus image-path segments a breakpoint table may build: five times
# the largest fixture's, and far below the quadratic worst case of a file
MAX_TABLE_SIZE = 200_000


class _Piece:
    """One linear piece: a domain window [t0, t1], its image points p0 and
    p1, and its table, one entry (edge, u0, u1, x0, x1) per segment of
    the image path from p0 to p1: the image edge, the segment's parameters
    on it, and its window [x0, x1] of the domain parameter.  The windows
    tile [t0, t1] in order, and on each the image parameter is affine in t
    (`_line`).  A constant piece has an empty table.  Its domain edge is the
    key of the map's tuple that holds it."""

    __slots__ = ("t0", "t1", "p0", "p1", "table")

    def __init__(self, t0, t1, p0, p1, table):
        self.t0 = t0
        self.t1 = t1
        self.p0 = p0
        self.p1 = p1
        self.table = table


_end = itemgetter(4)  # a table entry's domain end
_low = itemgetter(0)
_window_start = attrgetter("t0")  # a piece's domain start
_window_end = attrgetter("t1")  # a piece's domain end


def _meeting(pieces: tuple, lo: Fraction, hi: Fraction) -> slice:
    """The slice of an edge's pieces whose windows meet [lo, hi], lo < hi: t0 < hi, t1 > lo."""
    return slice(bisect_right(pieces, lo, key=_window_end), bisect_left(pieces, hi, key=_window_start))


def _table(edges, segs: list, t0: Fraction, t1: Fraction) -> tuple:
    """The table of a piece over [t0, t1] whose image path has two or
    more segments (edge, from, to): each ends at t0 plus the window's
    share that the arclength up to its end is of the path's, the last at
    t1, and starts where the one before ends.  Only the first and last
    segments can run part of an edge, where the path's end lies inside
    it, at its parameter of denominator other than 1.

    The arclengths are put over one common denominator and summed as
    ints, so each window end is one integer fraction over the path's
    total, reduced by one gcd: the same reduced `_Q` that rational sums
    and a division would give.
    """
    nums = []
    dens = []
    for e, _, _ in segs:
        length = edges[e][2]
        nums.append(length._numerator)
        dens.append(length._denominator)
    _, u0, u1 = segs[0]
    d = u0._denominator
    if d != 1:  # the path leaves the first edge's interior for its end u1
        nums[0] *= u0._numerator if u1._numerator == 0 else d - u0._numerator
        dens[0] *= d
    _, u0, u1 = segs[-1]
    d = u1._denominator
    if d != 1:  # the path enters the last edge at its end u0
        nums[-1] *= u1._numerator if u0._numerator == 0 else d - u1._numerator
        dens[-1] *= d
    common = lcm(*dens)
    run = 0
    ends = []  # the arclength up to each segment's end, over common
    for n, d in zip(nums, dens):
        run += n * (common // d)
        ends.append(run)
    # t0 + (t1 - t0) * c / run is (base + width * c) / den
    n0, d0, n1, d1 = t0._numerator, t0._denominator, t1._numerator, t1._denominator
    den = d0 * d1 * run
    base = n0 * d1 * run
    width = n1 * d0 - n0 * d1
    out = []
    x0 = t0
    for (e, u0, u1), c in zip(segs, ends[:-1]):  # the last ends at t1
        num = base + width * c
        g = gcd(num, den)
        x1 = _new(_Q)
        x1._numerator = num // g
        x1._denominator = den // g
        out.append((e, u0, u1, x0, x1))
        x0 = x1
    out.append((*segs[-1], x0, t1))
    return tuple(out)


def _cut(table: tuple, a: Fraction, b: Fraction) -> list:
    """A piece's table cut to the window t0 <= a < b <= t1: each segment
    meeting it in positive length, its ends and window moved in to it."""
    n = len(table)
    k = bisect_right(table, a, key=_end)  # the segment holding a, the first ending past it
    out = []
    while k < n:
        e, u0, u1, x0, x1 = table[k]
        if x0 >= b:
            break
        k += 1
        if x0 < a or x1 > b:
            slope = (u1 - u0) / (x1 - x0)
            if x1 > b:
                u1 = u0 + (b - x0) * slope
                x1 = b
            if x0 < a:
                u0 = u0 + (a - x0) * slope
                x0 = a
        out.append((e, u0, u1, x0, x1))
    return out


def _columns(domain: MetricTree, table):
    """Each edge's breakpoints in a table, in the domain's edge order, as
    (edge, parameters, images): the parameters `_Q`s and the images
    validated points.  A record that is not a (t, point) pair, or a list
    that is not one, is refused naming the edge; a list of fewer than two
    records is handed on unread, for `_built` to refuse by its length.
    Once every edge is read, a key naming no edge is refused.
    """
    validate = domain.validate_point
    for eid in domain.edge_ids:
        if eid not in table:
            raise StructureError(f"no breakpoints for edge {eid!r}")
        try:
            raw = list(table[eid])
            if len(raw) < 2:
                yield eid, raw, raw
                continue
            params, images = zip(
                *[(t if type(t) is _Q else as_fraction(t), validate(p)) for t, p in raw]
            )
        except StructureError:  # a value refused by name, as read
            raise
        except (TypeError, ValueError):  # not a list of pairs
            raise StructureError(f"bad breakpoint record on edge {eid!r}") from None
        yield eid, params, images
    extra = set(table) - set(domain.edge_ids)
    if extra:
        raise StructureError(f"breakpoints for unknown edges: {sorted(map(str, extra))}")


def _built(domain: MetricTree, columns) -> tuple:
    """(the tuple of pieces of each edge, vertex images) of the map with
    these breakpoint columns, one (edge, parameters, images) per edge of
    the domain, in its order: the parameters `_Q`s and the images points
    of the domain, as the caller read and checked them.

    Each edge is checked before the next is taken: at least two
    breakpoints, spanning [0, 1] and increasing, its end images agreeing
    with those earlier edges gave the same vertex (compared by identity
    before value, since a load hands out one point for every repeat), and
    the running count of pieces and segments within `MAX_TABLE_SIZE`.
    Each piece's table comes from the path `MetricTree._path` walks
    (`_table`).
    """
    vimg: dict = {}
    by_edge = {}
    size = 0
    walk = domain._path
    edges = domain._edges
    for eid, params, images in columns:
        if len(params) < 2:
            raise StructureError(f"edge {eid!r} needs at least two breakpoints")
        if params[0]._numerator or params[-1]._numerator != params[-1]._denominator:
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
            segs = walk(p0, p1)
            n = len(segs)
            size += 1 + n
            if size > MAX_TABLE_SIZE:
                raise StructureError(
                    f"the map has more than {MAX_TABLE_SIZE} pieces and image-arc segments"
                )
            if n > 1:
                entries = _table(edges, segs, t0, t1)
            else:
                entries = ((*segs[0], t0, t1),) if n else ()
            mine.append(_Piece(t0, t1, p0, p1, entries))
        by_edge[eid] = tuple(mine)
    return by_edge, vimg


class PLTreeMap:
    """An exact piecewise-linear self-map of a metric tree.

    `table` maps each edge id to its breakpoint list; breakpoints are
    ``(t, point)`` pairs with the point in the same tree.  A one-vertex
    tree has one self-map, the identity, so its table is empty.
    """

    __slots__ = (
        "domain", "_vimg", "_by_edge", "_image", "_injective", "_orbits",
    )

    def __init__(self, domain: MetricTree, table):
        """The map of a breakpoint table, checked as it is read: each
        edge's records read into columns, each point validated once
        (`_columns`), then built by `_built`, which checks that edge before
        the next is read, and assembled by `_from_pieces`."""
        self._from_pieces(domain, *_built(domain, _columns(domain, table)))

    def _from_pieces(self, domain: MetricTree, by_edge: dict, vimg: dict | None = None) -> "PLTreeMap":
        """The one assembler: fills this map, fresh from `__init__` or
        `object.__new__`, with `by_edge`, each edge's tuple of pieces in
        order (trusted, not checked), and returns it.  The vertex images are
        read off the piece ends unless `_built` hands over those it checked.
        """
        if vimg is None:
            vimg = {}
            for eid, mine in by_edge.items():
                u, w, _ = domain._edges[eid]
                vimg.setdefault(u, mine[0].p0)
                vimg.setdefault(w, mine[-1].p1)
        if not domain.edge_ids:
            only = domain.vertex_ids[0]
            vimg[only] = domain.vertex_point(only)
        self.domain = domain
        self._vimg = vimg
        # per edge: its pieces, whose windows hold the breakpoints (the map's one form)
        self._by_edge = by_edge
        self._image = None
        self._injective = None
        self._orbits = None  # the store made and kept by dynamics
        return self

    # -- inspection --------------------------------------------------------

    @property
    def piece_count(self) -> int:
        return sum(map(len, self._by_edge.values()))

    def breakpoints(self, eid) -> tuple:
        self.domain._edge(eid)
        pieces = self._by_edge[eid]
        return ((ZERO, pieces[0].p0), *((piece.t1, piece.p1) for piece in pieces))

    def __repr__(self):
        return f"PLTreeMap({self.piece_count} pieces)"

    # -- evaluation ---------------------------------------------------------

    def vertex_image(self, v) -> TreePoint:
        if v not in self._vimg:
            raise StructureError(f"unknown vertex: {v!r}")
        return self._vimg[v]

    def evaluate(self, p: TreePoint) -> TreePoint:
        """f(p): a vertex's and a breakpoint's image (the end `p1` of the
        piece ending there) as stored, any other point's by the affine map
        of the first segment of its piece's table that ends at or past it.
        """
        self.domain.validate_point(p)
        if p.is_vertex:
            return self._vimg[p.vertex]
        t = p.t
        pieces = self._by_edge[p.edge]
        piece = pieces[bisect_left(pieces, t, key=_window_end)]  # the first ending at or past t
        table = piece.table
        if piece.t1 == t or not table:
            return piece.p1
        e, u0, u1, x0, x1 = table[bisect_left(table, t, key=_end)]
        return self.domain.edge_point(e, u0 + (u1 - u0) * (t - x0) / (x1 - x0))

    def image(self) -> Subtree:
        """The exact image of the whole tree, as a subtree."""
        if self._image is None:
            self._image = self.image_of_subtree(self.domain.full_subtree())
        return self._image

    def image_of_subtree(self, sub: Subtree) -> Subtree:
        """Exact image of a closed subtree, built in one pass.

        Each vertex adds its image and each single point its value.  An
        interval adds the segments of the pieces it meets in positive
        length, found by bisecting the edge's piece windows (`_meeting`),
        each table cut to the interval (`_cut`).
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
            pieces = self._by_edge[eid]
            for lo, hi in intervals:
                if lo == hi:
                    add_point(self.evaluate(tree.edge_point(eid, lo)))
                    continue
                for piece in pieces[_meeting(pieces, lo, hi)]:
                    table = piece.table
                    if not table:
                        add_point(piece.p0)
                        continue
                    if lo > piece.t0 or hi < piece.t1:
                        table = _cut(table, max(lo, piece.t0), min(hi, piece.t1))
                    segs += [(e, u0, u1) if u0 <= u1 else (e, u1, u0) for e, u0, u1, _, _ in table]
        return Subtree.build(tree, segs, verts)

    # -- normal form ---------------------------------------------------------

    def normalize(self) -> "PLTreeMap":
        """Remove breakpoints where adjacent pieces continue the same traversal.

        Pieces A->B and B->C continue one traversal when they run at the
        same speed and do not turn back at B (see `_continues`); in a tree
        they then form the arc [A, C].  A merged run keeps the speed and
        last segment of its last piece, so neighbouring pieces decide.
        A run becomes one piece whose table is its pieces' tables joined
        (`_joined`); a piece that continues neither neighbour is kept
        (`_merged`).
        """
        edges = self.domain._edges
        by_edge = {eid: _merged(edges, pieces) for eid, pieces in self._by_edge.items()}
        if sum(map(len, by_edge.values())) == self.piece_count:
            return self  # no breakpoint dropped
        return _new(PLTreeMap)._from_pieces(self.domain, by_edge)

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
        the first pair of pieces i < j whose image arcs meet at distinct
        preimages of the canonical point of their meet.  Arcs in a tree
        meet in an arc, each non-constant piece is injective, and a point
        inside a window is the preimage for that piece alone; so i and j
        collide unless their arcs are disjoint or meet only in f(x) for a
        domain point x that ends both windows.  Each arc is read as its
        piece's table segments.

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
        for eid, mine in self._by_edge.items():
            for piece in mine:
                if not piece.table:
                    return (False, (tree.edge_point(eid, piece.t0), tree.edge_point(eid, piece.t1)))
        marked = self._marked()
        if not marked:
            return (True, None)
        first, *later = marked
        pairs = (self._collision(*first, *piece) for piece in later)
        return (False, next(pair for pair in pairs if pair is not None))

    def _marked(self) -> list:
        """The pieces, as (edge, piece) in edge order, of a map with no constant piece
        that collide with another: those overlapping another in positive length, and
        those in a bucket of one image point holding two preimages."""
        edges = self.domain._edges
        marked = set()
        by_edge: dict = {}
        pieces = chain.from_iterable(self._by_edge.values())
        for i, piece in enumerate(pieces):  # rationals compared by cross products
            for eid, u0, u1, _, _ in piece.table:
                up = u0._numerator * u1._denominator < u1._numerator * u0._denominator
                by_edge.setdefault(eid, []).append((u0, u1, i) if up else (u1, u0, i))
        for segs in by_edge.values():
            segs.sort(key=_low)  # any order of ties gives the same marks
            _, reach, holder = segs[0]  # the farthest segment end so far
            for lo, hi, i in segs[1:]:
                rn, rd = reach._numerator, reach._denominator
                if lo._numerator * rd < rn * lo._denominator:
                    marked.update((i, holder))
                if hi._numerator * rd > rn * hi._denominator:
                    reach, holder = hi, i
        if not marked:
            return []
        preimages: dict = {}  # image position -> [(piece, its preimage there)]
        pieces = [(eid, piece) for eid, mine in self._by_edge.items() for piece in mine]
        for i, (eid, piece) in enumerate(pieces):
            # a window end's image is where the table starts or ends, its
            # preimage an edge end vertex or an edge position; a vertex the
            # path passes through has its preimage inside the window, named
            # by the piece alone
            (e0, u0, *_), (e1, _, u1, *_) = piece.table[0], piece.table[-1]
            for q, t in ((_place(edges, e0, u0), piece.t0), (_place(edges, e1, u1), piece.t1)):
                preimages.setdefault(q, []).append((i, _place(edges, eid, t)))
            for aeid, _, u1, _, _ in piece.table[:-1]:
                preimages.setdefault(_place(edges, aeid, u1), []).append((i, i))
        for hits in preimages.values():
            if len({x for _, x in hits}) > 1:
                marked.update(i for i, _ in hits)
        return [pieces[i] for i in sorted(marked)]

    def _collision(self, ea, a: _Piece, eb, b: _Piece):
        """(x, y) with x in a's window on the edge ea and y in b's on eb, distinct,
        both sent to the canonical point of the two image arcs' meet; None when
        the arcs are disjoint or that point has one preimage, a window end of both."""
        q = _meet_point(self.domain, a.table, b.table)
        if q is None:
            return None
        xa, xb = self._preimage_in_piece(ea, a, q), self._preimage_in_piece(eb, b, q)
        return None if xa == xb else (xa, xb)

    def _preimage_in_piece(self, eid, piece: _Piece, q: TreePoint) -> TreePoint:
        """The point of the window of a piece over the edge eid sent to q, a point
        of its image, read off the segment that holds q: the one on q's edge, or
        one that starts or ends at the vertex q (a path runs over an edge once)."""
        edges = self.domain._edges
        for e, u0, u1, x0, x1 in piece.table:
            u, w, _ = edges[e]
            at = q.t if q.edge == e else ZERO if q.vertex == u else ONE if q.vertex == w else None
            if at is None or q.edge is None and at != u0 and at != u1:
                continue
            x = x0 if at == u0 else x1 if at == u1 else x0 + (at - u0) * (x1 - x0) / (u1 - u0)
            return self.domain.edge_point(eid, x)

    # -- iteration ----------------------------------------------------------------

    def iterate(self, n: int, piece_cap: int = DEFAULT_PIECE_CAP) -> "PLTreeMap":
        """The n-th compositional power, by squaring, with a piece budget."""
        _at_least("n", n, 0, "iteration count must be nonnegative")
        _at_least_one(piece_cap=piece_cap)
        if n == 0:
            return identity_map(self.domain)
        return built(*self.power_factors(n, piece_cap), piece_cap, "iterate")

    def power_factors(self, n: int, piece_cap: int = DEFAULT_PIECE_CAP) -> tuple:
        """(outer, inner) with f^n = outer . inner, or (None, f) for n = 1.

        The powers are made by squaring, as `iterate` makes them: every
        composition but the last is built, within the budget, and the
        last is left to the caller as its two factors.
        """
        _at_least("n", n, 1, "power must be at least 1")
        _at_least_one(piece_cap=piece_cap)

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


def _continues(edges, a: _Piece, b: _Piece) -> bool:
    """Same speed, and no turn back at the shared breakpoint: both pieces
    constant, or a's last segment and b's first at one arclength per unit
    of domain parameter.  On one edge the lengths cancel, and equal
    products of the steps and the positive windows have one sign: the two
    run the same way."""
    if not a.table or not b.table:
        return not a.table and not b.table
    ea, u0, u1, xa0, xa1 = a.table[-1]
    eb, v0, v1, xb0, xb1 = b.table[0]
    if ea == eb:
        return (u1 - u0) * (xb1 - xb0) == (v1 - v0) * (xa1 - xa0)
    du, dv = u1 - u0, v1 - v0
    return abs(du) * edges[ea][2] * (xb1 - xb0) == abs(dv) * edges[eb][2] * (xa1 - xa0)


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


def _meet_point(tree: MetricTree, a: tuple, b: tuple):
    """The canonical point (`_canonical_point`) of the meet of two
    non-constant pieces' arcs, read off their tables a and b; None when
    the arcs are disjoint.  An arc runs over an edge at most once, so the
    meet is an arc, a point or nothing: with length, the point is the
    midpoint of the shared interval on the least edge (tree order) where
    it has length; else it ends a segment of each arc.
    """
    mine = {eid: (u0, u1) if u0 < u1 else (u1, u0) for eid, u0, u1, _, _ in a}
    best = None
    for eid, v0, v1, _, _ in b:
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
    ends = {_place(edges, eid, t) for eid, u0, u1, _, _ in a for t in (u0, u1)}
    for eid, v0, v1, _, _ in b:
        for t in (v0, v1):
            if _place(edges, eid, t) in ends:
                return tree.edge_point(eid, t)
    return None


def _canonical_point(tree: MetricTree, sub: Subtree) -> TreePoint:
    """A deterministic representative of a nonempty set: the midpoint of
    the first interval of positive length that opens an edge, else its
    least corner by `point_key`: the vertex with the least `str` id, else
    the low end of the first interval on the first edge listed."""
    for eid, intervals in sub.segments.items():
        lo, hi = intervals[0]
        if lo < hi:
            return tree.edge_point(eid, (lo + hi) / 2)
    if sub.vertices:
        return tree.vertex_point(min(sub.vertices, key=str))
    eid, intervals = next(iter(sub.segments.items()))
    return tree.edge_point(eid, intervals[0][0])


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

    Each inner piece is cut wherever its image path crosses a vertex or
    an outer breakpoint; between cuts the composite is again a
    constant-speed traversal (`_compose_piece`).  The result is built
    from those pieces, merged as `normalize` merges (`_merged`): nothing
    in it is looked up in the tree again.
    """
    if inner.domain != outer.domain:
        raise PreconditionError("composed maps must live on the same tree")
    edges = inner.domain._edges
    by_edge = {
        eid: _merged(edges, [new for piece in pieces for new in _compose_piece(outer, piece)])
        for eid, pieces in inner._by_edge.items()
    }
    return _new(PLTreeMap)._from_pieces(inner.domain, by_edge)


def _compose_piece(outer: PLTreeMap, piece: _Piece) -> list:
    """The pieces of outer . piece: one per outer piece each inner segment
    meets, with that outer piece's table cut to the segment's window
    (`_cut`), read in reverse and turned round where the segment runs its
    edge backwards.  On a segment from x0 to x1 the inner map runs its
    edge from u0 to u1 affinely, so each cut and each carried outer
    segment end y lies at x0 + (y - u0) * rate, rate = (x1 - x0) / (u1 -
    u0), worked out only when one falls inside the segment."""
    table = piece.table
    if not table:
        q = outer.evaluate(piece.p0)
        return [_Piece(piece.t0, piece.t1, q, q, ())]
    point = outer.domain.edge_point
    out = []
    ta = piece.t0
    for aeid, u0, u1, x0, x1 in table:
        rate = None  # inner parameter per unit of aeid's parameter
        opieces = outer._by_edge[aeid]
        forward = u0 < u1
        lo, hi = (u0, u1) if forward else (u1, u0)
        met = opieces[_meeting(opieces, lo, hi)]
        for op in met if forward else reversed(met):
            whole_a, whole_b = op.t0 >= lo, op.t1 <= hi
            a = op.t0 if whole_a else lo
            b = op.t1 if whole_b else hi
            # the cut where this piece ends: a vertex the inner path passes,
            # the inner piece's end, or an outer breakpoint
            end = b if forward else a
            if end == u1:
                tb = x1
            else:
                if rate is None:
                    rate = (x1 - x0) / (u1 - u0)
                tb = x0 + (end - u0) * rate
            if not op.table:
                out.append(_Piece(ta, tb, op.p0, op.p0, ()))
                ta = tb
                continue
            cut = op.table if whole_a and whole_b else _cut(op.table, a, b)
            p0 = op.p0 if whole_a else point(cut[0][0], cut[0][1])
            p1 = op.p1 if whole_b else point(cut[-1][0], cut[-1][2])
            if not forward:  # each entry's last field is where it ends in the inner direction
                cut = [(e, w1, w0, y1, y0) for e, w0, w1, y0, y1 in reversed(cut)]
                p0, p1 = p1, p0
            if len(cut) > 1 and rate is None:
                rate = (x1 - x0) / (u1 - u0)
            # each entry ends at its outer end carried back, the last at tb
            xs = [ta, *(x0 + (y - u0) * rate for _, _, _, _, y in cut[:-1]), tb]
            new = tuple((e, w0, w1, xa, xb) for (e, w0, w1, _, _), xa, xb in zip(cut, xs, xs[1:]))
            out.append(_Piece(ta, tb, p0, p1, new))
            ta = tb
    return out


def _merged(edges, pieces) -> tuple:
    """The pieces over one edge, each run that continues one traversal joined (`_joined`)."""
    out = []
    run = [pieces[0]]
    for a, b in zip(pieces, pieces[1:]):
        if _continues(edges, a, b):
            run.append(b)
        else:
            out.append(_joined(run))
            run = [b]
    out.append(_joined(run))
    return tuple(out)


def _joined(run: list) -> _Piece:
    """One piece for a run of pieces that continue one traversal: their
    tables laid end to end, the path between the run's ends since none
    turns back (`_continues`), a segment continued across a junction made
    one from the earlier entry's start to the later one's end."""
    first, last = run[0], run[-1]
    if len(run) == 1:
        return first
    table = first.table  # a constant run stays at its one point
    if table:
        segs = list(table)
        for piece in run[1:]:
            more = piece.table
            if segs[-1][0] == more[0][0]:  # one segment across the junction
                e, u0, _, x0, _ = segs[-1]
                _, _, u1, _, x1 = more[0]
                segs[-1] = (e, u0, u1, x0, x1)
                segs.extend(more[1:])
            else:
                segs.extend(more)
        table = tuple(segs)
    return _Piece(first.t0, last.t1, first.p0, last.p1, table)


# -- fixed points of a composition ----------------------------------------------


def cut_count(outer: PLTreeMap, inner: PLTreeMap) -> int:
    """The number of pieces `compose(outer, inner)` cuts before it
    normalizes: one per constant inner piece, and one per outer piece
    each inner table segment meets.  Normalizing only merges pieces, so
    the composite has at most this many."""
    n = 0
    for piece in chain.from_iterable(inner._by_edge.values()):
        if not piece.table:
            n += 1
            continue
        for aeid, u0, u1, _, _ in piece.table:
            lo, hi = (u0, u1) if u0 < u1 else (u1, u0)
            met = _meeting(outer._by_edge[aeid], lo, hi)
            n += met.stop - met.start
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

    A vertex is fixed when its image is itself.  A fixed point t inside
    an edge e lies in a cut `compose` would make: a segment y = a1 t + b1
    of an inner piece over e, on an edge a, across an outer segment z =
    a2 y + b2 over a whose image lies on e (their `_line`s; a2 = 0 for a
    constant outer piece).  The outer segments over a are indexed by
    image edge when a is first met (`_by_image_edge`), each line worked
    out when its segment is first met.  t is fixed exactly
    when y is fixed by y -> a1 (a2 y + b2) + b1, at y* = (a1 b2 + b1) / (1
    - a1 a2), and then t = a2 y* + b2; so y* is tested on the part [ya,
    yb] of a both segments cover, and carried to t only when it lies
    there.  With a1 a2 = 1 every point is fixed or none is.  With no outer
    factor, the inner table's own segment on e is solved.  Windows are
    closed, so a point where two cuts meet is found by both and merged by
    `Subtree.build`.
    """
    tree = inner.domain
    if outer is not None and outer.domain != tree:
        raise PreconditionError("composed maps must live on the same tree")
    segs = []
    verts = []
    known = {}  # outer's value at each point off the vertices, once per solve

    def value(p):
        """outer(p), or p with no outer factor; a point off the vertices evaluated once."""
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
    index = {}  # outer's segments over a domain edge, by image edge
    for eid, pieces in inner._by_edge.items():
        for piece in pieces:
            if not piece.table:
                q = value(piece.p0)
                if q.edge == eid:
                    _solve(segs, eid, ZERO, q.t, piece.t0, piece.t1)
                continue
            for seg in piece.table:
                aeid, u0, u1, _, _ = seg
                if outer is None:
                    if aeid == eid:
                        _solve(segs, eid, *_line(seg))
                    continue
                by_image = index.get(aeid)
                if by_image is None:
                    by_image = index[aeid] = _by_image_edge(outer, aeid)
                met = by_image.get(eid)
                if met is None:
                    continue
                y0s, y1s, entries = met
                lo, hi = (u0, u1) if u0 < u1 else (u1, u0)
                # the outer segments whose closed windows meet [lo, hi]
                met = entries[bisect_left(y1s, lo) : bisect_right(y0s, hi)]
                if not met:
                    continue
                a1, b1, _, _ = _line(seg)
                for entry in met:
                    line = entry[1]
                    if line is None:
                        line = entry[1] = _line(entry[0])
                    a2, b2, y0, y1 = line
                    ya = y0 if y0 > lo else lo  # ya <= yb: the windows meet
                    yb = y1 if y1 < hi else hi
                    alpha = a1 * a2
                    if alpha == ONE:
                        if a1 * b2 + b1 == ZERO:
                            ta, tb = (ya - b1) / a1, (yb - b1) / a1
                            segs.append((eid, ta, tb) if ta < tb else (eid, tb, ta))
                        continue
                    y = (a1 * b2 + b1) / (ONE - alpha)
                    if ya <= y <= yb:
                        x = a2 * y + b2
                        segs.append((eid, x, x))
    return Subtree.build(tree, segs, verts)


def _by_image_edge(f: PLTreeMap, eid) -> dict:
    """f's table segments over the domain edge eid by image edge, as (window starts, window
    ends, entries), increasing since a path runs over an edge once; a constant piece whose
    value lies inside an edge is the segment standing at it over the piece's window.  An
    entry is [segment, its line once met]."""
    index = {}
    for piece in f._by_edge[eid]:
        table = piece.table
        q = piece.p0
        if not table and not q.is_vertex:
            table = ((q.edge, q.t, q.t, piece.t0, piece.t1),)
        for seg in table:
            y0s, y1s, entries = index.setdefault(seg[0], ([], [], []))
            y0s.append(seg[3])
            y1s.append(seg[4])
            entries.append([seg, None])
    return index


def _line(seg: tuple) -> tuple:
    """(alpha, beta, x0, x1): a table segment covers the window [x0, x1]
    of its piece's parameter, where the image lies on the segment's edge
    at parameter alpha * t + beta."""
    _, u0, u1, x0, x1 = seg
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
    the identity there and constant at its ends beyond it.  An edge the
    hull holds in no interval of positive length retracts to one point,
    where its end u does (`MetricTree.vertex_retractions`).  The pieces
    are assembled as they stand (`PLTreeMap._from_pieces`); none merge.
    """
    where = tree.vertex_retractions(hull)
    by_edge = {}
    for eid in tree.edge_ids:
        ivs = hull.segments.get(eid, ())
        if ivs and ivs[0][0] < ivs[0][1]:
            ((lo, hi),) = ivs
            a, b = tree.edge_point(eid, lo), tree.edge_point(eid, hi)
            mine = (_Piece(lo, hi, a, b, ((eid, lo, hi, lo, hi),)),)
            if lo > ZERO:
                mine = (_Piece(ZERO, lo, a, a, ()), *mine)
            if hi < ONE:
                mine = (*mine, _Piece(hi, ONE, b, b, ()))
        else:
            q = where[tree.edge_ends(eid)[0]]
            mine = (_Piece(ZERO, ONE, q, q, ()),)
        by_edge[eid] = mine
    return _new(PLTreeMap)._from_pieces(tree, by_edge)


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
    _at_least("n", n, 1, "need at least one step")
    _at_least_one(piece_cap=piece_cap)
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
