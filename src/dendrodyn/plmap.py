"""Piecewise-linear self-maps of finite metric trees.

A map is described per edge by breakpoints 0 = t_0 < ... < t_k = 1
with a target point at each; between consecutive breakpoints the edge
piece traverses the unique arc joining the two images at constant speed.
Every map sends a tree into itself.  Composition, iteration,
injectivity, and fixed-point sets are computed exactly, so every answer
here is a decision, not an approximation.

`PLTreeMap.image_of_subtree` is the one image routine: the image of the
whole tree and of an arc are that routine on the full subtree and on the
arc's subtree.  Each map also carries the fixed sets of its powers once
`dynamics.fixed_set` has computed them; the power maps are not kept.

`project_onto` composes a map with the nearest-point retraction onto a
connected subtree.  `find_periodic_in_hull` starts from that retraction
and composes with f n times, which equals f^n on the hull and stays
constant on each component off it, so the fixed points of f^n in the
hull come from pieces over the hull alone.
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
    as_fraction,
)

DEFAULT_PIECE_CAP = 100_000


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
        return self.p0 == self.p1

    def param_at_arclength(self, s: Fraction) -> Fraction:
        return self.t0 + (self.t1 - self.t0) * s / self.arc.length

    def arclength_at_param(self, t: Fraction) -> Fraction:
        return self.arc.length * (t - self.t0) / (self.t1 - self.t0)


class PLTreeMap:
    """An exact piecewise-linear self-map of a metric tree.

    `table` maps each edge id to its breakpoint list; breakpoints are
    ``(t, point)`` pairs with the point in the same tree.
    """

    __slots__ = ("domain", "_table", "_vimg", "_pieces", "_edge_index", "_image", "_fixed_sets")

    def __init__(self, domain: MetricTree, table):
        clean: dict = {}
        vimg: dict = {}
        for eid in domain.edge_ids:
            if eid not in table:
                raise StructureError(f"no breakpoints for edge {eid!r}")
            raw = list(table[eid])
            if len(raw) < 2:
                raise StructureError(f"edge {eid!r} needs at least two breakpoints")
            bps = []
            for t, p in raw:
                t = as_fraction(t)
                domain.validate_point(p)
                bps.append((t, p))
            if bps[0][0] != ZERO or bps[-1][0] != ONE:
                raise StructureError(f"edge {eid!r} breakpoints must span [0, 1]")
            for (ta, _), (tb, _) in zip(bps, bps[1:]):
                if not ta < tb:
                    raise StructureError(f"edge {eid!r} breakpoints must increase")
            clean[eid] = tuple(bps)
            u, w = domain.edge_ends(eid)
            for v, img in ((u, bps[0][1]), (w, bps[-1][1])):
                if vimg.setdefault(v, img) != img:
                    raise StructureError(f"edges disagree on the image of vertex {v!r}")
        if len(domain.edge_ids) == 0:
            # a single-vertex domain is a bare point assignment
            only = domain.vertex_ids[0]
            img = table.get(only) if isinstance(table, dict) else None
            if img is None:
                raise StructureError("single-vertex domain needs its vertex image")
            domain.validate_point(img)
            vimg[only] = img
        else:
            extra = set(table) - set(domain.edge_ids)
            if extra:
                raise StructureError(
                    f"breakpoints for unknown edges: {sorted(map(str, extra))}"
                )

        pieces = []
        edge_index = {}
        for eid in domain.edge_ids:
            bps = clean[eid]
            mine = tuple(
                _Piece(eid, t0, t1, p0, p1, domain.arc(p0, p1))
                for (t0, p0), (t1, p1) in zip(bps, bps[1:])
            )
            pieces.extend(mine)
            edge_index[eid] = (tuple(t for t, _ in bps), mine)

        self.domain = domain
        self._table = clean
        self._vimg = vimg
        self._pieces = tuple(pieces)
        # per edge: breakpoint parameters, and the pieces between them
        self._edge_index = edge_index
        self._image = None
        self._fixed_sets = {}  # (n, piece_cap) -> fixed set, kept by dynamics.fixed_set

    # -- inspection --------------------------------------------------------

    @property
    def piece_count(self) -> int:
        return len(self._pieces)

    def breakpoints(self, eid) -> tuple:
        self.domain._edge(eid)
        return self._table[eid]

    def __repr__(self):
        return f"PLTreeMap({self.piece_count} pieces)"

    # -- evaluation ---------------------------------------------------------

    def vertex_image(self, v) -> TreePoint:
        if v not in self._vimg:
            raise StructureError(f"unknown vertex: {v!r}")
        return self._vimg[v]

    def evaluate(self, p: TreePoint) -> TreePoint:
        self.domain.validate_point(p)
        if p.is_vertex:
            return self._vimg[p.vertex]
        params, pieces = self._edge_index[p.edge]
        # the first piece with p.t <= t1, so a breakpoint belongs to the
        # piece that ends there
        return self._eval_in_piece(pieces[bisect_left(params, p.t, 1) - 1], p.t)

    def orbit(self, p: TreePoint, length: int) -> list:
        """p, f(p), ..., f^length(p)."""
        out = [p]
        for _ in range(length):
            out.append(self.evaluate(out[-1]))
        return out

    def image(self) -> Subtree:
        """The exact image of the whole tree, as a subtree."""
        if self._image is None:
            self._image = self.image_of_subtree(self.domain.full_subtree())
        return self._image

    def image_of_arc(self, arc: Arc) -> Subtree:
        """Exact image of an arc of the tree."""
        return self.image_of_subtree(arc.as_subtree())

    def image_of_subtree(self, sub: Subtree) -> Subtree:
        """Exact image of a closed subtree, built in one pass.

        Each vertex adds its image and each single point its value.  An
        interval adds the image arcs of the pieces it meets in positive
        length, found by bisecting the edge's breakpoints and cut to the
        interval; a piece it covers whole adds its stored arc.
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
                        arc = tree.arc(*(self._eval_in_piece(piece, t) for t in ends))
                    segs += [(e, u0, u1) if u0 <= u1 else (e, u1, u0) for e, u0, u1 in arc.segments]
        return Subtree.build(tree, segs, verts)

    def _eval_in_piece(self, piece: _Piece, t: Fraction) -> TreePoint:
        if piece.is_constant:
            return piece.p0
        return piece.arc.point_at(piece.arclength_at_param(t))

    # -- normal form and equality --------------------------------------------

    def normalize(self) -> "PLTreeMap":
        """Remove breakpoints where adjacent pieces continue the same traversal.

        A breakpoint B between pieces A->B and B->C is redundant when B
        lies on the arc [A, C] and both pieces run at the same speed;
        the merged piece then traverses [A, C] at constant speed.
        """
        d = self.domain.distance
        table: dict = {}
        changed = False
        for eid, bps in self._table.items():
            out = [bps[0]]
            for t, p in bps[1:]:
                while len(out) >= 2:
                    t0, a = out[-2]
                    t1, b = out[-1]
                    dab, dbc = d(a, b), d(b, p)
                    if dab + dbc != d(a, p):
                        break
                    if dab * (t - t1) != dbc * (t1 - t0):
                        break
                    out.pop()
                    changed = True
                out.append((t, p))
            table[eid] = tuple(out)
        if not changed:
            return self
        return PLTreeMap(self.domain, table)

    def equals(self, other: "PLTreeMap") -> bool:
        """Pointwise equality, decided through normal forms."""
        if not isinstance(other, PLTreeMap):
            raise PreconditionError("can only compare PL maps")
        if self.domain != other.domain:
            return False
        a = self.normalize()
        b = other.normalize()
        return a._table == b._table and a._vimg == b._vimg

    def is_identity(self) -> bool:
        return self.equals(identity_map(self.domain))

    # -- injectivity -----------------------------------------------------------

    def is_injective(self) -> tuple:
        """Exact decision, with a witness pair of distinct points on failure.

        A sweep decides: the map is injective exactly when no piece is
        constant and no two pieces' image arcs overlap in positive length.
        Only when the sweep finds a collision does the pairwise scan run,
        so the witness is always the one `_first_collision` picks.
        """
        if self._sweep_is_injective():
            return (True, None)
        return self._first_collision()

    def _sweep_is_injective(self) -> bool:
        """Bucket image segments by edge, sort, compare neighbours.

        Overlaps of positive length are the only collisions to look for,
        because the domain is connected.  Say f(x) = f(y) with x != y and
        no piece constant; f maps the arc [x, y] onto a closed path in the
        tree.  Take a point z of that path inside an edge, off f(x)
        and off every breakpoint image.  The path cannot turn at z, so it
        changes sides of z at each visit, and it has to visit z twice to
        get back.  Each piece is injective, so two distinct pieces pass
        through z, and both image arcs cover a neighbourhood of z.
        """
        by_edge: dict = {}
        for piece in self._pieces:
            if piece.is_constant:
                return False
            for eid, u0, u1 in piece.arc.segments:
                by_edge.setdefault(eid, []).append((u0, u1) if u0 < u1 else (u1, u0))
        for segs in by_edge.values():
            segs.sort()
            for (_, hi), (lo, _) in zip(segs, segs[1:]):
                if lo < hi:
                    return False
        return True

    def _first_collision(self) -> tuple:
        """The pairwise scan: the first pair of pieces, in order, that collide.

        A constant piece is immediately non-injective.  Otherwise every
        pair of pieces whose image arcs meet is examined at one canonical
        shared image point; comparing the exact preimages there finds a
        collision whenever any exists.
        """
        for piece in self._pieces:
            if piece.is_constant:
                x1 = self.domain.edge_point(piece.edge, piece.t0)
                x2 = self.domain.edge_point(piece.edge, piece.t1)
                return (False, (x1, x2))
        subs = [p.arc.as_subtree() for p in self._pieces]
        n = len(self._pieces)
        for i in range(n):
            for j in range(i + 1, n):
                meet = subs[i].intersect(subs[j])
                if meet.is_empty():
                    continue
                q = _canonical_point(self.domain, meet)
                xi = self._preimage_in_piece(self._pieces[i], q)
                xj = self._preimage_in_piece(self._pieces[j], q)
                if xi != xj:
                    if self.evaluate(xi) != self.evaluate(xj):
                        raise ConsistencyError("witness images disagree")
                    return (False, (xi, xj))
        raise ConsistencyError("the sweep found a collision the pairwise scan did not")

    def _preimage_in_piece(self, piece: _Piece, q: TreePoint) -> TreePoint:
        s = piece.arc.arclength_of(q)
        return self.domain.edge_point(piece.edge, piece.param_at_arclength(s))

    # -- fixed points ------------------------------------------------------------

    def fixed_point_set(self) -> Subtree:
        """All points with f(x) = x, exactly; may be empty or disconnected."""
        tree = self.domain
        segs = []
        verts = []
        for v, img in self._vimg.items():
            if img == tree.vertex_point(v):
                verts.append(v)
        for piece in self._pieces:
            eid = piece.edge
            if piece.is_constant:
                u = _param_on_edge(tree, piece.p0, eid)
                if u is not None and piece.t0 <= u <= piece.t1:
                    segs.append((eid, u, u))
                continue
            length = tree.edge_length(eid)
            rate = piece.arc.length / (piece.t1 - piece.t0)
            offsets = piece.arc.segment_offsets
            for k, (aeid, u0, u1) in enumerate(piece.arc.segments):
                if aeid != eid:
                    continue
                c = offsets[k]
                lam = offsets[k + 1] - c
                sign = 1 if u1 > u0 else -1
                # u(t) = u0 + sign*(rate*(t - t0) - c)/length on the window
                alpha = Fraction(sign) * rate / length
                beta = u0 - Fraction(sign) * (rate * piece.t0 + c) / length
                x_lo = piece.t0 + c / rate
                x_hi = piece.t0 + (c + lam) / rate
                if alpha == 1:
                    if beta == 0:
                        segs.append((eid, x_lo, x_hi))
                else:
                    x = beta / (1 - alpha)
                    if x_lo <= x <= x_hi:
                        segs.append((eid, x, x))
        return Subtree.build(tree, segs, verts)

    # -- iteration ----------------------------------------------------------------

    def iterate(self, n: int, piece_cap: int = DEFAULT_PIECE_CAP) -> "PLTreeMap":
        """The n-th compositional power, by squaring, with a piece budget."""
        if n < 0:
            raise PreconditionError("iteration count must be nonnegative")
        if n == 0:
            return identity_map(self.domain)

        def guarded(a, b):
            out = compose(a, b)
            if out.piece_count > piece_cap:
                raise ResourceLimitError(
                    f"iterate exceeded the piece budget ({out.piece_count} > {piece_cap})"
                )
            return out

        result = None
        base = self
        k = n
        while k:
            if k & 1:
                result = base if result is None else guarded(result, base)
            k >>= 1
            if k:
                base = guarded(base, base)
        return result


def _param_on_edge(tree: MetricTree, p: TreePoint, eid) -> Fraction | None:
    """Parameter of p on the given edge, or None if it does not lie there."""
    u, w = tree.edge_ends(eid)
    if p.is_vertex:
        if p.vertex == u:
            return ZERO
        if p.vertex == w:
            return ONE
        return None
    return p.t if p.edge == eid else None


def _canonical_point(tree: MetricTree, sub: Subtree) -> TreePoint:
    """A deterministic representative: first interval midpoint, else a corner."""
    for eid in sorted(sub.segments, key=str):
        lo, hi = sub.segments[eid][0]
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
    if not tree.edge_ids:
        only = tree.vertex_ids[0]
        table[only] = images[only]
    return PLTreeMap(tree, table)


def compose(outer: PLTreeMap, inner: PLTreeMap) -> PLTreeMap:
    """The exact composition outer(inner(.)), refined and normalized.

    Each inner piece is cut wherever its image arc crosses a vertex or
    an outer breakpoint; between cuts the composite is again a
    constant-speed arc traversal, so the result is a valid PL map.
    """
    if inner.domain != outer.domain:
        raise PreconditionError("composed maps must live on the same tree")
    tree = outer.domain
    table: dict = {}
    for eid in tree.edge_ids:
        bps: list = []
        for (t0, p0), (t1, p1) in zip(inner._table[eid], inner._table[eid][1:]):
            piece_bps = _compose_piece(outer, tree, t0, p0, t1, p1)
            if bps:
                piece_bps = piece_bps[1:]  # shared breakpoint already present
            bps.extend(piece_bps)
        table[eid] = bps
    if not tree.edge_ids:
        only = tree.vertex_ids[0]
        table[only] = outer.evaluate(inner.vertex_image(only))
    return PLTreeMap(tree, table).normalize()


def _compose_piece(outer: PLTreeMap, tree: MetricTree, t0, p0, t1, p1) -> list:
    if p0 == p1:
        q = outer.evaluate(p0)
        return [(t0, q), (t1, q)]
    arc = tree.arc(p0, p1)
    cuts = set()
    offsets = arc.segment_offsets
    for s in offsets[1:-1]:
        cuts.add(s)
    for k, (aeid, u0, u1) in enumerate(arc.segments):
        lo, hi = (u0, u1) if u0 <= u1 else (u1, u0)
        for tb, _ in outer._table[aeid][1:-1]:
            if lo < tb < hi:
                cuts.add(offsets[k] + abs(tb - u0) * tree.edge_length(aeid))
    bps = [(t0, outer.evaluate(p0))]
    for s in sorted(cuts):
        t = t0 + (t1 - t0) * s / arc.length
        bps.append((t, outer.evaluate(arc.point_at(s))))
    bps.append((t1, outer.evaluate(p1)))
    return bps


# -- hulls -------------------------------------------------------------------


def project_onto(f: PLTreeMap, target: Subtree) -> PLTreeMap:
    """Compose f with the nearest-point retraction onto a connected subtree.

    Every piece's image arc meets the target in at most one arclength
    window; before the window the projection is pinned at the entry
    point, inside it the traversal passes through unchanged, after it
    the projection is pinned at the exit point.
    """
    if target.tree != f.domain:
        raise PreconditionError("projection target must live in the map's tree")
    if target.is_empty() or not target.is_connected():
        raise PreconditionError("projection target must be nonempty and connected")
    tree = f.domain
    table: dict = {}
    for eid in tree.edge_ids:
        bps: list = []
        for (t0, p0), (t1, p1) in zip(f._table[eid], f._table[eid][1:]):
            part = _project_piece(tree, target, t0, p0, t1, p1)
            if bps:
                part = part[1:]
            bps.extend(part)
        table[eid] = bps
    if not tree.edge_ids:
        only = tree.vertex_ids[0]
        table[only] = tree.retract(target, f.vertex_image(only))
    return PLTreeMap(tree, table).normalize()


def _project_piece(tree: MetricTree, target: Subtree, t0, p0, t1, p1) -> list:
    if p0 == p1:
        q = tree.retract(target, p0)
        return [(t0, q), (t1, q)]
    arc = tree.arc(p0, p1)
    hits = target.intersect_arc(arc)
    if not hits:
        q = tree.retract(target, p0)
        return [(t0, q), (t1, q)]
    if len(hits) > 1:
        raise ConsistencyError("connected target met an arc in several windows")
    s1, s2 = hits[0]
    a1, a2 = arc.point_at(s1), arc.point_at(s2)
    span = t1 - t0
    bps = [(t0, a1)]
    ta = t0 + span * s1 / arc.length
    tb = t0 + span * s2 / arc.length
    if ta > t0:
        bps.append((ta, a1))
    if tb > ta:
        bps.append((tb, a2))
    if t1 > tb:
        bps.append((t1, a2))
    if bps[-1][0] != t1:
        bps.append((t1, a2))
    return bps


def find_periodic_in_hull(
    f: PLTreeMap,
    points,
    n: int,
    piece_cap: int = DEFAULT_PIECE_CAP,
) -> TreePoint:
    """A point x in the hull of the given points with f^n(x) = x.

    Requires the n-times-advanced hull to contain the original one.  The
    search starts from the nearest-point retraction r onto the hull and
    composes with f n times.  The result h = f^n . r equals f^n on the
    hull and is constant on each component off it, so only pieces over
    the hull grow, and the fixed points of h in the hull are exactly
    those of f^n there.  The answer is the canonical point of that set:
    the midpoint of its first interval, else its first corner.  A
    composition with more than `piece_cap` pieces raises
    ResourceLimitError.

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
    if not tree.connected_hull(advanced).contains_subtree(hull):
        raise PreconditionError("advanced hull does not cover the original hull")
    h = project_onto(identity_map(tree), hull)
    for _ in range(n):
        h = compose(f, h)
        if h.piece_count > piece_cap:
            raise ResourceLimitError(
                f"hull search exceeded the piece budget ({h.piece_count} > {piece_cap})"
            )
    fixed = h.fixed_point_set().intersect(hull)
    if fixed.is_empty():
        raise ConsistencyError("no fixed point of the n-th iterate in the hull")
    return _canonical_point(tree, fixed)
