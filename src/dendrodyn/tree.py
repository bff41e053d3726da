"""Finite metric trees with exact rational edge lengths.

A tree is a finite connected acyclic graph whose edges carry positive
rational lengths.  Points live either at a vertex or strictly inside an
edge, addressed by a rational parameter in (0, 1); the parameter values
0 and 1 normalize to the incident vertex, so point equality is plain
structural equality.  Every pair of points is joined by a unique arc,
and all derived notions (distance, separation, hulls, retractions, the
contacts of a complement component) are computed exactly in rational
arithmetic.
No floating point enters any computation in this module.

Where a point lies is read off positions, not summed distances.  One
rooting numbers the vertices in preorder, and a point's position is its
lower vertex with the share of that vertex's parent edge it sits up
(`MetricTree._position`); its key is its place in the preorder of points.
The branch of the tree minus a point that holds another is a window of
keys (`branch_window`), so membership is two comparisons of keys.  In a
tree x lies on the arc [a, b] exactly when it is an end or separates a
from b, so `on_arc` asks whether a and b lie in different branches at x,
and `first_separated` takes the points outside the branch that holds its
second argument.  The walk toward the root to the first point of a
closed set it meets (`first_met`, which a retraction returns) compares
positions.  This module is the one that reads the rooting.  `distance`
is the length of the arc between two points.

Every rational the program makes is a `_Q`, a `fractions.Fraction`
whose arithmetic and comparisons with its own kind, `Fraction` and
`int` skip `Fraction`'s generic dispatch: `as_fraction`, `ZERO` and
`ONE` hand them out, and whatever is computed from them stays one.
Each of its `+ - * /` is one method frame that runs `Fraction`'s own
formulas, Knuth's, inline, and each reverse operator runs the forward
one on its left operand made a `_Q`.  A tree keeps each edge as the
plain tuple (u, w, length), and the path between two points is one
walk that reads the rooting's tables directly and does no arithmetic
(`MetricTree._path`): an `Arc` sums its segments' lengths, and a map's
table constructor reads the segments.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_left, bisect_right
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import accumulate
from math import gcd
from typing import Iterable, Mapping, Sequence

from .errors import PreconditionError, StructureError, _at_least_one

# -- exact rationals: `_Q` ------------------------------------------------------

_new = object.__new__


def _q(n: int, d: int) -> _Q:
    """The rational n/d for coprime n and d > 0, built as it stands."""
    x = _new(_Q)
    x._numerator = n
    x._denominator = d
    return x


def _reverse(op, fallback):
    def reverse(b, a):  # a op b, with b the _Q: a made a _Q runs the forward op
        ta = type(a)
        if ta is Fraction:
            return op(_q(a._numerator, a._denominator), b)
        if ta is int:
            return op(_q(a, 1), b)
        return fallback(b, a)

    return reverse


def _comparison(cmp, fallback):
    def compare(a, b):
        tb = type(b)
        if tb is _Q or tb is Fraction:
            return cmp(a._numerator * b._denominator, b._numerator * a._denominator)
        if tb is int:
            return cmp(a._numerator, b * a._denominator)
        return fallback(a, b)

    return compare


class _Q(Fraction):
    """A `Fraction` with a fast path for exact operands.

    When the other operand's type is exactly `_Q`, `Fraction` or `int`,
    `+ - * /` (either side), `-`, `abs`, `==` and the order comparisons
    read the numerators and denominators directly, reduce with the gcd
    formulas `Fraction` uses (Knuth's), and build a `_Q` without
    normalizing again.  Each forward operator is one frame: it picks its
    operand apart, runs the formula and builds its result inline.  A
    reverse operator, rare in the program, makes its `int` or `Fraction`
    left operand a `_Q` and runs the forward one.  Any other operand
    (bool, float, Decimal, complex) goes to `Fraction`'s own method.
    Value, `str`, `repr` and `hash` are those of the equal `Fraction`.
    """

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        # what Fraction accepts; its __reduce__ and __copy__ call the class
        f = Fraction(numerator, denominator)
        return _q(f._numerator, f._denominator)

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"

    __hash__ = Fraction.__hash__

    def __eq__(a, b):
        tb = type(b)
        if tb is _Q or tb is Fraction:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if tb is int:
            return a._numerator == b and a._denominator == 1
        return Fraction.__eq__(a, b)

    def __neg__(a):
        return _q(-a._numerator, a._denominator)

    def __abs__(a):
        return _q(abs(a._numerator), a._denominator)

    def __add__(a, b):
        tb = type(b)
        if tb is _Q or tb is Fraction:
            nb, db = b._numerator, b._denominator
        elif tb is int:
            nb, db = b, 1
        else:
            return Fraction.__add__(a, b)
        na, da = a._numerator, a._denominator
        x = _new(_Q)
        g = gcd(da, db)
        if g == 1:
            x._numerator = na * db + da * nb
            x._denominator = da * db
            return x
        s = da // g
        t = na * (db // g) + nb * s
        g2 = gcd(t, g)
        if g2 == 1:
            x._numerator = t
            x._denominator = s * db
        else:
            x._numerator = t // g2
            x._denominator = s * (db // g2)
        return x

    def __sub__(a, b):
        tb = type(b)
        if tb is _Q or tb is Fraction:
            nb, db = b._numerator, b._denominator
        elif tb is int:
            nb, db = b, 1
        else:
            return Fraction.__sub__(a, b)
        na, da = a._numerator, a._denominator
        x = _new(_Q)
        g = gcd(da, db)
        if g == 1:
            x._numerator = na * db - da * nb
            x._denominator = da * db
            return x
        s = da // g
        t = na * (db // g) - nb * s
        g2 = gcd(t, g)
        if g2 == 1:
            x._numerator = t
            x._denominator = s * db
        else:
            x._numerator = t // g2
            x._denominator = s * (db // g2)
        return x

    def __mul__(a, b):
        tb = type(b)
        if tb is _Q or tb is Fraction:
            nb, db = b._numerator, b._denominator
        elif tb is int:
            nb, db = b, 1
        else:
            return Fraction.__mul__(a, b)
        na, da = a._numerator, a._denominator
        g1 = gcd(na, db)
        if g1 > 1:
            na //= g1
            db //= g1
        g2 = gcd(nb, da)
        if g2 > 1:
            nb //= g2
            da //= g2
        x = _new(_Q)
        x._numerator = na * nb
        x._denominator = db * da
        return x

    def __truediv__(a, b):
        tb = type(b)
        if tb is _Q or tb is Fraction:
            nb, db = b._numerator, b._denominator
        elif tb is int:
            nb, db = b, 1
        else:
            return Fraction.__truediv__(a, b)
        na, da = a._numerator, a._denominator
        if not nb:
            raise ZeroDivisionError(f"Fraction({na * db}, 0)")
        g1 = gcd(na, nb)
        if g1 > 1:
            na //= g1
            nb //= g1
        g2 = gcd(db, da)
        if g2 > 1:
            da //= g2
            db //= g2
        x = _new(_Q)
        if nb < 0:
            x._numerator = -na * db
            x._denominator = -nb * da
        else:
            x._numerator = na * db
            x._denominator = nb * da
        return x

    __radd__ = _reverse(__add__, Fraction.__radd__)
    __rsub__ = _reverse(__sub__, Fraction.__rsub__)
    __rmul__ = _reverse(__mul__, Fraction.__rmul__)
    __rtruediv__ = _reverse(__truediv__, Fraction.__rtruediv__)
    __lt__ = _comparison(operator.lt, Fraction.__lt__)
    __le__ = _comparison(operator.le, Fraction.__le__)
    __gt__ = _comparison(operator.gt, Fraction.__gt__)
    __ge__ = _comparison(operator.ge, Fraction.__ge__)


ZERO = _q(0, 1)
ONE = _q(1, 1)


MAX_DIGITS = 1000
_RATIONAL = re.compile(rf"([+-]?[0-9]{{1,{MAX_DIGITS}}})(?:/([0-9]{{1,{MAX_DIGITS}}}))?")


def as_fraction(value) -> Fraction:
    """An exact rational, as a `_Q`, from a Fraction, an int, or a rational string.

    A string must read [sign]digits[/digits] with at most `MAX_DIGITS`
    digits a part: enough for any exact instance, and far below both the
    cost of expanding exponents ("1e100000000") and Python's limit on
    writing long integers back out.  Booleans, floats, decimals and
    padded strings are refused.
    """
    if type(value) is _Q:
        return value
    if isinstance(value, str):
        m = _RATIONAL.fullmatch(value)
        if m is None:
            shown = value if len(value) <= 40 else value[:40] + "..."
            raise StructureError(
                f"not a rational: {shown!r} (want [sign]digits[/digits], "
                f"at most {MAX_DIGITS} digits a part)"
            )
        num, den = m.groups()
        if den is None:  # an integer, in lowest terms as it stands
            return _q(int(num), 1)
        n, d = int(num), int(den)  # the grammar gives d no sign
        if not d:
            raise StructureError(f"not a rational: {value!r}")
        g = gcd(n, d)
        return _q(n // g, d // g)
    if isinstance(value, Fraction):
        return _q(value.numerator, value.denominator)
    if isinstance(value, int) and not isinstance(value, bool):
        return _q(int(value), 1)
    raise StructureError(f"not a rational: {value!r}")


class TreePoint:
    """A point of a metric tree: a vertex, or an interior edge position.

    Exactly one representation is populated.  Interior points satisfy
    0 < t < 1 strictly; constructing boundary parameters goes through
    `MetricTree.edge_point`, which snaps them to the vertex form.

    A hand-written slotted class that behaves as a frozen dataclass of
    the fields (vertex, edge, t) would: the same constructor and checks,
    equality with another `TreePoint` field by field, assignment and
    deletion refused with `dataclasses.FrozenInstanceError`, and copy,
    deepcopy and pickle through the constructor.  Equality tries
    identity first, and the hash reads the vertex id, or the edge id
    with t's numerator and denominator, so it never calls
    `Fraction.__hash__`; equal values of t, whether `_Q` or `Fraction`,
    have the same numerator and denominator.  The tree's `vertex_point`
    and `edge_point` check their arguments themselves and build their
    points with `_point`, which checks nothing again.
    """

    __slots__ = ("vertex", "edge", "t")

    def __init__(self, vertex=None, edge=None, t=None):
        if (vertex is None) == (edge is None):
            raise StructureError("point must be a vertex or an edge position")
        if edge is not None:
            if not isinstance(t, Fraction) or not (ZERO < t < ONE):
                raise StructureError("edge position needs a Fraction t in (0,1)")
        _set_vertex(self, vertex)
        _set_edge(self, edge)
        _set_t(self, t)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (TreePoint, (self.vertex, self.edge, self.t))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not TreePoint:
            return NotImplemented
        a, b = self.t, other.t
        return self.vertex == other.vertex and self.edge == other.edge and (a is b or a == b)

    def __hash__(self):
        if self.edge is None:
            return hash(self.vertex)
        t = self.t
        return hash((self.edge, t._numerator, t._denominator))

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None

    def __repr__(self):
        if self.is_vertex:
            return f"TreePoint(vertex={self.vertex!r})"
        return f"TreePoint(edge={self.edge!r}, t={str(self.t)})"


_set_vertex = TreePoint.vertex.__set__
_set_edge = TreePoint.edge.__set__
_set_t = TreePoint.t.__set__


def _point(vertex, edge, t) -> TreePoint:
    """The point with these fields, already checked: no `__init__`."""
    p = _new(TreePoint)
    _set_vertex(p, vertex)
    _set_edge(p, edge)
    _set_t(p, t)
    return p


def point_key(p: TreePoint):
    """Deterministic sort key for points; vertices order before edge points."""
    if p.is_vertex:
        return (0, str(p.vertex), ZERO)
    return (1, str(p.edge), p.t)


class MetricTree:
    """Immutable finite metric tree.

    `edges` is an iterable of ``(edge_id, (u, w), length)`` triples; the
    orientation u -> w fixes which end the edge parameter 0 refers to.
    Vertex and edge ids may be any hashable values with distinct `str`
    forms (serialization uses strings throughout).  Each edge is kept as
    the plain tuple (u, w, length), and each vertex once, as a key of the
    adjacency, with no vertex set beside it.
    """

    __slots__ = (
        "_edges", "_adj", "_vkeys", "_ekeys", "_up", "_tin", "_tout",
        "_kids", "_grids", "_order",
    )

    def __init__(self, vertices: Iterable, edges: Iterable):
        vs = list(vertices)
        adj: dict[object, list] = {v: [] for v in vs}
        if len(adj) != len(vs):
            raise StructureError("duplicate vertex ids")
        if not vs:
            raise StructureError("a tree needs at least one vertex")
        edict: dict[object, tuple] = {}
        for item in edges:
            try:
                eid, (u, w), length = item
            except (TypeError, ValueError) as exc:
                raise StructureError(f"bad edge record: {item!r}") from exc
            if eid in edict:
                raise StructureError(f"duplicate edge id: {eid!r}")
            if u not in adj or w not in adj:
                raise StructureError(f"edge {eid!r} references unknown vertex")
            if u == w:
                raise StructureError(f"edge {eid!r} is a self-loop")
            if type(length) is not _Q:
                length = as_fraction(length)
            if length._numerator <= 0:
                raise StructureError(f"edge {eid!r} needs positive length")
            edict[eid] = (u, w, length)
            adj[u].append((eid, w))
            adj[w].append((eid, u))
        if len(edict) != len(vs) - 1:
            raise StructureError("edge count must be vertex count minus one")

        self._edges = edict
        self._adj = {v: tuple(nbrs) for v, nbrs in adj.items()}
        self._vkeys = tuple(sorted(vs, key=str))
        self._ekeys = tuple(sorted(edict, key=str))

        # One rooting, linear in the vertex count: each vertex keeps its
        # parent edge and the preorder window [tin, tout) that numbers
        # exactly its subtree, so "u is an ancestor of w" is two integer
        # comparisons.
        root = self._vkeys[0]
        up = {root: None}
        order = []
        stack = [root]
        while stack:
            x = stack.pop()
            order.append(x)
            for eid, y in self._adj[x]:
                if y not in up:
                    up[y] = (x, eid)
                    stack.append(y)
        if len(order) != len(vs):
            raise StructureError("tree is not connected")
        # A subtree's window ends where its last vertex in preorder does.
        # Walking the preorder backwards meets that vertex first, and a
        # parent first through its last child, which hands the end up.
        tout = {}
        for i in range(len(order) - 1, 0, -1):
            x = order[i]
            end = tout.setdefault(x, i + 1)  # a leaf's own slot, else set by its last child
            tout.setdefault(up[x][0], end)
        tout[root] = len(order)
        self._up = up
        self._order = tuple(order)  # a window [tin, tout) is the slice it numbers
        self._tin = {x: i for i, x in enumerate(order)}
        self._tout = tout
        self._kids = {}  # vertex -> its children's windows (tin, tout), made on first use
        self._grids = {}  # per_edge -> grid_points(per_edge), made on first use

    # -- basic accessors -------------------------------------------------

    @property
    def vertex_ids(self) -> tuple:
        return self._vkeys

    @property
    def edge_ids(self) -> tuple:
        return self._ekeys

    def edge_ends(self, eid) -> tuple:
        return self._edge(eid)[:2]

    def edge_length(self, eid) -> Fraction:
        return self._edge(eid)[2]

    def degree(self, v) -> int:
        if v not in self._adj:
            raise StructureError(f"unknown vertex: {v!r}")
        return len(self._adj[v])

    def has_vertex(self, v) -> bool:
        return v in self._adj

    def has_edge(self, eid) -> bool:
        return eid in self._edges

    def _edge(self, eid) -> tuple:
        try:
            return self._edges[eid]
        except KeyError:
            raise StructureError(f"unknown edge: {eid!r}") from None

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, MetricTree):
            return NotImplemented
        return self._adj.keys() == other._adj.keys() and self._edges == other._edges

    __hash__ = None

    def __repr__(self):
        return f"MetricTree({len(self._adj)} vertices, {len(self._edges)} edges)"

    # -- points ----------------------------------------------------------

    def vertex_point(self, v) -> TreePoint:
        if v not in self._adj:
            raise StructureError(f"unknown vertex: {v!r}")
        return _point(v, None, None)

    def edge_point(self, eid, t) -> TreePoint:
        """Point at parameter t on an edge; t=0 and t=1 give the vertex form."""
        u, w, _ = self._edge(eid)
        if type(t) is not _Q:
            t = as_fraction(t)
        n, d = t._numerator, t._denominator  # in lowest terms, d > 0
        if 0 < n < d:
            return _point(None, eid, t)
        if n == 0:
            return _point(u, None, None)
        if n == d:
            return _point(w, None, None)
        raise StructureError(f"parameter {t} outside [0,1] on edge {eid!r}")

    def validate_point(self, p: TreePoint) -> TreePoint:
        if p.__class__ is not TreePoint and not isinstance(p, TreePoint):
            raise StructureError(f"not a TreePoint: {p!r}")
        if p.vertex is not None:
            if p.vertex not in self._adj:
                raise StructureError(f"point references unknown vertex: {p.vertex!r}")
        elif p.edge not in self._edges:
            raise StructureError(f"unknown edge: {p.edge!r}")
        return p

    # -- metric ----------------------------------------------------------

    def _position(self, p: TreePoint) -> tuple:
        """p's position in the rooting: its lower vertex w, and the share
        of w's parent edge p sits up it, 0 for w itself and in (0, 1)
        inside the edge.  Distinct points have distinct positions, and two
        points with one lower vertex lie in the order of their shares.
        """
        if p.edge is None:
            return (p.vertex, ZERO)
        u, w, _ = self._edges[p.edge]
        if self._tin[w] > self._tin[u]:
            return (w, ONE - p.t)
        return (u, p.t)

    def _child_window(self, v, w) -> tuple:
        """The window (tin, tout) of the child of v whose subtree holds w,
        for a vertex w strictly below v.  Each vertex's children windows
        are listed in preorder once, on first use, and bisected."""
        kids = self._kids.get(v)
        if kids is None:
            tin, tout = self._tin, self._tout
            kids = self._kids[v] = sorted(
                (tin[x], tout[x]) for _, x in self._adj[v] if tin[x] > tin[v]
            )
        return kids[bisect_left(kids, (self._tin[w] + 1,)) - 1]

    # -- branches at a point -----------------------------------------------
    #
    # A point's key is its place in the rooting's preorder of points: its
    # lower vertex's preorder number, then minus its share up that vertex's
    # parent edge (`_position`).  So the closed part of the tree below a point
    # a with lower vertex w, a and all it sits above, is the keys in
    # [key(a), (tout[w], -1)), and the part below a vertex v through one
    # child c is the keys strictly between (tin[c], -1) and (tout[c], -1).

    def key(self, x: TreePoint) -> tuple:
        """x's place in the rooting's preorder of points."""
        w, h = self._position(x)
        return (self._tin[w], -h)

    def branch_window(self, a: TreePoint, r: TreePoint) -> tuple:
        """(lo, hi, up) for the branch of the tree minus a that holds r != a.
        A branch below a holds the keys strictly between lo and hi: a child's
        window when a is a vertex, else the part below a on its edge and
        under.  The branch up toward the root (up true) holds every key
        outside [lo, hi), the closed part below a."""
        (wa, ha), (wr, hr) = self._position(a), self._position(r)
        ka, kr = (self._tin[wa], -ha), (self._tin[wr], -hr)
        end = (self._tout[wa], -1)
        if not ka < kr < end:
            return (ka, end, True)
        if a.edge is None:
            c_in, c_out = self._child_window(wa, wr)
            return ((c_in, -1), (c_out, -1), False)
        return (ka, end, False)

    @staticmethod
    def in_branch(window: tuple, k: tuple) -> bool:
        """Whether the point with key k lies in the branch of `window`."""
        lo, hi, up = window
        return not lo <= k < hi if up else lo < k < hi

    def branch(self, a: TreePoint, window: tuple) -> tuple:
        """The vertices of the branch at a with this window, and its edge
        intervals (eid, lo, hi).

        The window's preorder slice, or the rest of the preorder for the
        branch up toward the root, is the branch's vertices, as a new list.
        Each but the root brings its parent edge, and the branch up brings
        the edge just above a's lower vertex too: whole, or on a's own edge
        the part on the branch's side of a.
        """
        lo, hi, up = window
        order, parent = self._order, self._up
        verts = list(order[: lo[0]] + order[hi[0] :] if up else order[lo[0] : hi[0]])
        eids = [parent[y][1] for y in verts if parent[y] is not None]
        low = self._position(a)[0]
        if up and parent[low] is not None:
            eids.append(parent[low][1])
        pieces = []
        for eid in eids:
            if eid != a.edge:
                pieces.append((eid, ZERO, ONE))
            elif (self._edges[eid][1] == low) != up:  # the branch runs to parameter 1
                pieces.append((eid, a.t, ONE))
            else:
                pieces.append((eid, ZERO, a.t))
        return verts, pieces

    def distance(self, a: TreePoint, b: TreePoint) -> Fraction:
        """The length of the arc from a to b."""
        return self.arc(a, b).length

    # -- arcs ------------------------------------------------------------

    def arc(self, a: TreePoint, b: TreePoint) -> "Arc":
        """The unique arc from a to b, as an ordered edge-segment traversal:
        both points validated, the segments of `_path`, and each segment's
        share of its edge times the edge's length summed into the offsets."""
        self.validate_point(a)
        self.validate_point(b)
        segs = self._path(a, b)
        edges = self._edges
        offsets = (ZERO, *accumulate(abs(u1 - u0) * edges[e][2] for e, u0, u1 in segs))
        return Arc(self, a, b, tuple(segs), offsets)

    def _path(self, a: TreePoint, b: TreePoint) -> list:
        """The segments (edge, from, to) of the arc from a to b, two valid
        points, with no arithmetic: the walk `arc` and a map's table
        constructor read.  It reads the rooting inline, starting at a's
        lower vertex, or for a point inside an edge at the end the arc
        leaves it by: the lower end exactly when b lies below it.  It ends
        at b's lower vertex, or at the end the arc enters b's edge by: the
        lower end exactly when the walk starts below it.  In between it
        climbs parent edges until it stands on an ancestor of its end, then
        runs down the end's parent edges, read climbing and reversed.
        """
        if a == b:
            return []
        edges, tin, tout, up = self._edges, self._tin, self._tout, self._up
        ea, eb = a.edge, b.edge
        if ea is not None and ea == eb:
            return [(ea, a.t, b.t)]
        segs: list[tuple] = []
        if eb is None:
            end = b.vertex
        else:
            bu, bw, _ = edges[eb]
            end = bw if tin[bw] > tin[bu] else bu  # b's lower vertex
        if ea is None:
            x = a.vertex
        else:
            u, w, _ = edges[ea]
            low, high = (w, u) if tin[w] > tin[u] else (u, w)
            x = low if tin[low] <= tin[end] < tout[low] else high
            segs.append((ea, a.t, ZERO if x == u else ONE))
        if eb is not None and not tin[end] <= tin[x] < tout[end]:
            end = bu if end == bw else bw
        at = tin[end]
        while not tin[x] <= at < tout[x]:
            p, eid = up[x]
            segs.append((eid, ZERO, ONE) if x == edges[eid][0] else (eid, ONE, ZERO))
            x = p
        k = len(segs)
        y = end
        while y != x:
            p, eid = up[y]
            segs.append((eid, ZERO, ONE) if p == edges[eid][0] else (eid, ONE, ZERO))
            y = p
        if len(segs) > k + 1:  # read climbing from the end: reverse them
            segs[k:] = segs[k:][::-1]
        if eb is not None:
            segs.append((eb, ZERO if end == bu else ONE, b.t))
        return segs

    def on_arc(self, x: TreePoint, a: TreePoint, b: TreePoint) -> bool:
        """Whether x lies on the closed arc [a, b]: x is a or b, or it
        separates them, so that a and b lie in different branches of the
        tree minus x (`branch_window`)."""
        for p in (x, a, b):
            self.validate_point(p)
        if x == a or x == b:
            return True
        return not self.in_branch(self.branch_window(x, a), self.key(b))

    def first_separated(self, points: Sequence[TreePoint]):
        """A query (t, y) -> the least i with t strictly inside the arc from
        points[i] to y, or None; t and y must differ.

        That holds when points[i] differs from t and lies in another
        branch of the tree minus t than y does.  In the sorted keys of the
        points (`key`), the branch that holds y is one run or, for the
        branch up toward the root, everything but one run
        (`branch_window`), so the other branches are at most three runs
        with t's own key left out.  A sparse table gives the least index
        in each run, so a query is a few bisections and range minima.
        """
        keyed = sorted((self.key(self.validate_point(p)), i) for i, p in enumerate(points))
        keys = [k for k, _ in keyed]
        table = [[i for _, i in keyed]]
        while 2 ** len(table) <= len(keyed):
            prev, span = table[-1], 2 ** (len(table) - 1)
            table.append([min(prev[j], prev[j + span]) for j in range(len(prev) - span)])

        def least(runs):
            best = None
            for lo, hi in runs:
                if lo < hi:
                    k = (hi - lo).bit_length() - 1  # two rows of span 2**k cover the run
                    i = min(table[k][lo], table[k][hi - 2**k])
                    best = i if best is None else min(best, i)
            return best

        def query(t: TreePoint, y: TreePoint):
            if t == y:
                raise PreconditionError("the separating point must differ from the image")
            lo, hi, up = self.branch_window(self.validate_point(t), self.validate_point(y))
            kt = self.key(t)
            at, past = bisect_left(keys, kt), bisect_right(keys, kt)
            end = bisect_left(keys, hi)
            if up:  # y's branch is all but the closed part [lo, hi) below t: that part, but t
                return least(((past, end),))
            # y's branch is the keys strictly between lo and hi: all the others but t's
            return least(((0, at), (past, bisect_right(keys, lo)), (end, len(keys))))

        return query

    # -- local structure ---------------------------------------------------

    def order_of(self, x: TreePoint) -> tuple[int, str]:
        """Number of components the point's removal leaves, with its class."""
        self.validate_point(x)
        if not x.is_vertex:
            return (2, "cutpoint")
        deg = len(self._adj[x.vertex])
        if deg == 0:
            return (0, "isolated")
        if deg == 1:
            return (1, "endpoint")
        if deg == 2:
            return (2, "cutpoint")
        return (deg, "branchpoint")

    def full_subtree(self) -> "Subtree":
        """The whole tree as a Subtree, in canonical form with no
        `Subtree.build`; each call gets its own per-edge dict and vertex set."""
        return Subtree(self, {eid: ((ZERO, ONE),) for eid in self._ekeys}, frozenset(self._adj))

    def grid_points(self, per_edge: int = 3) -> tuple[TreePoint, ...]:
        """Vertices plus an evenly spaced rational sample inside each edge.

        The tree is immutable, so each sample is built once and kept.
        """
        _at_least_one(per_edge=per_edge)
        if per_edge not in self._grids:
            pts = [self.vertex_point(v) for v in self._vkeys]
            for eid in self._ekeys:
                for i in range(1, per_edge + 1):
                    pts.append(self.edge_point(eid, _Q(i, per_edge + 1)))
            self._grids[per_edge] = tuple(pts)
        return self._grids[per_edge]

    # -- complements -------------------------------------------------------

    def contacts(self, removed: "Subtree", x: TreePoint) -> tuple:
        """The points where the component of the tree minus a closed set
        that holds x, a point off the set, touches it, sorted by `point_key`.

        On each edge the removed intervals leave open gaps.  A gap ends
        either at a contact point or at a free vertex (one outside the
        set), and through a free vertex the component runs on into the
        gap at that vertex on each of its other edges.  So the walk starts
        at x's gap, or at x when it is a vertex, and passes each free
        vertex it reaches once.
        """
        if removed.contains(self.validate_point(x)):
            raise PreconditionError("the point lies in the removed set")
        segments, inside, edges = removed.segments, removed.vertices, self._edges
        found, seen, stack = set(), set(), []

        def reach(eid, lo, hi):
            u, w, _ = edges[eid]
            for t, v in ((lo, u), (hi, w)):
                if ZERO < t < ONE:
                    found.add(_point(None, eid, t))
                elif v in inside:
                    found.add(_point(v, None, None))
                elif v not in seen:
                    seen.add(v)
                    stack.append(v)

        if x.edge is None:
            seen.add(x.vertex)
            stack.append(x.vertex)
        else:
            ivs = segments.get(x.edge, ())
            start = max((b for _, b in ivs if b < x.t), default=ZERO)
            end = min((a for a, _ in ivs if a > x.t), default=ONE)
            reach(x.edge, start, end)
        while stack:
            v = stack.pop()
            for eid, _ in self._adj[v]:
                ivs = segments.get(eid, ())
                if edges[eid][0] == v:  # no interval reaches v, a free end
                    reach(eid, ZERO, ivs[0][0] if ivs else ONE)
                else:
                    reach(eid, ivs[-1][1] if ivs else ZERO, ONE)
        return tuple(sorted(found, key=point_key))

    def first_gap(self, removed: "Subtree"):
        """The midpoint of the first gap, in edge order, that a closed set
        leaves on an edge, or None when it holds every edge, found with no
        tree split."""
        for eid in self._ekeys:
            ends = [ZERO, *(t for iv in removed.segments.get(eid, ()) for t in iv), ONE]
            for lo, hi in zip(ends[::2], ends[1::2]):
                if lo < hi:
                    return _point(None, eid, (lo + hi) / 2)
        return None

    def first_met(self, closed: "Subtree", z: TreePoint) -> TreePoint:
        """The first point of a nonempty closed set met walking from z, a
        point off it, toward the root; when the walk meets none, the set's
        corner first in preorder (`key`).

        The walk reads each parent edge on the way for the set's interval
        end just above it, then the vertex at the edge's top.  Why the
        corner is the answer when the walk meets nothing is the callers'
        to show: `retract` and `odometer._follow_cycle`.
        """
        segments, inside = closed.segments, closed.vertices
        w, share = self._position(z)
        while self._up[w] is not None:
            p, eid = self._up[w]
            at_one = self._edges[eid][1] == w  # w's end of its parent edge is parameter 1
            ends = [(ONE - t if at_one else t, t) for iv in segments.get(eid, ()) for t in iv]
            above = [end for end in ends if end[0] > share]  # (share up from w, parameter)
            if above:
                return self.edge_point(eid, min(above)[1])
            if p in inside:
                return _point(p, None, None)
            w, share = p, ZERO
        return min(closed.corner_points(), key=self.key)

    # -- hulls and retractions ----------------------------------------------

    def connected_hull(self, points: Sequence[TreePoint]) -> "Subtree":
        """Smallest closed connected set containing the given points: the
        union of the paths from the first point to the others, built once."""
        pts = [self.validate_point(p) for p in points]
        if not pts:
            raise PreconditionError("hull needs at least one point")
        first = pts[0]
        segs = [] if first.edge is None else [(first.edge, first.t, first.t)]
        for p in pts[1:]:
            segs += [(e, u0, u1) if u0 <= u1 else (e, u1, u0) for e, u0, u1 in self._path(first, p)]
        return Subtree.build(self, segs, [p.vertex for p in pts if p.edge is None])

    def retract(self, target: "Subtree", z: TreePoint) -> TreePoint:
        """Nearest-point retraction onto a closed connected nonempty subset.

        Returns the unique w in the target with the half-open arc (w, z]
        disjoint from it; the identity on points already inside.  w is
        where a walk from z toward the root first meets the target
        (`first_met`).  When the walk misses the target, the target lies
        below the walk's turning point and is entered through its top
        corner, the one above all the others and so first in preorder.
        """
        if target.is_empty():
            raise PreconditionError("cannot retract onto an empty set")
        if not target.is_connected():
            raise PreconditionError("retraction target must be connected")
        self.validate_point(z)
        if target.contains(z):
            return z
        return self.first_met(target, z)

    def vertex_retractions(self, target: "Subtree") -> dict:
        """Every vertex's `retract` onto a closed connected nonempty set, in
        one preorder pass.  The root is retracted, which checks the set; a
        vertex in the set is itself, and one whose parent edge holds an
        interval of the set meets it on that edge (`first_met`).  Any other
        vertex has the arc up to its parent p miss the set, so it retracts
        where p does."""
        order = self._order
        out = {order[0]: self.retract(target, _point(order[0], None, None))}
        for v in order[1:]:
            p, eid = self._up[v]
            if v in target.vertices:
                out[v] = _point(v, None, None)
            elif eid in target.segments:
                out[v] = self.first_met(target, _point(v, None, None))
            else:
                out[v] = out[p]
        return out


class Arc:
    """An ordered traversal of the unique arc between two points, for
    tree-level callers (`MetricTree.arc`): a map's pieces keep tables of
    their own, not arcs.

    Segments are ``(edge_id, t_from, t_to)`` with exact rational
    parameters; a degenerate arc has no segments.  `offsets` are the
    cumulative arclengths at the segment boundaries, from 0 to the
    length.  Arcs are immutable.
    """

    __slots__ = ("tree", "a", "b", "segments", "length", "offsets")

    def __init__(self, tree: MetricTree, a: TreePoint, b: TreePoint, segments: tuple, offsets: tuple):
        self.tree = tree
        self.a = a
        self.b = b
        self.segments = segments
        self.length = offsets[-1]
        self.offsets = offsets

    def is_degenerate(self) -> bool:
        return not self.segments

    def point_at(self, s: Fraction) -> TreePoint:
        """The point at arclength s from the start, 0 <= s <= length."""
        s = as_fraction(s)
        if s < ZERO or s > self.length:
            raise PreconditionError(f"arclength {s} outside [0, {self.length}]")
        if not self.segments:
            return self.a
        i = bisect_left(self.offsets, s, 1) - 1  # the first segment ending at or past s
        eid, t0, t1 = self.segments[i]
        step = (s - self.offsets[i]) / self.tree.edge_length(eid)
        return self.tree.edge_point(eid, t0 + step if t1 >= t0 else t0 - step)

    def __repr__(self):
        return f"Arc({self.a!r} -> {self.b!r}, length={str(self.length)})"


class Subtree:
    """A closed subset of a tree in canonical interval form.

    Per edge the set is a disjoint union of closed rational intervals
    (merged and sorted; a full edge is [0, 1]), and `segments` lists the
    edges in the tree's edge order; vertices are carried in a separate
    set, and any interval endpoint lying at an edge end has its vertex
    included, so the represented set is genuinely closed.  Equality and
    hash read this canonical form.
    The class itself tolerates disconnected values -- fixed-point sets
    of badly behaved maps are honest unions -- and `is_connected`
    reports which case holds.
    """

    __slots__ = ("tree", "segments", "vertices")

    def __init__(self, tree: MetricTree, segments: Mapping, vertices: frozenset):
        self.tree = tree
        self.segments = segments
        self.vertices = vertices

    @classmethod
    def build(cls, tree: MetricTree, segments: Iterable, vertices: Iterable) -> "Subtree":
        """Canonicalize raw interval and vertex data into a Subtree."""
        by_edge: dict[object, list] = {}
        edges = tree._edges
        for eid, lo, hi in segments:
            if eid not in edges:
                raise StructureError(f"unknown edge: {eid!r}")
            if type(lo) is not _Q:
                lo = as_fraction(lo)
            if type(hi) is not _Q:
                hi = as_fraction(hi)
            # 0 <= lo <= hi <= 1, read off the numerators and the positive denominators
            ln, ld, hn, hd = lo._numerator, lo._denominator, hi._numerator, hi._denominator
            if ln < 0 or hn > hd or ln * hd > hn * ld:
                raise StructureError(f"bad interval [{lo}, {hi}] on edge {eid!r}")
            by_edge.setdefault(eid, []).append((lo, hi))
        verts = set()
        for v in vertices:
            if not tree.has_vertex(v):
                raise StructureError(f"unknown vertex: {v!r}")
            verts.add(v)
        canon: dict[object, tuple] = {}
        for eid in sorted(by_edge, key=str):  # the order of `tree.edge_ids`
            u, w, _ = tree._edges[eid]
            out = []
            for lo, hi in _merge_intervals(by_edge[eid]):
                if lo == ZERO:
                    verts.add(u)
                if hi == ONE:
                    verts.add(w)
                if lo == hi and (lo == ZERO or hi == ONE):
                    continue  # endpoint degenerates live in the vertex set
                out.append((lo, hi))
            if out:
                canon[eid] = tuple(out)
        return cls(tree, canon, frozenset(verts))

    @classmethod
    def empty(cls, tree: MetricTree) -> "Subtree":
        return cls.build(tree, [], [])

    def __eq__(self, other):
        if not isinstance(other, Subtree):
            return NotImplemented
        return self.vertices == other.vertices and self.segments == other.segments

    def __hash__(self):
        return hash((self.vertices, tuple(self.segments.items())))

    def __repr__(self):
        nseg = sum(len(v) for v in self.segments.values())
        return f"Subtree({len(self.vertices)} vertices, {nseg} segments)"

    def is_empty(self) -> bool:
        return not self.vertices and not self.segments

    def contains(self, p: TreePoint) -> bool:
        if p.is_vertex:
            return p.vertex in self.vertices
        for lo, hi in self.segments.get(p.edge, ()):
            if lo <= p.t <= hi:
                return True
        return False

    def union(self, other: "Subtree") -> "Subtree":
        segs = [(e, lo, hi) for e, ivs in self.segments.items() for lo, hi in ivs]
        segs += [(e, lo, hi) for e, ivs in other.segments.items() for lo, hi in ivs]
        return Subtree.build(self.tree, segs, self.vertices | other.vertices)

    def intersect(self, other: "Subtree") -> "Subtree":
        segs = []
        for eid, ivs in self.segments.items():
            theirs = other.segments.get(eid, ())
            for lo, hi in ivs:
                for a, b in theirs:
                    lo2, hi2 = max(lo, a), min(hi, b)
                    if lo2 <= hi2:
                        segs.append((eid, lo2, hi2))
        return Subtree.build(self.tree, segs, self.vertices & other.vertices)

    def is_connected(self) -> bool:
        """Whether the set is connected; empty counts as connected.

        Vertices and interval segments, linked where a segment reaches an
        edge end (whose vertex the canonical form always carries), form a
        forest inside the tree, so it has nodes minus links components.
        """
        nodes = len(self.vertices)
        links = 0
        for ivs in self.segments.values():
            nodes += len(ivs)
            for lo, hi in ivs:
                links += (lo == ZERO) + (hi == ONE)
        return nodes - links <= 1

    def corner_points(self) -> tuple[TreePoint, ...]:
        """Vertices and interval endpoints, as points, in deterministic order."""
        pts = {self.tree.vertex_point(v) for v in self.vertices}
        for eid, ivs in self.segments.items():
            for lo, hi in ivs:
                pts.add(self.tree.edge_point(eid, lo))
                pts.add(self.tree.edge_point(eid, hi))
        return tuple(sorted(pts, key=point_key))

    def intersect_arc(self, arc: Arc) -> tuple:
        """Intersection with an arc, as closed arclength intervals from arc.a.

        The result is sorted and merged; for a connected subtree it has at
        most one entry, which is how closedness on arcs gets checked.
        """
        hits: list[tuple] = []
        if arc.is_degenerate():
            return ((ZERO, ZERO),) if self.contains(arc.a) else ()
        c = ZERO
        for eid, t0, t1 in arc.segments:
            length = self.tree.edge_length(eid)
            seglen = abs(t1 - t0) * length
            lo_t, hi_t = (t0, t1) if t0 <= t1 else (t1, t0)
            for lo, hi in self.segments.get(eid, ()):
                a, b = max(lo, lo_t), min(hi, hi_t)
                if a > b:
                    continue
                if t0 <= t1:
                    hits.append((c + (a - t0) * length, c + (b - t0) * length))
                else:
                    hits.append((c + (t0 - b) * length, c + (t0 - a) * length))
            for tt, pos in ((t0, c), (t1, c + seglen)):
                if tt == ZERO or tt == ONE:
                    u, w = self.tree.edge_ends(eid)
                    v = u if tt == ZERO else w
                    if v in self.vertices:
                        hits.append((pos, pos))
            c += seglen
        return tuple(_merge_intervals(hits))


def _merge_intervals(intervals: list) -> list:
    """Sort closed intervals in place; return them with those that overlap or touch merged."""
    intervals.sort()
    out: list[tuple] = []
    for lo, hi in intervals:
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out
