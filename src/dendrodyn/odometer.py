"""Adding machines over trees: addresses, the add-one map, and cycle towers.

An adding machine of type (m_0, ..., m_k) is the space of digit tuples
(j_0, ..., j_k) with j_i < m_i and j_{i+1} = j_i mod m_i, acted on by
coordinatewise add-one.  Tree maps imitate this structure through nested
cycles of sets: at each depth the complement of the periodic points
breaks into components the map permutes cyclically, and the index chain
of a point through those components is its address.

Each set of a tower is a whole branch of the tree at its one attachment
(`classify_adding_machine`), so it is named by that point and by a side
of it: a child's preorder window, or up toward the root.  Detection
follows a cycle by sending (attachment, point) to their images and
checks each branch against the periodic set, splitting no tree; a point's
set is found by one bisection over the cycle's windows, and a set's
closure is built from its window only when it is read.

Everything is finite-depth: a finite tree only ever shows a truncation
of the tower, so fullness is certified per depth, never asserted in the
limit.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .dynamics import CheckResult, Witness, _periodic_levels
from .errors import PreconditionError, StructureError, _at_least_one
from .plmap import DEFAULT_PIECE_CAP, PLTreeMap
from .tree import MetricTree, Subtree, TreePoint


@dataclass(frozen=True, slots=True)
class OdometerType:
    """A strictly increasing divisibility chain of periods, each an `int`
    (not a `bool`): nothing is truncated into one."""

    periods: tuple

    def __post_init__(self):
        ms = tuple(self.periods)
        if any(type(m) is not int for m in ms):
            raise StructureError(f"periods must be ints, got {ms!r}")
        object.__setattr__(self, "periods", ms)
        if not ms:
            raise StructureError("an odometer type needs at least one period")
        if any(m < 1 for m in ms):
            raise StructureError("periods must be positive")
        for a, b in zip(ms, ms[1:]):
            if not a < b:
                raise StructureError("periods must strictly increase")
            if b % a:
                raise StructureError(f"period {b} is not a multiple of {a}")

    @property
    def depth(self) -> int:
        return len(self.periods)


@dataclass(frozen=True, slots=True)
class OdometerAddress:
    """A digit tuple of a given type, each an `int` as the periods are;
    validity is checked separately."""

    type: OdometerType
    digits: tuple

    def __post_init__(self):
        js = tuple(self.digits)
        if any(type(j) is not int for j in js):
            raise StructureError(f"digits must be ints, got {js!r}")
        object.__setattr__(self, "digits", js)


def validate_address(a: OdometerAddress) -> bool:
    """Digit ranges plus the compatibility chain, with no exceptions."""
    ms = a.type.periods
    js = a.digits
    if len(js) != len(ms):
        return False
    if any(not 0 <= j < m for j, m in zip(js, ms)):
        return False
    return all(jn % m == j for j, jn, m in zip(js, js[1:], ms))


def tau(a: OdometerAddress) -> OdometerAddress:
    """Add one to every digit modulo its own period."""
    if not validate_address(a):
        raise PreconditionError("address digits violate range or compatibility")
    digits = tuple((j + 1) % m for j, m in zip(a.digits, a.type.periods))
    return OdometerAddress(a.type, digits)


# -- cycles of sets --------------------------------------------------------


def _edge_order(piece) -> str:
    return str(piece[0])


class TowerSet:
    """A set of a detected cycle: the branch of the tree minus its
    attachment that holds its representative point, given by a window
    (`MetricTree.branch_window`).  Detection checks that the branch
    misses the periodic set, so it is a component of the tree minus that
    set with the one boundary point `attachment`.  The representative
    point is the midpoint of the branch's least interval in edge order;
    the closure is built from the window, in canonical form, on each read:
    no caller reads it twice.
    """

    __slots__ = ("tree", "attachment", "repr_point", "window")

    def __init__(self, tree, attachment: TreePoint, repr_point: TreePoint, window: tuple):
        self.tree = tree
        self.attachment = attachment
        self.repr_point = repr_point
        self.window = window

    @property
    def boundary(self) -> tuple:
        return (self.attachment,)

    def contains(self, p: TreePoint) -> bool:
        tree = self.tree
        return tree.in_branch(self.window, tree.key(tree.validate_point(p)))

    @property
    def closure(self) -> Subtree:
        verts, pieces = self.tree.branch(self.attachment, self.window)
        segments = {eid: ((lo, hi),) for eid, lo, hi in sorted(pieces, key=_edge_order)}
        if self.attachment.edge is None:
            verts.append(self.attachment.vertex)
        return Subtree(self.tree, segments, frozenset(verts))

    def __repr__(self):
        return f"TowerSet(attachment={self.attachment!r}, repr_point={self.repr_point!r})"


@dataclass(frozen=True, slots=True)
class CycleOfSets:
    """Sets cyclically permuted by the map at one depth.

    `sets[i]` maps into `sets[(i + 1) % period]` and touches the removed
    periodic set in the single point `sets[i].attachment`.
    `level` records the power bound that produced the removed set.
    """

    level: int
    period: int
    sets: tuple
    _windows: object = field(default=None, init=False, repr=False, compare=False)

    def _index(self, k: tuple):
        """The index of the set holding the point with key k, or None: one
        bisection over the windows of the sets below their attachments,
        which are disjoint, then the one set, if any, that runs up toward
        the root."""
        if self._windows is None:
            below, up = [], None
            for i, s in enumerate(self.sets):
                lo, hi, runs_up = s.window
                if runs_up:
                    up = (s.window, i)
                else:
                    below.append((lo, hi, i))
            below.sort()
            object.__setattr__(self, "_windows", ([lo for lo, _, _ in below], below, up))
        los, below, up = self._windows
        j = bisect_left(los, k) - 1
        if j >= 0 and k < below[j][1]:
            return below[j][2]
        if up is not None and MetricTree.in_branch(up[0], k):
            return up[1]
        return None


def _refuse(tree, removed: Subtree, x: TreePoint):
    """Refuse the component of the tree minus `removed` that holds x,
    which touches it at other than one point, counted by one walk from x
    (`MetricTree.contacts`)."""
    raise PreconditionError(
        f"a component on the cycle touches the periodic set at "
        f"{len(tree.contacts(removed, x))} points, so it is no set of an adding machine"
    )


def _tower_set(tree, removed: Subtree, a: TreePoint, x: TreePoint) -> TowerSet:
    """The set holding x, a point off `removed`, when the branch of the
    tree minus a that holds x misses `removed`, for a in `removed`; else
    the refusal.

    A branch B missing the removed set P is open, connected and closed in
    the tree minus a, so the component of the tree minus P that holds x
    lies in B and is B, with the one boundary point a.  The callers pass
    the only a that can be the attachment of x's component C, so when B
    meets P, C has other than one contact, and is refused.
    """
    window = tree.branch_window(a, x)
    verts, pieces = tree.branch(a, window)
    segments, inside = removed.segments, removed.vertices
    if any(y in inside for y in verts) or any(
        lo < hi_p and lo_p < hi for eid, lo, hi in pieces for lo_p, hi_p in segments.get(eid, ())
    ):
        _refuse(tree, removed, x)
    eid, lo, hi = min(pieces, key=_edge_order)
    return TowerSet(tree, a, tree.edge_point(eid, (lo + hi) / 2), window)


def _follow_cycle(f: PLTreeMap, removed: Subtree, anchor: TreePoint) -> tuple:
    """The cycle of the set holding `anchor`, a point off `removed`, the
    periodic set P = Fix(f) ∪ ... ∪ Fix(f^n), in the order f visits it.

    f is injective (`detect_cycles_of_sets` refuses any other map).  It
    maps each Fix(f^k) into itself, and onto it, since x = f(f^(k-1)(x))
    there; so f(P) = P.  A point y off P then has f(y) off P, or
    f(y) = f(z) for some z in P and y = z.  So f carries a component C of
    the tree minus P into one component, the one holding f of any point
    r of C, and by continuity C's closure into that component's closure.
    The start's attachment is the first point of P met walking from the
    anchor toward the root, else P's corner first in preorder
    (`MetricTree.first_met`).  If the anchor's component C has one
    contact a, C is the branch at a that holds the anchor, so the walk
    runs in C until it leaves it through a; a walk that meets no point of
    P ends at the root, so C holds the root and is the branch up from a,
    P lies in the closed part below a, and a is its corner first in
    preorder.
    The cycle is followed by sending (a, r), a set's attachment and
    representative point, to (f(a), f(r)), checking each new set by
    `_tower_set`:
    - Carried: the next component's closure holds f(a), a point of P, and
      its one point of P is its attachment; so when the next component
      has one contact, it is f(a), and the branch at f(a) holding f(r).
    - Returns: the first set met again is the start.  Say the sets met
      are S_0, S_1, ..., and S_j is the first repeat, S_j = S_i with
      0 < i < j.  Then S_(i-1) != S_(j-1) both map into S_i, and their
      attachments both map to S_i's, so by injectivity they are one
      point a, and the two sets are two branches at a.  Arcs from a into
      each meet only at a, so their images, arcs from f(a), meet only at
      f(a); yet both lie in the closure of S_i, which near f(a) is one
      edge germ, so they overlap there.  So i = 0, and the finitely many
      components of the tree minus P bound the walk.
    The tests assert both on every tower they detect, among them those of
    the shift and of random homeomorphisms (`assert_tower_facts`).

    A set of a tower hangs off the periodic set at a single point; a
    component on the cycle that touches it at any other number of points
    (an open arc between two fixed points, say) means there is no tower,
    and is refused.
    """
    tree = f.domain
    start = _tower_set(tree, removed, tree.first_met(removed, anchor), anchor)
    cycle = [start]
    cur = start
    while True:
        a, r = f.evaluate(cur.attachment), f.evaluate(cur.repr_point)
        if a == start.attachment and start.contains(r):
            return tuple(cycle)
        cur = _tower_set(tree, removed, a, r)
        cycle.append(cur)


def detect_cycles_of_sets(
    f: PLTreeMap, depth: int, piece_cap: int = DEFAULT_PIECE_CAP
) -> tuple:
    """Nested cycles of components of the complement of the periodic set.

    For each n up to `depth` the points of period at most n are removed
    and the component containing the anchor is followed around its
    cycle.  Levels that do not refine the previous period are dropped,
    so the returned periods strictly increase.  The anchor is the
    midpoint of the first gap, in edge order, of the deepest level that
    leaves any.  No tree is split: each set is the branch at its
    attachment on one side, found from the attachment alone and checked
    to miss the periodic set in time linear in its size
    (`_follow_cycle`), so a level costs time linear in the tree.
    A component on a followed cycle that touches the removed set at other
    than one point raises `PreconditionError`: no tower passes through it.

    The anchor lies in a set of every level: it is off the deepest
    periodic set, and each shallower one is a subset of it, as P_n is a
    running union.
    """
    _at_least_one(depth=depth, piece_cap=piece_cap)
    injective, pair = f.is_injective()
    if not injective:
        raise PreconditionError(
            f"cycle detection needs an injective map; {pair[0]} and {pair[1]} collide"
        )
    tree = f.domain

    # each distinct periodic set once, with the first power giving it: a
    # repeat has the same components, so the same cycle
    levels = []  # (n, removed)
    full = tree.full_subtree()
    for n, _, removed in _periodic_levels(f, depth, piece_cap):
        if removed == full:
            break
        if not levels or removed != levels[-1][1]:
            levels.append((n, removed))
    if not levels:
        return ()

    anchor = tree.first_gap(levels[-1][1])
    out = []
    last_period = 0
    for n, removed in levels:
        cycle = _follow_cycle(f, removed, anchor)
        if len(cycle) <= last_period:
            continue
        last_period = len(cycle)
        out.append(CycleOfSets(level=n, period=len(cycle), sets=cycle))
    return tuple(out)


def address_of(cycles, x: TreePoint) -> OdometerAddress:
    """The index chain of a point through the nested cycles."""
    if not cycles:
        raise PreconditionError("no cycle levels to address against")
    tree = cycles[0].sets[0].tree
    k = tree.key(tree.validate_point(x))
    digits = []
    for cyc in cycles:
        hit = cyc._index(k)
        if hit is None:
            raise PreconditionError(
                f"the point is outside every set at level {cyc.level}"
            )
        digits.append(hit)
    otype = OdometerType(tuple(c.period for c in cycles))
    return OdometerAddress(otype, tuple(digits))


def verify_semiconjugacy(f: PLTreeMap, cycles) -> CheckResult:
    """Does applying the map advance every address by one?

    The samples are one point of each deepest set.  Each failure is
    reported with the point and the two addresses that should have matched.
    """
    if not cycles:
        raise PreconditionError("no cycle levels to verify against")
    pts = tuple(c.repr_point for c in cycles[-1].sets)
    failures = []
    for x in pts:
        try:
            before = address_of(cycles, x)
            after = address_of(cycles, f.evaluate(x))
        except PreconditionError as exc:
            failures.append((x, f"address undefined: {exc}"))
            continue
        expected = tau(before)
        if after != expected:
            failures.append(
                (x, f"got {after.digits}, expected {expected.digits}")
            )
    if failures:
        x, why = failures[0]
        return CheckResult(
            status="fail",
            witness=Witness(kind="semiconjugacy-mismatch", points=(x,), detail=why),
            detail=f"{len(failures)} of {len(pts)} samples failed",
        )
    return CheckResult(status="pass", detail=f"{len(pts)} samples advanced correctly")


@dataclass(frozen=True, slots=True)
class AddingMachineReport:
    label: str  # always "topological (full)": see classify_adding_machine
    openness_ok: bool
    chains_ok: bool
    disjoint_ok: bool
    full_ok: bool
    detected_periods: tuple


def classify_adding_machine(cycles) -> AddingMachineReport:
    """Grade the tower evidence at its available depth.

    On cycles from `detect_cycles_of_sets` every flag holds, so the
    grade is "topological (full)" with no set read.  Let C be a set of a
    detected cycle: a component of the tree T minus the closed set P
    that its level removes, with one boundary point a, its attachment
    (`_follow_cycle` admits no other), so its closure is C with a added.
    - Openness: C is open in T, as a component of the open set T minus P
      in a locally connected space, and closed in T minus a, as its
      closure there.  So the connected set C is a whole component of T
      minus a: the branch at a that holds its representative point.
    - Chains: a component is nonempty.
    - Disjointness: distinct components are disjoint, and each closure
      adds only its component's boundary point, so two closures meet
      only at boundary points.
    - Fullness: a cycle lists distinct components, since the next set
      is a function of the current one, so a repeat before the first
      return to the start would never return.  Their closures are
      distinct: if C's closure were D's, the open set C would meet D
      outside D's one boundary point, and so be D.  So each period is
      the number of distinct deepest closures.
    The former per-set and pairwise checks are kept in the tests as
    oracles, asserted on every tower the tests detect.
    """
    if not cycles:
        raise PreconditionError("no cycle levels to classify")
    return AddingMachineReport(
        label="topological (full)",
        openness_ok=True,
        chains_ok=True,
        disjoint_ok=True,
        full_ok=True,
        detected_periods=tuple(c.period for c in cycles),
    )
