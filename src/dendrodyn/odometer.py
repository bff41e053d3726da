"""Adding machines over trees: addresses, the add-one map, and cycle towers.

An adding machine of type (m_0, ..., m_k) is the space of digit tuples
(j_0, ..., j_k) with j_i < m_i and j_{i+1} = j_i mod m_i, acted on by
coordinatewise add-one.  Tree maps imitate this structure through nested
cycles of sets: at each depth the complement of the periodic points
breaks into components the map permutes cyclically, and the index chain
of a point through those components is its address.

Everything is finite-depth: a finite tree only ever shows a truncation
of the tower, so fullness is certified per depth, never asserted in the
limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dynamics import CheckResult, Witness, _periodic_levels
from .errors import ConsistencyError, PreconditionError, StructureError
from .plmap import DEFAULT_PIECE_CAP, PLTreeMap
from .tree import Component, TreePoint


@dataclass(frozen=True, slots=True)
class OdometerType:
    """A strictly increasing divisibility chain of periods."""

    periods: tuple

    def __post_init__(self):
        ms = tuple(int(m) for m in self.periods)
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
    """A digit tuple of a given type; validity is checked separately."""

    type: OdometerType
    digits: tuple

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(int(j) for j in self.digits))


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


def _locator(comps):
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

    def locate(p: TreePoint):
        key = ("vertex", p.vertex) if p.is_vertex else ("edge", p.edge)
        return next((i for i in filed.get(key, ()) if comps[i].contains(p)), None)

    return locate


@dataclass(frozen=True, slots=True)
class CycleOfSets:
    """Components cyclically permuted by the map at one depth.

    `sets[i]` maps into `sets[(i + 1) % period]` and touches the removed
    periodic set in the single point `sets[i].attachment`.
    `level` records the power bound that produced the removed set.
    """

    level: int
    period: int
    sets: tuple
    _locate: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_locate", _locator(self.sets))

    def index_of(self, x: TreePoint):
        """The index of the first set holding x, or None."""
        return self._locate(x)


def _follow_cycle(f: PLTreeMap, comps, locate, start: Component):
    """Order the components reachable from `start` by repeated application
    of the map.  `locate` is the `_locator` of `comps`, the components of
    the complement of P = Fix(f) ∪ ... ∪ Fix(f^n).

    Each set maps into the next one, with no check needed.  f is
    injective (`detect_cycles_of_sets` refuses any other map).  It maps
    each Fix(f^k) into itself, and onto it, since x = f(f^(k-1)(x)) there;
    so f(P) = P.  A point y off P then has f(y) off P, or f(y) = f(z) for
    some z in P and y = z.  So f carries a component C into one component,
    the one holding f of C's representative point, and by continuity its
    closure into that component's closure.  The tests assert this
    containment on towers, the shift and random homeomorphisms.

    A set of a tower hangs off the periodic set at a single point; a
    component on the cycle that touches it at any other number of points
    (an open arc between two fixed points, say) means there is no tower.
    """

    def attachment(comp: Component) -> TreePoint:
        if len(comp.boundary) != 1:
            raise PreconditionError(
                f"a component on the cycle touches the periodic set at "
                f"{len(comp.boundary)} points, so it is no set of an adding machine"
            )
        return comp.boundary[0]

    cycle = [start]
    cur = start
    while True:
        i = locate(f.evaluate(cur.repr_point))
        if i is None:
            raise ConsistencyError("image point escaped every component")
        nxt = comps[i]
        if f.evaluate(attachment(cur)) != attachment(nxt):
            raise ConsistencyError(
                "attachment points are not carried onto each other"
            )
        if nxt is start:
            return tuple(cycle)
        if len(cycle) == len(comps):
            raise ConsistencyError("component orbit never returns to its start")
        cycle.append(nxt)
        cur = nxt


def detect_cycles_of_sets(
    f: PLTreeMap, depth: int, piece_cap: int = DEFAULT_PIECE_CAP
) -> tuple:
    """Nested cycles of components of the complement of the periodic set.

    For each n up to `depth` the points of period at most n are removed
    and the component containing the root is followed around its cycle.
    Levels that do not refine the previous period are dropped, so the
    returned periods strictly increase.  The root is the first component
    (in `components_minus` order) of the deepest level that has any.
    The tree is split once per distinct periodic set.
    A component on a followed cycle that touches the removed set at other
    than one point raises `PreconditionError`: no tower passes through it.
    """
    if depth < 1:
        raise PreconditionError("depth must be at least 1")
    injective, pair = f.is_injective()
    if not injective:
        raise PreconditionError(
            f"cycle detection needs an injective map; {pair[0]} and {pair[1]} collide"
        )
    tree = f.domain

    # each distinct periodic set once, with the first power giving it: a
    # repeat has the same components, so the same cycle
    levels = []  # (n, removed, components, their locator)
    full = tree.full_subtree()
    for n, _, removed in _periodic_levels(f, depth, piece_cap):
        if removed == full:
            break
        if not levels or removed != levels[-1][1]:
            comps = tree.components_minus(removed)
            levels.append((n, removed, comps, _locator(comps)))
    if not levels:
        return ()

    anchor = levels[-1][2][0].repr_point
    out = []
    last_period = 0
    for n, _, comps, locate in levels:
        i = locate(anchor)
        if i is None:
            raise ConsistencyError("the root chain broke between depths")
        cycle = _follow_cycle(f, comps, locate, comps[i])
        if len(cycle) <= last_period:
            continue
        last_period = len(cycle)
        out.append(CycleOfSets(level=n, period=len(cycle), sets=cycle))
    return tuple(out)


def address_of(cycles, x: TreePoint) -> OdometerAddress:
    """The index chain of a point through the nested cycles."""
    if not cycles:
        raise PreconditionError("no cycle levels to address against")
    digits = []
    for cyc in cycles:
        hit = cyc.index_of(x)
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
    label: str  # "weak" | "topological weak" | "topological (full)"
    openness_ok: bool
    chains_ok: bool
    disjoint_ok: bool
    full_ok: bool
    detected_periods: tuple


def _meet_only_at_boundaries(tree, sets) -> bool:
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
    holders: dict = {}  # point -> indices of the closures holding it
    by_edge: dict = {}
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


def _is_branch(tree, comp: Component) -> bool:
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


def classify_adding_machine(cycles) -> AddingMachineReport:
    """Grade the tower evidence at its available depth.

    Openness asks whether each set is a whole branch of the tree minus
    its own attachment point, read off the set's closure alone (see
    `_is_branch`); the chain check demands every deepest set be
    non-empty; disjointness lets closures meet only at attachments.  All
    three together justify "topological"; "full" needs the deepest
    period to exhaust the address space of the detected type.

    Each level costs time linear in the tree, and disjointness is one
    sweep over all the deepest closures (see `_meet_only_at_boundaries`).
    """
    if not cycles:
        raise PreconditionError("no cycle levels to classify")
    tree = cycles[0].sets[0].closure.tree

    # a list, not a generator: every set's attachment is read, in order
    openness_ok = all([
        not comp.closure.is_empty() and _is_branch(tree, comp)
        for cyc in cycles
        for comp in cyc.sets
    ])

    deepest = cycles[-1]
    chains_ok = all(not c.closure.is_empty() for c in deepest.sets)
    disjoint_ok = _meet_only_at_boundaries(tree, deepest.sets)

    periods = tuple(c.period for c in cycles)
    distinct = {c.closure for c in deepest.sets}
    full_ok = chains_ok and disjoint_ok and len(distinct) == deepest.period

    if not (openness_ok and chains_ok and disjoint_ok):
        label = "weak"
    elif full_ok:
        label = "topological (full)"
    else:
        label = "topological weak"
    return AddingMachineReport(
        label=label,
        openness_ok=openness_ok,
        chains_ok=chains_ok,
        disjoint_ok=disjoint_ok,
        full_ok=full_ok,
        detected_periods=periods,
    )
