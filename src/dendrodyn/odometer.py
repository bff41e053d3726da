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
    closure into that component's closure.  In particular f of C's
    representative point is off P, so `locate` finds the component that
    holds it.  The tests assert both on every tower they detect, among
    them those of the shift and of random homeomorphisms.

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
        nxt = comps[locate(f.evaluate(cur.repr_point))]
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

    The root's point lies in a set of every level: it is off the deepest
    periodic set, and each shallower one is a subset of it, as P_n is a
    running union.
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
        cycle = _follow_cycle(f, comps, locate, comps[locate(anchor)])
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
