"""Orbit structure and the exact recurrence decision for PL tree maps.

The central question answered here: does every point of the tree come
back to itself under iteration?  On a finite tree this is equivalent to
some power of the map being the identity, which makes the question
decidable in exact arithmetic.  The decision procedure never samples
orbits; sampling-based operations exist alongside it to demonstrate,
falsify, and cross-check, and their negatives are horizon-relative.

Every "false" answer ships a witness that can be re-verified with a
handful of evaluate calls, and every check distinguishes a failed
assertion from a hypothesis that never applied (status "skipped").

`fixed_set` is the one path to the fixed set of a power and computes it
once per map; `_walk` is the one orbit walker, whose walked orbit answers
periods, eventual cycles, limit sets and the sampled orbit checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import ConsistencyError, PreconditionError, UndecidedError
from .plmap import DEFAULT_PIECE_CAP, PLTreeMap
from .tree import Component, Subtree, TreePoint, point_key

MAX_PERIOD_DEFAULT = 10_000
HORIZON_DEFAULT = 1_000
ABSOLUTE_POWER_CAP = 1_000_000


@dataclass(frozen=True, slots=True)
class Witness:
    """Checkable evidence for a negative verdict.

    `kind` names what the points demonstrate; re-verification needs only
    evaluate calls on the points, in order.
    """

    kind: str
    points: tuple
    detail: str = ""


@dataclass(frozen=True, slots=True)
class RecurrenceVerdict:
    pointwise_recurrent: bool
    identity_power: int | None = None
    witness: Witness | None = None
    reason: str = ""


@dataclass(frozen=True, slots=True)
class CheckResult:
    """Outcome of a property check: pass, fail with witness, or skipped.

    Skipped means the check's hypothesis did not apply to this map, so
    neither conclusion would be justified.
    """

    status: str  # "pass" | "fail" | "skipped"
    witness: Witness | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status != "fail"


@dataclass(frozen=True, slots=True)
class PeriodicStructure:
    """Fixed sets, their running unions, and vertex periods up to a bound."""

    fixed_sets: dict
    cumulative: dict
    vertex_periods: dict


@dataclass(frozen=True, slots=True)
class OmegaEstimate:
    points: tuple
    exact: bool
    period: int | None = None


def fixed_set(f: PLTreeMap, n: int, piece_cap: int = DEFAULT_PIECE_CAP) -> Subtree:
    """The exact set of points with f^n(x) = x, computed once per map.

    Only this function reads or fills the store on f, keyed (n, piece_cap):
    a smaller budget may raise where a larger one succeeds, and a call that
    raises stores nothing.  The map f^n is not kept: keeping every power
    on the map raised peak memory by about 9% on odometer-tower analyses.
    """
    if n < 1:
        raise PreconditionError("power must be at least 1")
    key = (n, piece_cap)
    if key not in f._fixed_sets:
        f._fixed_sets[key] = f.iterate(n, piece_cap).fixed_point_set()
    return f._fixed_sets[key]


def periodic_union(f: PLTreeMap, n: int, piece_cap: int = DEFAULT_PIECE_CAP) -> Subtree:
    """Union of the fixed sets of the first n powers."""
    out = Subtree.empty(f.domain)
    for k in range(1, n + 1):
        out = out.union(fixed_set(f, k, piece_cap))
    return out


def vertex_period(f: PLTreeMap, v, max_period: int = MAX_PERIOD_DEFAULT) -> int | None:
    """Exact period of a vertex, or None if it is not periodic within the bound.

    The orbit is walked with repetition detection, so a vertex that falls
    into a cycle not containing it is reported non-periodic immediately.
    """
    orbit, back = _walk(f, f.domain.vertex_point(v), max_period)
    return len(orbit) if back == 0 else None


def periodic_structure(
    f: PLTreeMap,
    upto: int,
    max_period: int = MAX_PERIOD_DEFAULT,
    piece_cap: int = DEFAULT_PIECE_CAP,
) -> PeriodicStructure:
    """Fixed sets and cumulative unions for powers 1..upto, plus vertex periods."""
    if upto < 1:
        raise PreconditionError("need at least one power")
    fixed = {}
    cumulative = {}
    acc = Subtree.empty(f.domain)
    for n in range(1, upto + 1):
        fixed[n] = fixed_set(f, n, piece_cap)
        acc = acc.union(fixed[n])
        cumulative[n] = acc
    periods = {v: vertex_period(f, v, max_period) for v in f.domain.vertex_ids}
    return PeriodicStructure(fixed_sets=fixed, cumulative=cumulative, vertex_periods=periods)


# -- the decision procedure ---------------------------------------------------


def decide_pointwise_recurrent(
    f: PLTreeMap,
    max_period: int = MAX_PERIOD_DEFAULT,
    piece_cap: int = DEFAULT_PIECE_CAP,
) -> RecurrenceVerdict:
    """Decide whether every point returns to itself under iteration.

    The route is exact and never walks orbits:

    1. A non-injective map has a collapsing pair; fail with it.
    2. A non-surjective map leaves a gap no orbit re-enters; fail with a
       point of the gap.  (This also covers maps whose endpoint orbits
       wander forever, where a period search would not terminate.)
    3. What remains is a homeomorphism.  It permutes the points of
       non-cutpoint valence (leaves, branch vertices, an isolated
       vertex); N is the least common multiple of their periods, and the
       map is pointwise recurrent exactly when f^N is the identity.
       Otherwise f^N moves some point on an arc whose endpoints it
       fixes, and such a point drifts monotonically, never to return;
       the midpoint of a moved gap is the witness.
    """
    tree = f.domain

    injective, pair = f.is_injective()
    if not injective:
        return RecurrenceVerdict(
            pointwise_recurrent=False,
            witness=Witness(
                kind="non-injective",
                points=pair,
                detail="both points map to the same image; one evaluate call each",
            ),
            reason="not-injective",
        )

    image = f.image()
    full = tree.full_subtree()
    if image != full:
        gaps = tree.components_minus(image)
        q = gaps[0].repr_point
        return RecurrenceVerdict(
            pointwise_recurrent=False,
            witness=Witness(
                kind="escaping-orbit",
                points=(q,),
                detail="the point is outside the image, so no orbit ever revisits it",
            ),
            reason="not-surjective",
        )

    # continuous bijection of a compact tree: a homeomorphism, so the
    # points of valence != 2 are permuted among themselves
    intrinsic = [v for v in tree.vertex_ids if tree.degree(v) != 2]
    images = {}
    for v in intrinsic:
        img = f.vertex_image(v)
        if not img.is_vertex or tree.degree(img.vertex) == 2:
            raise ConsistencyError(
                "a bijective PL map moved a leaf or branch vertex onto a cutpoint"
            )
        images[v] = img.vertex

    cap = min(max_period, ABSOLUTE_POWER_CAP)
    power = 1
    seen = set()
    for v in intrinsic:
        if v in seen:
            continue
        cycle = [v]
        w = images[v]
        while w != v:
            cycle.append(w)
            w = images[w]
        seen.update(cycle)
        power = lcm(power, len(cycle))
        if power > cap:
            raise UndecidedError(
                f"the candidate identity power exceeds the bound ({power} > {cap})"
            )

    h = f.iterate(power, piece_cap)
    if h.is_identity():
        return RecurrenceVerdict(
            pointwise_recurrent=True,
            identity_power=power,
            reason="identity-power",
        )

    moved = tree.components_minus(h.fixed_point_set())
    q = moved[0].repr_point
    if h.evaluate(q) == q:
        raise ConsistencyError("complement of the fixed set contains a fixed point")
    return RecurrenceVerdict(
        pointwise_recurrent=False,
        witness=Witness(
            kind="non-periodic-cutpoint",
            points=(q,),
            detail=(
                f"the {power}-th power moves this point along an arc with "
                "fixed ends, so it drifts one way forever"
            ),
        ),
        reason="power-not-identity",
    )


# -- orbit demonstrations ------------------------------------------------------


def returns_to_components(
    f: PLTreeMap,
    x: TreePoint,
    y: TreePoint,
    power: int = 1,
    horizon: int = HORIZON_DEFAULT,
) -> bool:
    """Whether the f^power-orbit of x re-enters x's own side of the tree
    minus y, within the horizon.  A False is horizon-relative.
    """
    tree = f.domain
    tree.validate_point(x)
    tree.validate_point(y)
    if x == y:
        raise PreconditionError("the separating point must differ from the start")
    z = x
    for _ in range(horizon):
        z = f.orbit(z, power)[-1]
        if z != y and not tree.on_arc(y, z, x):
            return True
    return False


def forward_component(f: PLTreeMap, n: int, x: TreePoint) -> Component:
    """The component of the tree minus x that the n-th image of x lands in.

    Membership in the returned component amounts to: x does not lie on
    the arc from the queried point to f^n(x).
    """
    f.domain.validate_point(x)
    q = f.orbit(x, n)[-1]
    if q == x:
        raise PreconditionError("the point is fixed by the n-th power")
    for comp in f.domain.components_minus_point(x):
        if comp.contains(q):
            return comp
    raise ConsistencyError("image point escaped every component")


def omega_limit_estimate(
    f: PLTreeMap,
    x: TreePoint,
    burn_in: int = 100,
    window: int = 100,
) -> OmegaEstimate:
    """Limit set of an orbit: exact on detected repetition, else a labeled
    estimate consisting of the post-burn-in orbit points."""
    orbit, back = _walk(f, x, burn_in + window)
    if back is None:
        return OmegaEstimate(points=tuple(orbit[burn_in + 1 :]), exact=False)
    return OmegaEstimate(points=tuple(orbit[back:]), exact=True, period=len(orbit) - back)


def _walk(f: PLTreeMap, x: TreePoint, horizon: int):
    """The orbit x, f(x), ... up to its first repeat or `horizon` steps.

    Returns (orbit, back): the next step after the orbit's last point
    lands on `orbit[back]`, or `back` is None when no point repeated
    within the horizon.  The orbit points are distinct.
    """
    seen = {x: 0}
    orbit = [x]
    for _ in range(horizon):
        z = f.evaluate(orbit[-1])
        if z in seen:
            return orbit, seen[z]
        seen[z] = len(orbit)
        orbit.append(z)
    return orbit, None


def _eventual_cycle(f: PLTreeMap, x: TreePoint, horizon: int):
    """(preperiod, period) of an orbit if it repeats within the horizon."""
    orbit, back = _walk(f, x, horizon)
    return None if back is None else (back, len(orbit) - back)


# -- property checks ------------------------------------------------------------


def check_full_invariance(
    f: PLTreeMap,
    samples=None,
    horizon: int = 200,
) -> CheckResult:
    """Surjectivity plus: no sampled point feeds into a periodic orbit
    from outside.  Periodic orbits of such a map own their preimages."""
    tree = f.domain
    if f.image() != tree.full_subtree():
        gap = tree.components_minus(f.image())[0].repr_point
        return CheckResult(
            status="fail",
            witness=Witness(
                kind="escaping-orbit",
                points=(gap,),
                detail="not surjective: the point has no preimage",
            ),
        )
    pts = tuple(samples) if samples is not None else tree.grid_points(3)
    unresolved = 0
    for x in pts:
        orbit, preperiod = _walk(f, x, horizon)
        if preperiod is None:
            unresolved += 1
            continue
        if preperiod > 0:
            return CheckResult(
                status="fail",
                witness=Witness(
                    kind="preperiodic-sample",
                    points=(x, orbit[preperiod]),
                    detail=(
                        f"the sample reaches a period-{len(orbit) - preperiod} orbit "
                        f"after {preperiod} steps without belonging to it"
                    ),
                ),
            )
    detail = f"{unresolved} sample orbits undetermined at horizon {horizon}" if unresolved else ""
    return CheckResult(status="pass", detail=detail)


def check_no_preperiodic(
    f: PLTreeMap,
    max_period: int = MAX_PERIOD_DEFAULT,
    samples=None,
    horizon: int = 200,
) -> CheckResult:
    """No sampled point is strictly preperiodic.  A violation also yields
    a separator lying strictly between the point and where its orbit
    settles, showing the point never comes back to its own side."""
    tree = f.domain
    pts = tuple(samples) if samples is not None else tree.grid_points(3)
    horizon = min(horizon, max_period)
    for x in pts:
        orbit, preperiod = _walk(f, x, horizon)
        if not preperiod:
            continue
        period = len(orbit) - preperiod
        # the least multiple of the period covering the approach: < len(orbit)
        steps = period * -(-preperiod // period)
        r = orbit[steps]
        path = tree.arc(x, r)
        z = path.point_at(path.length / 2)
        return CheckResult(
            status="fail",
            witness=Witness(
                kind="preperiodic-sample",
                points=(x, z, r),
                detail=(
                    f"after {steps} steps the sample rests on its cycle at the "
                    "third point; the second point separates the two forever"
                ),
            ),
        )
    return CheckResult(status="pass")


def check_no_radial_stretch(
    f: PLTreeMap,
    n: int = 1,
    samples=None,
    piece_cap: int = DEFAULT_PIECE_CAP,
) -> CheckResult:
    """No sampled point is pushed radially outward through itself from a
    fixed anchor of the n-th power: the arc [anchor, t] never sits inside
    [anchor, f^n(t)).  Pointwise-recurrent maps can never do this."""
    tree = f.domain
    fixed = fixed_set(f, n, piece_cap)
    anchors = list(fixed.corner_points())
    for eid in sorted(fixed.segments, key=str):
        for lo, hi in fixed.segments[eid]:
            if lo < hi:
                anchors.append(tree.edge_point(eid, (lo + hi) / 2))
    if not anchors:
        return CheckResult(status="skipped", detail="the n-th power has no fixed point")
    h = f.iterate(n, piece_cap)
    pts = tuple(samples) if samples is not None else tree.grid_points(3)
    for anchor in anchors:
        for t in pts:
            if t == anchor:
                continue
            y = h.evaluate(t)
            if y == t:
                continue
            if tree.on_arc(t, anchor, y):
                return CheckResult(
                    status="fail",
                    witness=Witness(
                        kind="radial-stretch",
                        points=(anchor, t, y),
                        detail=(
                            "the middle point lies strictly between the fixed "
                            f"anchor and its image under power {n}"
                        ),
                    ),
                )
    return CheckResult(status="pass")


def check_escape(
    f: PLTreeMap,
    n: int = 1,
    samples=None,
    horizon: int = 100,
    cutpoint_bound: int = 5,
    piece_cap: int = DEFAULT_PIECE_CAP,
) -> CheckResult:
    """For maps with no periodic cutpoints: once a point moves under the
    n-th power, its whole forward orbit under that power stays on the
    far side, in the component of its first image (or back at the point
    itself).  Reports "skipped" when periodic cutpoints exist, since the
    containment claim assumes there are none."""
    tree = f.domain
    periodic = periodic_union(f, cutpoint_bound, piece_cap)
    if periodic.segments or any(tree.degree(v) >= 2 for v in periodic.vertices):
        return CheckResult(
            status="skipped",
            detail=f"periodic cutpoints exist within power {cutpoint_bound}",
        )
    pts = tuple(samples) if samples is not None else tree.grid_points(3)
    for x in pts:
        q = f.orbit(x, n)[-1]
        if q == x:
            continue
        z = q
        for m in range(2, horizon + 1):
            z = f.orbit(z, n)[-1]
            if z == x:
                continue
            if tree.on_arc(x, z, q):
                return CheckResult(
                    status="fail",
                    witness=Witness(
                        kind="escape-violation",
                        points=(x, z, q),
                        detail=(
                            f"after {m} applications of power {n} the "
                            "orbit crossed back over the start"
                        ),
                    ),
                )
    return CheckResult(status="pass")
