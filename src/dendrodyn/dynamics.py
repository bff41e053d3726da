"""Orbit structure and the exact recurrence decision for PL tree maps.

The central question answered here: does every point of the tree come
back to itself under iteration?  On a finite tree this is equivalent to
some power of the map being the identity, which makes the question
decidable in exact arithmetic.  The decision procedure walks only the
finitely many exact orbits of the vertices and breakpoints and never
samples; sampling-based operations exist alongside it to demonstrate,
falsify, and cross-check, and their negatives are horizon-relative.

Every "false" answer ships a witness that can be re-verified with a
handful of evaluate calls, and every check distinguishes a failed
assertion from a hypothesis that never applied (status "skipped").

`fixed_set` is the one path to the fixed set of a power and computes it
once per map; `_periodic_levels` is the one running union P_n of the
first n of them.  `fixed_set` takes one of two routes, chosen from the
map.

The two sampled checks (`check_full_invariance`, `check_no_preperiodic`)
fail only on a strictly preperiodic sample, and an injective map has no
strictly preperiodic point; so they walk samples only on a map that is
not injective, and an injective one is decided by its onto-ness alone.
The radial check (`check_no_radial_stretch`) cannot fail on a certified
map, so it walks samples only on a map with no certificate.

A homeomorphism is decided by bounded orbit walks, with no bound on its
period and no composition (`_certificate`): each vertex and interior
breakpoint is periodic exactly when its orbit closes within 2M steps, M
the number of topological edges.  Surjectivity is read off the leaves
(`_is_onto`): an injective map is onto exactly when it sends every leaf
to a leaf, so deciding it builds no image.  A certified map is one the
decision proves pointwise recurrent: a homeomorphism whose vertices and
interior breakpoints are all periodic.  Then f^N is the identity, N the
least common multiple of their periods (see
`decide_pointwise_recurrent`), and for every n

    Fix(f^n) = Fix(f^gcd(n, N)),

since the k with f^k(x) = x form a subgroup of the integers once f is
invertible, and it holds n exactly when it holds gcd(n, N).  Let O be
the union of the orbits of the vertices and interior breakpoints: finite,
with f(O) = O.  Each component J of the tree minus O is an open arc of
one edge, inside one piece of f, so f maps J affinely onto the component
whose ends are the images of J's ends; two components with the same ends
are one, as arcs in a tree are unique.  So f^n fixes a point of O when
its period divides n; on J it is the identity when it fixes both ends of
J, fixes only the midpoint of J when it swaps them, and otherwise moves J
off itself.  The map's certificate (`_Certificate`) lays O out once as
items with periods, and each Fix(f^n), for any N, is the items whose
period divides n: a vertex or point of O with its cycle's length, J's
closure with the lcm of its ends' periods, and J's midpoint with 1 when
its ends form a 2-cycle.  `_certificate` alone decides it, and the
verdict and `fixed_set` read it there.  Every other map has its powers
composed, within a piece budget, all but the last composition of each
power: Fix(f^n) is solved from that composition's two factors, which
are built, and checked against the budget, only when their cut count
(at least the composite's number of normalized pieces) passes it.

What this module learns of a map is kept in one store per map
(`_OrbitStore`).  `_walk` is the one orbit walker: it keeps the
successors it has evaluated, and a label (preperiod, cycle, entry) on
every point whose orbit it has seen repeat.  A walk stops at the first
labelled point and labels the points it passed, so over all the samples
of a map each orbit point is evaluated once.  Periods, eventual cycles,
the sampled orbit checks of a map that is not injective and the
recurrence decision's certificate are read off the labels, and every
image f^n(x) off the store (`_power_image`), never off a power map.
The store's orbit entries are at most a fixed multiple of the map's
vertices plus pieces; past that, walks go on without storing and
answer the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, islice
from math import gcd, lcm

from .errors import PreconditionError, _at_least, _at_least_one
from .plmap import DEFAULT_PIECE_CAP, PLTreeMap, built, composite_fixed_set, factored
from .tree import ONE, ZERO, Subtree, TreePoint

MAX_PERIOD_DEFAULT = 10_000
HORIZON_DEFAULT = 1_000
CUTPOINT_POWER_BOUND = 5  # check_escape skips on a periodic cutpoint up to this power
ORBIT_STORE_PER_ITEM = 8  # orbit store entries per vertex and per piece of the map
_UNDECIDED = object()  # a map's certificate before it is looked for


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


@dataclass(frozen=True, slots=True)
class PeriodicStructure:
    """Fixed sets, their running unions, and vertex periods up to a bound."""

    fixed_sets: dict
    cumulative: dict
    vertex_periods: dict


def fixed_set(f: PLTreeMap, n: int, piece_cap: int = DEFAULT_PIECE_CAP) -> Subtree:
    """The exact set of points with f^n(x) = x, computed once per map.

    On a certified map (`_certificate`: f^N is the identity, for any N)
    this is Fix(f^gcd(n, N)), with no budget: of the items laid out from
    O (`_Certificate`), those whose period divides n.  A vertex or point
    of O carries its cycle's length, the closure of an interval between
    neighbouring points of O the lcm of its ends' periods, and the
    midpoint of one whose ends form a 2-cycle of f the period 1.

    Any other map has f^n = outer . inner made as `iterate` makes it, by
    squaring, or as f^(n-1) . f when f^(n-1) is the last power made here
    with the same budget; either way every composition but the last is
    built within `piece_cap` pieces, and the last is solved from its two
    factors (`plmap.composite_fixed_set`) without being built.  The
    budget still holds: the cut count of outer . inner is at least the
    number of its normalized pieces, so the composite is built, and
    checked as `iterate` checks it, only when its cut count passes
    `piece_cap`.  f's store keeps f^n in its place, as that factor pair
    until the next power needs it built, and no other power: keeping
    every power raised peak memory by about 9% on odometer-tower
    analyses.  The fixed sets are kept in f's store, keyed (n, piece_cap)
    on this route: a smaller budget may raise where a larger one
    succeeds, and a call that raises stores nothing.
    """
    _at_least_one(power=n, piece_cap=piece_cap)
    cert = _certificate(f)
    fixed_sets = _OrbitStore.of(f).fixed_sets
    key = (n, piece_cap) if cert is None else (gcd(n, cert.power), None)
    if key not in fixed_sets:
        if cert is not None:
            fixed_sets[key] = cert.fixed_set(f.domain, key[0])
        else:
            fixed_sets[key] = composite_fixed_set(*_power_factors(f, n, piece_cap))
    return fixed_sets[key]


def _power_factors(f: PLTreeMap, n: int, piece_cap: int) -> tuple:
    """The factor pair (outer, inner) of f^n within the budget, kept in
    f's store as its last power; the kept f^(n-1) is built here when it
    is a factor of f^n."""
    store = _OrbitStore.of(f)
    last = store.last_power
    if last is not None and last[:2] == (n - 1, piece_cap):
        pair = (built(*last[2:], piece_cap), f)
    else:
        pair = f.power_factors(n, piece_cap)
    pair = factored(*pair, piece_cap, "iterate")
    if n > 1:
        store.last_power = (n, piece_cap, *pair)
    return pair


def _periodic_levels(f: PLTreeMap, upto: int, piece_cap: int = DEFAULT_PIECE_CAP):
    """(n, Fix(f^n), P_n) for n = 1, ..., upto, P_n the union of the first n
    fixed sets.  Lazy: a caller that stops at level n composes no later power.

    Each fixed set is merged once: `fixed_set` hands out the one it keeps
    for a key, and on a certified map every n with the same gcd(n, N)
    shares it, so P_n is P_(n-1) itself when Fix(f^n) was merged before."""
    union = Subtree.empty(f.domain)
    merged = {}  # id -> fixed set already in the union; holding it keeps the id its own
    for n in range(1, upto + 1):
        fixed = fixed_set(f, n, piece_cap)
        if id(fixed) not in merged:
            merged[id(fixed)] = fixed
            union = union.union(fixed)
        yield n, fixed, union


def periodic_union(f: PLTreeMap, n: int, piece_cap: int = DEFAULT_PIECE_CAP) -> Subtree:
    """Union of the fixed sets of the first n powers."""
    _at_least_one(n=n, piece_cap=piece_cap)
    for _, _, union in _periodic_levels(f, n, piece_cap):
        pass
    return union


def vertex_period(f: PLTreeMap, v, max_period: int = MAX_PERIOD_DEFAULT) -> int | None:
    """Exact period of a vertex, or None if it is not periodic within the bound.

    The orbit is walked with repetition detection, so a vertex that falls
    into a cycle not containing it is reported non-periodic immediately.
    """
    _at_least_one(max_period=max_period)
    label = _walk(f, f.domain.vertex_point(v), max_period)
    return len(label[1]) if label is not None and label[0] == 0 else None


def periodic_structure(
    f: PLTreeMap,
    upto: int,
    max_period: int = MAX_PERIOD_DEFAULT,
    piece_cap: int = DEFAULT_PIECE_CAP,
) -> PeriodicStructure:
    """Fixed sets and cumulative unions for powers 1..upto, plus vertex periods."""
    _at_least("upto", upto, 1, "need at least one power")
    _at_least_one(max_period=max_period, piece_cap=piece_cap)
    levels = list(_periodic_levels(f, upto, piece_cap))
    fixed = {n: sub for n, sub, _ in levels}
    cumulative = {n: union for n, _, union in levels}
    periods = {v: vertex_period(f, v, max_period) for v in f.domain.vertex_ids}
    return PeriodicStructure(fixed_sets=fixed, cumulative=cumulative, vertex_periods=periods)


# -- the decision procedure ---------------------------------------------------


def decide_pointwise_recurrent(f: PLTreeMap) -> RecurrenceVerdict:
    """Decide whether every point returns to itself under iteration.

    The route is exact, samples nothing, composes nothing and takes no
    bound; whether f is certified is decided once per map, by
    `_certificate`, and read here:

    1. A non-injective map has a collapsing pair; fail with it.
    2. A non-surjective map leaves a gap no orbit re-enters; fail with a
       point of the gap.  (This also covers maps whose endpoint orbits
       wander forever, where a period search would not terminate.)
       Whether the injective f is onto is read off the leaves
       (`_is_onto`); only a map that is not has its image built, for
       the gap.
    3. What remains is a homeomorphism, and `_certificate` has walked
       the orbit of every vertex and interior breakpoint a bounded
       number of steps.  When each is periodic, N is the least common
       multiple of their periods and f^N is the identity: the union O of
       these orbits is finite and f(O) = O, so f maps each open interval
       of T minus O linearly onto another one; f^N fixes both ends of
       each interval, so it is the identity there too.  Otherwise the
       first one that is not periodic is the witness, a cutpoint (f
       permutes the vertices of degree other than 2), and a
       pointwise-recurrent map has every cutpoint periodic.
    """
    tree = f.domain
    cert = _certificate(f)
    if cert is not None:
        return RecurrenceVerdict(
            pointwise_recurrent=True, identity_power=cert.power, reason="identity-power"
        )

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

    if not _is_onto(f):
        return RecurrenceVerdict(
            pointwise_recurrent=False,
            witness=Witness(
                kind="escaping-orbit",
                points=(tree.first_gap(f.image()),),
                detail="the point is outside the image, so no orbit ever revisits it",
            ),
            reason="not-surjective",
        )

    return RecurrenceVerdict(
        pointwise_recurrent=False,
        witness=Witness(
            kind="non-periodic-cutpoint",
            points=(_OrbitStore.of(f).open_start,),
            detail=(
                f"the orbit does not close within {_walk_horizon(tree)} steps, twice "
                "the tree's number of topological edges, so this cutpoint is not periodic"
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

    The points f^(k*power)(x) for k > preperiod + period repeat earlier
    ones, so no more of them are looked at.  An orbit point equal to x
    answers at once, since y is not on the one-point arc [x, x].
    """
    _at_least_one(power=power, horizon=horizon)
    tree = f.domain
    tree.validate_point(x)
    tree.validate_point(y)
    if x == y:
        raise PreconditionError("the separating point must differ from the start")
    label = _walk(f, x, power * horizon)
    steps = horizon if label is None else min(horizon, label[0] + len(label[1]))
    for z in islice(_orbit_points(f, x), power, power * steps + 1, power):
        if z == x or (z != y and not tree.on_arc(y, z, x)):
            return True
    return False


class _OrbitStore:
    """What this module keeps of one map: orbit points, certificate, and
    the fixed sets and the last power of `fixed_set`, kept as its factor
    pair until the next power builds it.

    `labels` maps a point whose orbit has been seen to repeat to
    (preperiod, cycle, entry): `cycle` is the tuple of the points of the
    cycle the orbit settles on, shared by every point that reaches it,
    and `entry` is the index in it of the first cycle point the orbit
    meets (a cycle point's own index).  `succ` maps a point off every
    known cycle to its image: the points of a labelled tail, and those of
    walks that ended unresolved.  Labels and successors together never
    exceed `budget` entries, a fixed multiple of the map's vertices plus
    pieces; once it is reached, walks go on without storing.  Only
    `_walk` and `_orbit_points` read and fill them.  `certificate` is the
    map's `_Certificate`, kept apart from the budget, or None once the map
    is known to have none; only `_certificate` sets it, and with it
    `open_start`, the first vertex or interior breakpoint that is not
    periodic, on a homeomorphism with one.
    """

    __slots__ = (
        "succ", "labels", "budget", "certificate", "open_start", "fixed_sets", "last_power",
    )

    def __init__(self, f: PLTreeMap):
        self.succ = {}
        self.labels = {}
        self.budget = ORBIT_STORE_PER_ITEM * (len(f.domain.vertex_ids) + f.piece_count)
        self.certificate = _UNDECIDED  # until `_certificate` decides it
        self.open_start = None
        self.fixed_sets = {}  # (n, piece_cap), or (gcd(n, N), None) when certified
        self.last_power = None  # (n, piece_cap, outer, inner): f^n, outer None once built

    @staticmethod
    def of(f: PLTreeMap) -> "_OrbitStore":
        """The map's store, made on first use."""
        if f._orbits is None:
            f._orbits = _OrbitStore(f)
        return f._orbits

    def room(self) -> int:
        return self.budget - len(self.succ) - len(self.labels)

    def keep(self, table: dict, entries) -> None:
        """Add (point, value) entries to one of the tables while the budget lasts."""
        table.update(islice(entries, max(0, self.room())))


def _walk(f: PLTreeMap, x: TreePoint, horizon: int):
    """The label (preperiod, cycle, entry) of x's orbit, or None when the
    orbit does not repeat within `horizon` steps.

    An orbit repeats within the horizon exactly when preperiod + period
    <= horizon.  The walk stops at the first point already labelled, or
    when it closes a cycle, and labels every point it passed; so while
    the budget lasts, each orbit point of a map is evaluated and labelled
    once over all walks.
    """
    store = _OrbitStore.of(f)
    labels, succ = store.labels, store.succ
    label = labels.get(x)
    if label is None:
        path = []
        index = {}  # point -> its place on the path
        z = x
        while True:
            j = index.setdefault(z, len(path))
            if j < len(path):  # back at path[j]: the rest of the path is a cycle
                cycle = tuple(path[j:])
                # a cycle is labelled whole or not at all: a walk that met a
                # labelled cycle point off a partly labelled cycle would take
                # the unlabelled ones for a tail
                if store.room() >= len(cycle):
                    labels.update((p, (0, cycle, k)) for k, p in enumerate(cycle))
                label = (0, cycle, 0)
                del path[j:]
                break
            path.append(z)
            if len(path) > horizon:
                store.keep(succ, zip(path, path[1:]))
                return None
            y = succ.get(z) if succ else None
            z = f.evaluate(z) if y is None else y
            label = labels.get(z)
            if label is not None:
                break
        if path:  # a tail, each point labelled and linked to the next
            pre, cycle, entry = label
            n = len(path)
            store.keep(labels, ((p, (pre + n - i, cycle, entry)) for i, p in enumerate(path)))
            store.keep(succ, zip(path, path[1:] + [z]))
            label = (pre + n, cycle, entry)
    if label[0] + len(label[1]) > horizon:
        return None
    return label


def _orbit_points(f: PLTreeMap, x: TreePoint):
    """x, f(x), f^2(x), ... without end, read from the orbit store where
    it can be: successors along the way, and a labelled cycle once the
    orbit is on one."""
    store = _OrbitStore.of(f)
    z = x
    while True:
        label = store.labels.get(z)
        if label is not None and label[0] == 0:
            _, cycle, entry = label
            for k in count(entry):
                yield cycle[k % len(cycle)]
        yield z
        y = store.succ.get(z)
        if y is None:
            y = f.evaluate(z)
            store.keep(store.succ, [(z, y)])
        z = y


def _power_image(f: PLTreeMap, x: TreePoint, n: int) -> TreePoint:
    """f^n(x) from the orbit store; x itself when n <= 0, as `PLTreeMap.orbit` gives."""
    return next(islice(_orbit_points(f, x), max(n, 0), None))


def _is_onto(f: PLTreeMap) -> bool:
    """Whether an injective f is onto the tree T, read off the leaves (the
    vertices of degree at most one): f(T) = T exactly when f maps every
    leaf to a leaf.  No image is built; the cost is linear in vertices.

    Two facts prove it.
    (1) An injective map can send only a leaf to a leaf.  A point x that
        is not a leaf starts two arcs that meet only at x; their images
        are arcs from f(x) that meet only at f(x), and no two such arcs
        start at a leaf, where every arc leaves along the one edge.
    (2) Every component C of T minus a proper nonempty closed subtree S
        contains a leaf of T.  Continue the arc from a point s of S to a
        point x of C past x, never turning back, until it ends at a leaf
        l.  The arc [x, l] misses S: a point of S on it would put the arc
        from s to that point, and so x, into the connected set S.
    If f(T) = T, each leaf is f(x) for some x, a leaf by (1): the set L
    of leaves lies in f(L), and f is injective on the finite set L, so
    f(L) = L.  Conversely, if f maps each leaf to a leaf, then f(L) = L
    by the same count, so the image f(T), a closed subtree, holds every
    leaf; by (2) it is not proper.
    """
    tree = f.domain
    for v in tree.vertex_ids:
        if tree.degree(v) <= 1:
            img = f.vertex_image(v)
            if img.vertex is None or tree.degree(img.vertex) > 1:
                return False
    return True


def _walk_horizon(tree) -> int:
    """H = 2M, M the number of topological edges (arcs between vertices of
    degree other than 2), or 1 for the one-vertex tree: within H steps a
    homeomorphism brings every periodic point back (see `_certificate`).
    Each vertex of degree 2 joins two edges into one topological edge."""
    bends = sum(1 for v in tree.vertex_ids if tree.degree(v) == 2)
    return max(2 * (len(tree.edge_ids) - bends), 1)


def _certified_cycles(f: PLTreeMap, horizon: int) -> tuple:
    """(cycles, None), the cycle of each vertex and interior breakpoint of
    an injective f, when each one's orbit closes within `horizon` steps;
    else (None, s), s the first start whose orbit does not.  An injective
    map's orbits have no tail: f^a(x) = f^b(x), a < b, gives x = f^(b-a)(x).

    Stops at the first orbit that fails; each point of the walked orbits
    is evaluated once, and a start already labelled costs no step.  The
    interior breakpoints are read off the map's pieces: every piece but
    the first of its edge starts at one.
    """
    tree = f.domain
    starts = chain(
        (tree.vertex_point(v) for v in tree.vertex_ids),
        (tree.edge_point(eid, piece.t0) for eid, mine in f._by_edge.items() for piece in mine[1:]),
    )
    cycles = []
    for s in starts:
        label = _walk(f, s, horizon)
        if label is None:
            return None, s
        cycles.append(label[1])
    return cycles, None


class _Certificate:
    """A proof that f^power is the identity, and the orbit partition it
    rests on, the cycles of the vertices and interior breakpoints.  The
    first `fixed_set` call lays O out as `items`, each (period, vertex,
    segment) with one of the last two set, as `fixed_set` lists them.

    A midpoint item stands for every swapped interval: an interval J that
    some f^k swaps has ends that form a 2-cycle of f.
    1. Fix(f^k) is connected: f^k fixes the arc between two of its fixed
       points, since an increasing interval map of finite order is the
       identity.
    2. Fix(f^k) holds Fix(f), which is never empty on a tree.
    3. Of J, f^k fixes the midpoint m alone, so an arc in Fix(f^k) from a
       point of Fix(f) to m is m itself.  So f maps J onto the component
       of the tree minus O that holds f(m) = m, J itself, and not as the
       identity, as f^k is not; f swaps J's ends."""

    __slots__ = ("power", "cycles", "items")

    def __init__(self, power: int, cycles: list):
        self.power = power
        self.cycles = cycles
        self.items = None

    def _lay_out(self, tree) -> list:
        cycle_of = {}  # each point of O -> the one cycle tuple kept for it
        for cycle in self.cycles:
            if cycle[0] not in cycle_of:  # a cycle met again, maybe rotated
                cycle_of.update((p, cycle) for p in cycle)
        items = [(len(cycle_of[tree.vertex_point(v)]), v, None) for v in tree.vertex_ids]
        on_edge = {eid: [] for eid in tree.edge_ids}
        for p, cycle in cycle_of.items():
            if not p.is_vertex:
                on_edge[p.edge].append((p.t, p))
                items.append((len(cycle), None, (p.edge, p.t, p.t)))
        for eid, inner in on_edge.items():
            u, w = tree.edge_ends(eid)
            ends = [(ZERO, tree.vertex_point(u)), *sorted(inner), (ONE, tree.vertex_point(w))]
            for (ta, a), (tb, b) in zip(ends, ends[1:]):
                ca, cb = cycle_of[a], cycle_of[b]
                items.append((lcm(len(ca), len(cb)), None, (eid, ta, tb)))
                if ca is cb and len(ca) == 2:
                    mid = (ta + tb) / 2
                    items.append((1, None, (eid, mid, mid)))
        return items

    def fixed_set(self, tree, n: int) -> Subtree:
        """Fix(f^n): the laid-out items whose period divides n."""
        if self.items is None:
            self.items = self._lay_out(tree)
        kept = [(v, seg) for period, v, seg in self.items if n % period == 0]
        segs = [seg for _, seg in kept if seg is not None]
        return Subtree.build(tree, segs, [v for v, seg in kept if seg is None])


def _certificate(f: PLTreeMap) -> _Certificate | None:
    """The map's certificate that f^N is the identity, or None when f has
    none.  Decided once per map, here alone, by bounded orbit walks.

    Only a homeomorphism is walked: f injective and onto, read off the
    leaves by `_is_onto` with no image built.  Each vertex and interior
    breakpoint is walked at most H steps (`_walk_horizon`): H = 2M, M the
    number of topological edges, the arcs between vertices of degree
    other than 2, or H = 1 on the one-vertex tree.  That decides whether
    the start is periodic.  f permutes the vertices of degree other than
    2, at most M + 1 <= H of them, and with them the topological edges.
    A point inside a topological edge E whose period under that
    permutation is q <= M has f^q map E onto itself, an interval
    homeomorphism, whose periodic points have period 1 or 2; so the
    point is periodic exactly when f^(2q) fixes it, and its orbit then
    closes within 2q <= H steps.

    When every start is periodic, N is the least common multiple of
    their periods, an exact integer of any size, and f^N is the identity
    (see `decide_pointwise_recurrent`).  Otherwise the first start that
    is not periodic is kept on the store (`open_start`), the decision's
    witness, and f has no certificate.
    """
    store = _OrbitStore.of(f)
    if store.certificate is _UNDECIDED:
        store.certificate = None
        if f.is_injective()[0] and _is_onto(f):
            cycles, store.open_start = _certified_cycles(f, _walk_horizon(f.domain))
            if cycles is not None:
                store.certificate = _Certificate(lcm(*{len(c) for c in cycles}), cycles)
    return store.certificate


def _eventual_cycle(f: PLTreeMap, x: TreePoint, horizon: int):
    """(preperiod, period) of an orbit if it repeats within the horizon."""
    label = _walk(f, x, horizon)
    return None if label is None else (label[0], len(label[1]))


# -- property checks ------------------------------------------------------------


def check_full_invariance(
    f: PLTreeMap,
    horizon: int = 200,
) -> CheckResult:
    """Surjectivity plus: no sampled point feeds into a periodic orbit
    from outside.  Periodic orbits of such a map own their preimages.

    An injective map walks no sample, since it has no strictly
    preperiodic point: if f^p(x) lies on a cycle and x does not, the point
    y of that cycle p steps behind f^p(x) has f^p(y) = f^p(x) with
    y != x, while f^p is injective with f.  So it passes exactly when it
    is onto, which is read off the leaves (`_is_onto`), and its image is
    built only for the gap witness.  Any other map has its image built and
    every sample walked; a sample whose orbit does not repeat within the
    horizon is counted as undetermined.
    """
    _at_least_one(horizon=horizon)
    tree = f.domain
    injective = f.is_injective()[0]
    if not (_is_onto(f) if injective else f.image() == tree.full_subtree()):
        return CheckResult(
            status="fail",
            witness=Witness(
                kind="escaping-orbit",
                points=(tree.first_gap(f.image()),),
                detail="not surjective: the point has no preimage",
            ),
        )
    unresolved = 0
    for x in () if injective else tree.grid_points(3):
        label = _walk(f, x, horizon)
        if label is None:
            unresolved += 1
            continue
        preperiod, cycle, entry = label
        if preperiod > 0:
            return CheckResult(
                status="fail",
                witness=Witness(
                    kind="preperiodic-sample",
                    points=(x, cycle[entry]),
                    detail=(
                        f"the sample reaches a period-{len(cycle)} orbit "
                        f"after {preperiod} steps without belonging to it"
                    ),
                ),
            )
    detail = f"{unresolved} sample orbits undetermined at horizon {horizon}" if unresolved else ""
    return CheckResult(status="pass", detail=detail)


def check_no_preperiodic(f: PLTreeMap, horizon: int = 200) -> CheckResult:
    """No sampled point is strictly preperiodic.  A violation also yields
    a separator lying strictly between the point and where its orbit
    settles, showing the point never comes back to its own side.

    An injective map has no such point (see `check_full_invariance`), so
    its samples are not walked."""
    _at_least_one(horizon=horizon)
    tree = f.domain
    for x in () if f.is_injective()[0] else tree.grid_points(3):
        label = _walk(f, x, horizon)
        if label is None or not label[0]:
            continue
        preperiod, cycle, entry = label
        period = len(cycle)
        # the least multiple of the period covering the approach, so the
        # orbit rests on its cycle there
        steps = period * -(-preperiod // period)
        r = cycle[(entry + steps - preperiod) % period]
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
    piece_cap: int = DEFAULT_PIECE_CAP,
) -> CheckResult:
    """No sampled point is pushed radially outward through itself from a
    fixed anchor of the n-th power: the arc [anchor, t] never sits inside
    [anchor, f^n(t)).  Pointwise-recurrent maps can never do this.

    A certified map (`_certificate`: f^N is the identity) passes with no
    sample walked.  f^n is a homeomorphism fixing each anchor a.  If
    [a, t] lay strictly inside [a, f^n(t)], then f^n would map [a, t]
    onto that larger arc, and applying f^n again keeps a strict
    inclusion, so the arcs f^(kn)([a, t]) would form a strictly
    increasing chain; but f^(Nn) is the identity and brings [a, t] back
    to itself.  Fix(f^n) holds Fix(f), which is never empty on a tree, so
    the answer there is never "skipped".

    On any other map each sample's image f^n(t) is read from the orbit
    store once.  The anchors that t pushes outward are those outside the
    component of the tree minus t that holds the image, and the least of
    them comes from `MetricTree.first_separated`.  The witness is the
    least such anchor, with the first sample that it serves.
    """
    _at_least_one(power=n, piece_cap=piece_cap)
    if _certificate(f) is not None:
        return CheckResult(status="pass")
    tree = f.domain
    fixed = fixed_set(f, n, piece_cap)
    anchors = list(fixed.corner_points())
    for eid, intervals in fixed.segments.items():
        for lo, hi in intervals:
            if lo < hi:
                anchors.append(tree.edge_point(eid, (lo + hi) / 2))
    if not anchors:
        return CheckResult(status="skipped", detail="the n-th power has no fixed point")
    beyond = tree.first_separated(anchors)
    best = None  # (anchor index, sample, image)
    for t in tree.grid_points(3):
        y = _power_image(f, t, n)
        if y == t:
            continue
        i = beyond(t, y)
        if i is not None and (best is None or i < best[0]):
            best = (i, t, y)
    if best is None:
        return CheckResult(status="pass")
    i, t, y = best
    return CheckResult(
        status="fail",
        witness=Witness(
            kind="radial-stretch",
            points=(anchors[i], t, y),
            detail=(
                "the middle point lies strictly between the fixed "
                f"anchor and its image under power {n}"
            ),
        ),
    )


def check_escape(
    f: PLTreeMap,
    n: int = 1,
    horizon: int = 100,
    piece_cap: int = DEFAULT_PIECE_CAP,
) -> CheckResult:
    """For maps with no periodic cutpoints: once a point moves under the
    n-th power, its whole forward orbit under that power stays on the
    far side, in the component of its first image (or back at the point
    itself).  Reports "skipped" when periodic cutpoints exist, since the
    containment claim assumes there are none.  The powers are tried in
    order and the first fixed set with a cutpoint answers.  Horizon 0
    takes the first image alone, as horizon 1 does; a negative horizon
    is refused."""
    _at_least_one(power=n, piece_cap=piece_cap)
    _at_least("horizon", horizon, 0)
    tree = f.domain
    for k in range(1, CUTPOINT_POWER_BOUND + 1):
        fixed = fixed_set(f, k, piece_cap)
        if fixed.segments or any(tree.degree(v) >= 2 for v in fixed.vertices):
            return CheckResult(
                status="skipped",
                detail=f"periodic cutpoints exist within power {CUTPOINT_POWER_BOUND}",
            )
    for x in tree.grid_points(3):
        # f^n(x), f^2n(x), ..., f^(horizon*n)(x); the first image even at horizon 0
        images = islice(_orbit_points(f, x), n, n * max(horizon, 1) + 1, n)
        q = next(images)
        if q == x:
            continue
        for m, z in enumerate(images, 2):
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
