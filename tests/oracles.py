"""Slow, direct oracles shared by the tests.

No command needs these, so they live here rather than in the package:
each answers by the most direct route, for comparison with the routines
the package runs.
"""

from fractions import Fraction
from itertools import product

from dendrodyn.errors import PreconditionError
from dendrodyn.fixtures import stem_sweep_map
from dendrodyn.odometer import OdometerAddress, validate_address
from dendrodyn.plmap import identity_map


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
    once = f.image_of_subtree(ball.as_subtree())
    twice = f.image_of_subtree(once)
    corners = twice.corner_points()
    return max(
        (tree.distance(a, b) for a in corners for b in corners),
        default=Fraction(0),
    )
