"""Slow, direct oracles shared by the tests.

No command needs these, so they live here rather than in the package:
each answers by the most direct route, for comparison with the routines
the package runs.
"""

from fractions import Fraction

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
