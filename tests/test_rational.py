"""The exact-rational type `tree._Q` against stdlib `Fraction`, and a
check that every rational the program holds is one.

`_Q` must agree with `Fraction` on every value, `str`, `repr` and `hash`,
raise where it raises, and copy and pickle to itself.  Its results stay
`_Q` for `_Q`, `Fraction` and `int` operands; bool and float operands
take `Fraction`'s own methods and give what `Fraction` gives.  A stray
`Fraction(...)` at an entry point would not change a value, only the
speed, so the second half walks the trees, maps, arcs and subtrees that
loading, fixtures, composition and fixed sets make, and asks that every
rational in them is a `_Q`.
"""

import copy
import operator
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest

from dendrodyn import StructureError, build_fixture
from dendrodyn.dynamics import fixed_set
from dendrodyn.fixtures import FIXTURE_KINDS
from dendrodyn.io import dump_instance, load_instance
from dendrodyn.plmap import compose, composite_fixed_set
from dendrodyn.tree import ONE, ZERO, _Q, as_fraction
from oracles import pieces_with_edges

BINARY = (
    operator.add, operator.sub, operator.mul, operator.truediv,
    operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge,
)
ARITHMETIC = {operator.add, operator.sub, operator.mul, operator.truediv}


def big(rng, digits):
    return rng.choice((1, -1)) * rng.randrange(10 ** (digits - 1), 10**digits)


def random_int(rng):
    return rng.choice((0, 1, -1, 2, -6, rng.randint(-50, 50), big(rng, rng.choice((20, 300, 400)))))


def random_fraction(rng):
    den = rng.choice((1, 2, 3, 12, rng.randint(1, 1000), abs(big(rng, 300)) or 1))
    return Fraction(random_int(rng), den)


def random_operand(rng):
    """An operand of each kind the kernel meets: itself, Fraction, int, bool, float."""
    kind = rng.choice(("kernel", "fraction", "int", "bool", "float"))
    if kind == "kernel":
        return as_fraction(random_fraction(rng))
    if kind == "fraction":
        return random_fraction(rng)
    if kind == "int":
        return random_int(rng)
    if kind == "bool":
        return rng.choice((True, False))
    return rng.choice((0.0, 0.5, -2.25, 3.0, 1e-7, 1e300))


def plain(x):
    """The operand the oracle sees: a kernel value as a stdlib Fraction."""
    return Fraction(x.numerator, x.denominator) if type(x) is _Q else x


def outcome(op, a, b):
    try:
        return "value", op(a, b)
    except (ZeroDivisionError, OverflowError) as exc:
        return "raises", type(exc)


def test_rational_strings_read_as_fraction_reads_them():
    """A string is read from its two ints and their gcd: the value, lowest
    terms and positive denominator are `Fraction`'s, for signs, leading
    zeros, zero numerators and long parts alike."""
    rng = random.Random(77)
    cases = ["0", "-0", "+0/7", "007/0021", "-12/8", "+3", "1/1", "0/1", str(10**999)]
    for _ in range(500):
        num = rng.choice(("", "-", "+")) + "0" * rng.randint(0, 2) + str(abs(random_int(rng)))
        den = str(rng.choice((1, 2, 12, rng.randint(1, 1000), abs(big(rng, 300)))))
        cases.append(num if rng.random() < 0.2 else f"{num}/{'0' * rng.randint(0, 2)}{den}")
    for text in cases:
        q = as_fraction(text)
        want = Fraction(text)
        assert type(q) is _Q and q == want, text
        assert (q.numerator, q.denominator) == (want.numerator, want.denominator), text
    for text in ("0/0", "5/0", "-0/000"):
        with pytest.raises(StructureError, match="not a rational"):
            as_fraction(text)


@pytest.mark.parametrize("seed", range(4))
def test_binary_operations_match_fraction(seed):
    rng = random.Random(seed)
    for _ in range(400):
        q = as_fraction(random_fraction(rng))
        other = random_operand(rng)
        exact = type(other) in (_Q, Fraction, int)
        for a, b in ((q, other), (other, q)):
            for op in BINARY:
                got = outcome(op, a, b)
                want = outcome(op, plain(a), plain(b))
                assert got == want, (op, a, b)
                if got[0] == "raises":
                    continue
                value = got[1]
                if op not in ARITHMETIC:
                    assert type(value) is bool
                elif exact:
                    assert type(value) is _Q, (op, a, b)
                else:
                    assert type(value) is type(want[1]), (op, a, b)


@pytest.mark.parametrize("zero", [ZERO, Fraction(0), 0, False], ids=["kernel", "fraction", "int", "bool"])
def test_division_by_zero_raises(zero):
    with pytest.raises(ZeroDivisionError):
        as_fraction("3/4") / zero
    with pytest.raises(ZeroDivisionError):
        5 / ZERO
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 3) / ZERO


def test_unary_text_and_hash_match_fraction():
    rng = random.Random(7)
    values = [random_fraction(rng) for _ in range(300)]
    values += [Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(-(2**61 - 1)), Fraction(2**61 - 1, 3)]
    for f in values:
        q = as_fraction(f)
        assert type(q) is _Q
        for op in (operator.neg, abs):
            assert type(op(q)) is _Q and op(q) == op(f)
        assert (str(q), repr(q), hash(q)) == (str(f), repr(f), hash(f))
        assert q == f and f == q and hash(q) == hash(f)
        if f.denominator == 1:
            assert hash(q) == hash(f.numerator) and q == f.numerator
        assert bool(q) == bool(f)


def test_copy_deepcopy_and_pickle_give_the_kernel_back():
    for f in (Fraction(0), Fraction(-7, 3), Fraction(10**300 + 1, 7)):
        q = as_fraction(f)
        for clone in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
            assert type(clone) is _Q and clone == f
            assert (clone.numerator, clone.denominator) == (f.numerator, f.denominator)
    held = {"t": as_fraction("1/3"), "list": [ONE, ZERO]}
    assert copy.deepcopy(held) == held


@pytest.mark.parametrize(
    "args", [(3,), (6, -4), ("-10/4",), ("0.5",), (Fraction(2, 6),), (0.25,), ()],
)
def test_constructor_takes_what_fraction_takes(args):
    q = _Q(*args)
    assert type(q) is _Q and q == Fraction(*args)
    assert (q.numerator, q.denominator) == (Fraction(*args).numerator, Fraction(*args).denominator)


# -- every rational the program holds is a _Q ----------------------------------


def point_rationals(p):
    return () if p.is_vertex else (p.t,)


def arc_rationals(arc):
    yield from point_rationals(arc.a)
    yield from point_rationals(arc.b)
    for _, t0, t1 in arc.segments:
        yield from (t0, t1)
    yield from arc.offsets
    yield arc.length


def table_rationals(table):
    for _, u0, u1, x0, x1 in table:
        yield from (u0, u1, x0, x1)


def tree_rationals(tree):
    return (tree.edge_length(eid) for eid in tree.edge_ids)


def map_rationals(f):
    yield from tree_rationals(f.domain)
    for v in f.domain.vertex_ids:
        yield from point_rationals(f.vertex_image(v))
    for eid in f.domain.edge_ids:
        for t, p in f.breakpoints(eid):
            yield t
            yield from point_rationals(p)
    for _, piece in pieces_with_edges(f):
        yield from (piece.t0, piece.t1)
        yield from point_rationals(piece.p0)
        yield from point_rationals(piece.p1)
        yield from table_rationals(piece.table)


def subtree_rationals(sub):
    for ivs in sub.segments.values():
        for lo, hi in ivs:
            yield from (lo, hi)


def assert_all_kernel(values, what):
    """Every value a `_Q` in lowest terms with a positive denominator: `_Q`
    compares numerators and denominators, so an unreduced value would be
    unequal to its reduced form."""
    strays = [
        v for v in values
        if type(v) is not _Q or v._denominator <= 0 or gcd(v._numerator, v._denominator) != 1
    ]
    assert not strays, (what, strays[:3])


@pytest.mark.parametrize("kind", FIXTURE_KINDS)
def test_every_rational_held_is_the_kernel(kind):
    tree, f = build_fixture(kind)
    assert_all_kernel(map_rationals(f), "fixture")
    _, loaded = load_instance(dump_instance(tree, f))
    assert_all_kernel(map_rationals(loaded), "loaded")
    for g in (compose(f, f), f.iterate(3), loaded.normalize()):
        assert_all_kernel(map_rationals(g), "composed")
    for n in (1, 2, 3, 4):
        fixed = fixed_set(loaded, n)
        assert_all_kernel(subtree_rationals(fixed), f"Fix(f^{n})")
    assert_all_kernel(subtree_rationals(composite_fixed_set(None, loaded)), "fixed_point_set")
    assert_all_kernel(subtree_rationals(loaded.image()), "image")
    for p in tree.grid_points():
        assert_all_kernel(point_rationals(p), "grid point")
        assert_all_kernel(point_rationals(f.evaluate(p)), "image point")
        assert_all_kernel(arc_rationals(tree.arc(tree.grid_points()[0], p)), "arc")
