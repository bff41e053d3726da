from fractions import Fraction as F

import pytest

from dendrodyn import PreconditionError, StructureError
from dendrodyn.dynamics import (
    decide_pointwise_recurrent,
    fixed_set,
    vertex_period,
)
from dendrodyn.fixtures import (
    FIXTURE_KINDS,
    build_fixture,
    interval_flip,
    odometer_tower,
    random_finite_order_map,
    random_folding_map,
    rotation_star,
    shift_and_tent,
    star_dendrite,
    stem_collapse_map,
    stem_sweep_map,
)
from oracles import arc_subtree, is_identity, maps_equal, stem_sweep_spread


# -- interval instances ----------------------------------------------------------


def test_interval_flip_has_order_two():
    _, f = interval_flip()
    verdict = decide_pointwise_recurrent(f)
    assert verdict.pointwise_recurrent and verdict.identity_power == 2


def test_shift_and_tent_are_negative_instances():
    pairs = shift_and_tent()
    shift_verdict = decide_pointwise_recurrent(pairs["shift"][1])
    assert not shift_verdict.pointwise_recurrent
    assert shift_verdict.witness.kind == "escaping-orbit"
    tent_verdict = decide_pointwise_recurrent(pairs["tent"][1])
    assert not tent_verdict.pointwise_recurrent
    assert tent_verdict.witness.kind == "non-injective"


# -- rotating stars ---------------------------------------------------------------


def test_rotation_star_orders():
    for arms in (2, 3, 5):
        _, f = rotation_star(arms)
        verdict = decide_pointwise_recurrent(f)
        assert verdict.pointwise_recurrent and verdict.identity_power == arms


def test_rotation_star_rejects_single_arm():
    with pytest.raises(PreconditionError):
        rotation_star(1)


# -- the collapsing stem ------------------------------------------------------------


def test_star_dendrite_structure():
    tree = star_dendrite(5)
    assert [tree.edge_length(f"arm{j}") for j in range(2, 6)] == [
        F(1, 2),
        F(1, 3),
        F(1, 4),
        F(1, 5),
    ]
    assert tree.edge_length("stem") == 1
    assert len(star_dendrite(3).vertex_ids) == 4
    assert len(star_dendrite(2).edge_ids) == 2  # a bare path
    with pytest.raises(PreconditionError):
        star_dendrite(1)


def test_stem_collapse_fixed_set_frozen_at_k3():
    tree, f = stem_collapse_map(3)
    fix = fixed_set(f, 1)
    assert fix.vertices == frozenset({"s", "l2", "l3"})
    assert fix.segments == {
        "arm2": ((F(1, 2), F(1)),),
        "arm3": ((F(1, 2), F(1)),),
    }


def test_stem_collapse_gap_shrinks_with_truncation():
    for k in (3, 5, 8):
        tree, f = stem_collapse_map(k)
        fix = fixed_set(f, 1)
        center = tree.vertex_point("c")
        assert not fix.contains(center)
        gap = min(tree.distance(center, p) for p in fix.corner_points())
        assert gap == F(1, 2 * k)


def test_stem_collapse_is_a_negative_instance():
    _, f = stem_collapse_map(4)
    injective, pair = f.is_injective()
    assert not injective
    assert f.evaluate(pair[0]) == f.evaluate(pair[1])
    assert not decide_pointwise_recurrent(f).pointwise_recurrent


# -- the sweeping stem ---------------------------------------------------------------


def test_stem_sweep_covers_each_arm_from_its_segment():
    tree, f = stem_sweep_map(4)
    # the segment between heights 1/4 and 1/2 sweeps the first arm
    seg = tree.arc(tree.edge_point("stem", F(1, 4)), tree.edge_point("stem", F(1, 2)))
    image = f.image_of_subtree(arc_subtree(seg))
    assert image.segments == {"arm2": ((F(0), F(1)),)}
    # deepest available segment reaches the last arm
    deep = tree.arc(
        tree.edge_point("stem", F(1, 32)), tree.edge_point("stem", F(1, 16))
    )
    assert "arm5" in f.image_of_subtree(arc_subtree(deep)).segments


def test_stem_sweep_pointwise_values():
    tree, f = stem_sweep_map(4)
    assert f.evaluate(tree.vertex_point("s")) == tree.vertex_point("c")
    assert f.evaluate(tree.vertex_point("c")) == tree.vertex_point("s")
    # midpoint of the segment between 1/4 and 1/2 hits the arm tip
    assert f.evaluate(tree.edge_point("stem", F(3, 8))) == tree.vertex_point("l2")
    # cut heights all land on the branch vertex
    for m in range(1, 5):
        assert f.evaluate(tree.edge_point("stem", F(1, 2**m))) == tree.vertex_point("c")
    # below the deepest cut the map is constant
    assert f.evaluate(tree.edge_point("stem", F(1, 64))) == tree.vertex_point("c")


def test_stem_sweep_spread_frozen():
    assert stem_sweep_spread(4, F(1, 16)) == F(6, 5)
    assert stem_sweep_spread(4, F(1, 16)) >= F(1, 3)
    assert stem_sweep_spread(3) == F(5, 4)
    with pytest.raises(PreconditionError):
        stem_sweep_spread(4, F(3, 2))


def test_stem_sweep_needs_two_segments():
    with pytest.raises(PreconditionError):
        stem_sweep_map(1)


# -- odometer towers -----------------------------------------------------------------


def test_tower_structure_and_periods():
    tree, f = odometer_tower(2, (2, 4))
    assert len(tree.vertex_ids) == 8  # root, stem leaf, 2 middle, 4 leaves
    assert vertex_period(f, "r") == 1
    assert vertex_period(f, "s") == 1
    assert vertex_period(f, "n1_0") == 2
    assert vertex_period(f, "n2_3") == 4
    verdict = decide_pointwise_recurrent(f)
    assert verdict.pointwise_recurrent and verdict.identity_power == 4


def test_tower_every_attachment_is_a_branch_vertex():
    tree, _ = odometer_tower(3, (2, 4, 8))
    assert tree.degree("r") == 3
    for name in ("n1_0", "n1_1", "n2_0", "n2_3"):
        assert tree.degree(name) == 3


def test_tower_leaf_periods_match_the_last_period():
    tree, f = odometer_tower(3, (2, 4, 8))
    for j in range(8):
        assert vertex_period(f, f"n3_{j}") == 8


def test_tower_validates_inputs():
    with pytest.raises(PreconditionError):
        odometer_tower(3, (2, 4))  # depth mismatch
    with pytest.raises(PreconditionError):
        odometer_tower(2, (4, 2))  # not increasing
    with pytest.raises(PreconditionError):
        odometer_tower(2, (2, 3))  # not a multiple


# -- seeded generators ----------------------------------------------------------------


def test_finite_order_generator_is_always_recurrent():
    for seed in range(50):
        tree, f = random_finite_order_map(seed, seed * 31 + 7)
        assert len(tree.vertex_ids) <= 12
        verdict = decide_pointwise_recurrent(f)
        assert verdict.pointwise_recurrent, f"seed {seed}"
        assert is_identity(f.iterate(verdict.identity_power))


def test_finite_order_generator_frozen_orders():
    _, f = random_finite_order_map(0, 1)
    assert decide_pointwise_recurrent(f).identity_power == 1  # identity rotation
    _, g = random_finite_order_map(0, 0)
    assert decide_pointwise_recurrent(g).identity_power == 2


def test_folding_generator_is_never_injective():
    for seed in range(50):
        _, f = random_folding_map(seed)
        verdict = decide_pointwise_recurrent(f)
        assert not verdict.pointwise_recurrent, f"seed {seed}"
        assert verdict.witness.kind == "non-injective"
        a, b = verdict.witness.points
        assert a != b
        assert f.evaluate(a) == f.evaluate(b)


def test_generators_are_deterministic():
    t1, f1 = random_finite_order_map(7, 8)
    t2, f2 = random_finite_order_map(7, 8)
    assert t1 == t2
    assert maps_equal(f1, f2)
    t3, f3 = random_folding_map(13)
    t4, f4 = random_folding_map(13)
    assert t3 == t4
    assert maps_equal(f3, f4)


# -- registry --------------------------------------------------------------------------


def test_build_fixture_covers_every_kind():
    for kind in FIXTURE_KINDS:
        tree, f = build_fixture(kind)
        assert f.domain == tree


def test_build_fixture_accepts_parameters():
    tree, f = build_fixture("rotation", {"arms": 4})
    assert decide_pointwise_recurrent(f).identity_power == 4
    tree, f = build_fixture("tower", {"depth": 2, "periods": "2,4"})
    assert len(tree.vertex_ids) == 8
    tree, f = build_fixture("random_folding", {"seed": 3})
    assert not f.is_injective()[0]


def test_build_fixture_rejects_bad_input():
    with pytest.raises(StructureError):
        build_fixture("nonsense")
    with pytest.raises(PreconditionError):
        build_fixture("rotation", {"arms": 4, "extra": 1})
    with pytest.raises(PreconditionError):
        build_fixture("rotation", {"arms": 1})


@pytest.mark.parametrize(
    "kind, params, name",
    [
        ("rotation", {"arms": "abc"}, "arms"),
        ("rotation", {"arm_length": "1/0"}, "arm_length"),
        ("tower", {"periods": "2,x"}, "periods"),
        ("tower", {"depth": None}, "depth"),
        ("random_folding", {"seed": "abc"}, "seed"),
        ("random_finite_order", {"seed": "zz"}, "seed"),
        ("random_finite_order", {"order_seed": "1.5"}, "order_seed"),
        ("star", {"k": "four"}, "k"),
        # only an int that is not a bool, or a string, is read: nothing is coerced
        ("rotation", {"arms": 4.7}, "arms"),
        ("tower", {"periods": [2.5, 5]}, "periods"),
        ("star", {"k": True}, "k"),
        ("random_folding", {"seed": 3.9}, "seed"),
        ("rotation", {"arm_length": 1.5}, "arm_length"),
    ],
)
def test_build_fixture_names_a_parameter_that_is_not_a_number(kind, params, name):
    with pytest.raises(PreconditionError, match=f"parameter '{name}' is not a number"):
        build_fixture(kind, params)
