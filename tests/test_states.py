from fractions import Fraction

import pytest

from entropy_engine.errors import RelationSpecError
from entropy_engine.states import (
    compound,
    make_space,
    signed_sides,
    single,
)

HALF = Fraction(1, 2)


def test_state_space_and_compound_state_records():
    g = make_space("G", ["1"], ["x", "y"])
    text = ("StateSpace(space_id='G', composition=(Fraction(1, 1),), "
            "state_ids=('x', 'y'))")
    assert repr(g) == str(g) == text
    assert g == make_space("G", [1], ["x", "y"])
    assert g != make_space("G", [1], ["x", "z"])
    assert hash(g) == hash(("G", (Fraction(1),), ("x", "y")))
    c = compound([(HALF, "G", "z"), (HALF, "G", "y")])
    assert repr(c) == ("CompoundState(parts=(('G', 'y', Fraction(1, 2)), "
                       "('G', 'z', Fraction(1, 2))))")
    assert str(c) == "(1/2 G.y, 1/2 G.z)"
    assert c == compound([(HALF, "G", "y"), (HALF, "G", "z")])
    assert c != single("G", "y")
    assert hash(c) == hash(c.parts)


def test_parts_are_canonically_sorted():
    a = compound([(Fraction(1, 2), "G", "y"), (Fraction(1), "G", "x")])
    b = compound([(Fraction(1), "G", "x"), (Fraction(1, 2), "G", "y")])
    assert a == b
    assert hash(a) == hash(b)


def test_equal_multisets_keep_multiplicity():
    two_halves = compound([(Fraction(1, 2), "G", "x"), (Fraction(1, 2), "G", "x")])
    assert len(two_halves) == 2
    assert two_halves != single("G", "x")


def test_zero_scale_parts_vanish():
    x = compound([(1, "G", "x"), (0, "G", "y")])
    assert x == single("G", "x")


def test_negative_scale_rejected_in_compound():
    with pytest.raises(RelationSpecError):
        compound([(-1, "G", "x")])


def test_empty_compound_rejected():
    with pytest.raises(RelationSpecError):
        compound([(0, "G", "x")])


def test_scale_multiplies_every_part():
    x = compound([(1, "G", "a"), (Fraction(1, 2), "H", "b")])
    half = x.scale(Fraction(1, 2))
    assert half.parts == (
        ("G", "a", Fraction(1, 2)),
        ("H", "b", Fraction(1, 4)),
    )


def test_total_scale_by_space():
    x = compound([(1, "G", "a"), (Fraction(1, 2), "G", "b"), (2, "H", "c")])
    assert x.total_scale_by_space() == {"G": Fraction(3, 2), "H": Fraction(2)}


def test_composition_weights_by_scale():
    spaces = {
        "G": make_space("G", [2, 0], ["a"]),
        "H": make_space("H", [0, 16], ["c"]),
    }
    x = compound([(1, "G", "a"), (Fraction(1, 2), "H", "c")])
    assert x.composition(spaces) == (Fraction(2), Fraction(8))


def test_signed_sides_moves_negative_parts_across():
    # (X, -Y) below Z means X below (Y, Z)
    left, right = signed_sides(
        [(1, "G", "x"), (-1, "G", "y")], [(1, "G", "z")]
    )
    assert left == single("G", "x")
    assert right == compound([(1, "G", "y"), (1, "G", "z")])


def test_signed_sides_drops_zero_parts():
    left, right = signed_sides(
        [(1, "G", "x"), (0, "G", "y")], [(1, "G", "z")]
    )
    assert left == single("G", "x")
    assert right == single("G", "z")


def test_signed_sides_rejects_empty_side():
    with pytest.raises(RelationSpecError):
        signed_sides([(1, "G", "x")], [(0, "G", "y")])


def test_duplicate_state_ids_rejected():
    with pytest.raises(RelationSpecError):
        make_space("G", [1], ["a", "a"])
