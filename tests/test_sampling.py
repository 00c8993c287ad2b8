import pytest

from allostery import Window, WreathGroup, audit_castle
from allostery.errors import WindowError

from conftest import fresh_rng
from sampling import (
    check_member_closure,
    random_castle,
    random_chunked_castle,
    random_comparison_pair,
    random_element,
    random_member,
    random_nontrivial,
    random_subset,
)


def test_random_element_respects_ranks():
    rng = fresh_rng(1)
    group = WreathGroup(2, 2)
    for _ in range(30):
        x = random_element(rng, group, max_support=3)
        group.validate_element(x)
        assert len(x.lamp) <= 3


def test_random_nontrivial(group11):
    rng = fresh_rng(2)
    for _ in range(30):
        assert not random_nontrivial(rng, group11).is_identity()


def test_random_member_lands_in_subgroup(d32, d9, d25):
    rng = fresh_rng(3)
    for datum in (d32, d9, d25):
        for _ in range(40):
            a = random_member(rng, datum)
            b = random_member(rng, datum)
            assert datum.contains(a)
            assert datum.contains(b)
            assert datum.contains(a * b)
            assert datum.contains(a.inverse())
    assert check_member_closure(rng, d32)


def test_random_subset_and_pair(w288):
    rng = fresh_rng(4)
    subset = random_subset(rng, w288, 7)
    assert len(subset) == 7
    assert all(w288.flat_index(s) < 288 for s in subset)
    for _ in range(10):
        a_set, b_set = random_comparison_pair(rng, w288)
        assert 1 <= len(a_set) < len(b_set) <= 16


def test_random_castles_are_well_formed(w9, w32, w288, group11):
    rng = fresh_rng(5)
    gamma = group11.parse_element("{};(1)")
    for window in (w9, w32, w288):
        for _ in range(8):
            for castle in (random_castle(rng, window), random_chunked_castle(rng, window)):
                audit = audit_castle(castle, gamma, window)
                assert audit["inequality_ok"]


def test_random_castle_needs_levels():
    with pytest.raises(WindowError):
        random_castle(fresh_rng(0), Window([]))


def test_seeded_determinism(w9):
    first = random_castle(fresh_rng(9), w9).to_dict(w9)
    second = random_castle(fresh_rng(9), w9).to_dict(w9)
    assert first == second
    pair_a = random_comparison_pair(fresh_rng(9), w9)
    pair_b = random_comparison_pair(fresh_rng(9), w9)
    assert pair_a == pair_b
