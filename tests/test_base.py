from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from allostery import CongruenceSubgroup, is_prime, minimal_exponent, primes
from allostery.base import add, neg, sub, zero
from allostery.errors import RankMismatchError


def vecs(rank, lo=-20, hi=20):
    return st.lists(st.integers(lo, hi), min_size=rank, max_size=rank).map(tuple)


def test_vector_group_law():
    assert add((3,), (-3,)) == (0,)
    assert add((1, 2), (0, 0)) == (1, 2)
    assert add((5,), (7,)) == (12,)
    assert neg((2, -3)) == (-2, 3)
    assert sub((5,), (7,)) == (-2,)
    assert zero(3) == (0, 0, 0)


def test_rank_mismatch():
    with pytest.raises(RankMismatchError):
        add((1,), (1, 2))


def test_is_prime_and_stream():
    assert [p for p in [2, 3, 5, 7, 11, 13] if is_prime(p)] == [2, 3, 5, 7, 11, 13]
    assert not any(is_prime(n) for n in [0, 1, 4, 9, 15, 49])
    gen = primes()
    assert [next(gen) for _ in range(6)] == [2, 3, 5, 7, 11, 13]


def _trial_division(n):
    return n > 1 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    expected = [n for n in range(-3, 20000) if _trial_division(n)]
    assert [n for n in range(-3, 20000) if is_prime(n)] == expected
    gen = primes()
    assert [next(gen) for _ in expected] == expected


def test_is_prime_past_trial_division():
    # The least strong pseudoprimes to the prime bases up to 2, 7 and 31.
    assert not any(is_prime(n) for n in [2047, 3215031751, 3825123056546413051])
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    with pytest.raises(ValueError):
        is_prime(318_665_857_834_031_151_167_461)
    with pytest.raises(ValueError):
        is_prime(2**127 - 1)


def test_reduce_examples():
    sub8 = CongruenceSubgroup(2, 3, 1)
    assert sub8.reduce((5,)) == (5,)
    assert sub8.reduce((8,)) == (0,)
    sub3 = CongruenceSubgroup(3, 1, 1)
    assert sub3.reduce((-1,)) == (2,)


def test_kernel_examples():
    assert CongruenceSubgroup(2, 3, 1).contains((8,))
    assert not CongruenceSubgroup(2, 2, 1).contains((6,))
    assert CongruenceSubgroup(3, 2, 2).contains((0, 9))


def test_modulus_and_index():
    subgroup = CongruenceSubgroup(2, 3, 2)
    assert subgroup.modulus == 8
    assert subgroup.index == 64
    assert len(list(subgroup.residues())) == 64


def test_residues_sorted_lex():
    sub = CongruenceSubgroup(2, 1, 2)
    assert list(sub.residues()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for p, k, rank in [(2, 1, 1), (3, 2, 1), (2, 2, 2), (5, 1, 3), (3, 1, 2)]:
        q = p**k
        assert list(CongruenceSubgroup(p, k, rank).residues()) == list(
            product(range(q), repeat=rank)
        )


def test_residues_are_lazy():
    residues = CongruenceSubgroup(2, 60, 1).residues()
    assert next(residues) == (0,)
    assert next(residues) == (1,)
    wide = CongruenceSubgroup(3, 40, 2).residues()
    assert [next(wide) for _ in range(3)] == [(0, 0), (0, 1), (0, 2)]


def test_bad_subgroup_parameters():
    with pytest.raises(ValueError):
        CongruenceSubgroup(4, 1, 1)
    with pytest.raises(ValueError):
        CongruenceSubgroup(2, 0, 1)
    with pytest.raises(ValueError):
        CongruenceSubgroup(2, 1, 0)


def test_minimal_exponent_examples():
    assert minimal_exponent(2, 1, [(6,)], 4) == 3
    assert minimal_exponent(3, 1, [(1,)], 2) == 1
    assert minimal_exponent(2, 1, [], 1) == 1


def test_minimal_exponent_fractional_bound():
    # bound l/epsilon arrives as an exact rational; 2/(1/2) = 4 behaves like 4
    assert minimal_exponent(2, 1, [], Fraction(2, Fraction(1, 2))) == 3


def test_minimal_exponent_rejects_identity():
    with pytest.raises(ValueError):
        minimal_exponent(2, 1, [(0,)], 1)


@given(
    st.integers(1, 6),
    st.lists(vecs(1, -40, 40).filter(lambda v: v != (0,)), max_size=3),
)
def test_minimal_exponent_minimality(bound, avoid):
    k = minimal_exponent(2, 1, avoid, bound)

    def satisfies(kk):
        sub = CongruenceSubgroup(2, kk, 1)
        return sub.index > bound and not any(sub.contains(v) for v in avoid)

    assert satisfies(k)
    if k > 1:
        assert not satisfies(k - 1)


@given(vecs(2), vecs(2), st.sampled_from([2, 3, 5]), st.integers(1, 3))
def test_reduce_is_a_homomorphism(a, b, p, k):
    sub = CongruenceSubgroup(p, k, 2)
    assert sub.reduce(add(a, b)) == sub.reduce(add(sub.reduce(a), sub.reduce(b)))


@given(vecs(2), st.sampled_from([2, 3, 5]), st.integers(1, 3))
def test_kernel_iff_zero_residue(v, p, k):
    subgroup = CongruenceSubgroup(p, k, 2)
    assert subgroup.contains(v) == (subgroup.reduce(v) == (0, 0))
    assert subgroup.reduce(subgroup.reduce(v)) == subgroup.reduce(v)
    assert subgroup.contains(sub(v, subgroup.reduce(v)))
