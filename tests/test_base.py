"""Vectors of Z^m, primes, residues and exponents (``allostery.base``), and
reading elements modulo a congruence subgroup (``SubgroupDatum.reduce``)."""

import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from allostery import Lamp, SubgroupDatum, WreathElement, is_prime, minimal_exponent, primes
from allostery import base
from allostery.base import add, frac_str, neg, residues, sub, zero
from allostery.errors import DatumInvariantError, RankMismatchError


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


def test_prime_sieve_matches_is_prime():
    """The first 10,000 primes of the sieve are the numbers is_prime keeps."""
    expected = [n for n in range(104_730) if is_prime(n)]
    assert len(expected) == 10_000
    gen = primes()
    assert [next(gen) for _ in range(10_000)] == expected


def test_is_prime_past_trial_division():
    # The least strong pseudoprimes to the prime bases up to 2, 7 and 31.
    assert not any(is_prime(n) for n in [2047, 3215031751, 3825123056546413051])
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    with pytest.raises(ValueError):
        is_prime(318_665_857_834_031_151_167_461)
    with pytest.raises(ValueError):
        is_prime(2**127 - 1)


def shift(v):
    return WreathElement(Lamp(), tuple(v))


def datum(p, k, m):
    """A datum used only to read elements modulo (p^k Z)^m; not validated."""
    return SubgroupDatum(shift(zero(m)), p, k, 1, (zero(m),), Fraction(1, 2), 1, m)


def residue(p, k, v):
    """The shift residue of v mod p^k."""
    return datum(p, k, len(v)).reduce(shift(v))[0]


def test_reduce_examples():
    assert residue(2, 3, (5,)) == (5,)
    assert residue(2, 3, (8,)) == (0,)
    assert residue(3, 1, (-1,)) == (2,)


def test_kernel_examples():
    assert datum(2, 3, 1).contains(shift((8,)))
    assert not datum(2, 2, 1).contains(shift((6,)))
    assert datum(3, 2, 2).contains(shift((0, 9)))


def test_modulus_and_index():
    dat = datum(2, 3, 2)
    assert dat.modulus == 8
    assert dat.shift_index == 64
    assert len(list(residues(8, 2))) == 64


def test_residues_sorted_lex():
    assert list(residues(2, 2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for p, k, rank in [(2, 1, 1), (3, 2, 1), (2, 2, 2), (5, 1, 3), (3, 1, 2)]:
        q = p**k
        assert list(residues(q, rank)) == list(product(range(q), repeat=rank))


def test_residues_are_lazy():
    lazy = residues(2**60, 1)
    assert next(lazy) == (0,)
    assert next(lazy) == (1,)
    wide = residues(3**40, 2)
    assert [next(wide) for _ in range(3)] == [(0, 0), (0, 1), (0, 2)]


def test_bad_subgroup_parameters(d32):
    with pytest.raises(ValueError, match="4 is not prime"):
        minimal_exponent(4, 1, [], 1)
    with pytest.raises(ValueError, match="rank must be >= 1"):
        minimal_exponent(2, 0, [], 1)
    with pytest.raises(DatumInvariantError, match="k must be >= 1"):
        d32._replace(k=0).validate()


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


def separates(p, rank, k, avoid, bound):
    """The definition: (p^k Z)^rank has index p^(k*rank) above bound and
    contains no vector of avoid."""
    q = p**k
    return q**rank > bound and not any(all(c % q == 0 for c in v) for v in avoid)


@given(
    st.integers(1, 6),
    st.lists(vecs(1, -40, 40).filter(lambda v: v != (0,)), max_size=3),
)
def test_minimal_exponent_minimality(bound, avoid):
    k = minimal_exponent(2, 1, avoid, bound)
    assert separates(2, 1, k, avoid, bound)
    if k > 1:
        assert not separates(2, 1, k - 1, avoid, bound)


@given(st.data())
def test_minimal_exponent_matches_definition(data):
    p = data.draw(st.sampled_from([2, 3, 5]), label="p")
    rank = data.draw(st.sampled_from([1, 2]), label="rank")
    bound = data.draw(
        st.one_of(st.integers(0, 3000), st.fractions(0, 3000, max_denominator=64)), label="bound"
    )
    avoid = data.draw(st.lists(vecs(rank, -300, 300).filter(any), max_size=3), label="avoid")
    k = minimal_exponent(p, rank, avoid, bound)
    assert separates(p, rank, k, avoid, bound)
    assert not any(separates(p, rank, kk, avoid, bound) for kk in range(1, k))


def test_minimal_exponent_tests_its_prime_once(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(base, "is_prime", counting)
    assert minimal_exponent(2, 2, [(1024, 0), (0, 3)], 10**6) == 11
    assert calls == [2]
    calls.clear()
    with pytest.raises(ValueError, match="9 is not prime"):
        minimal_exponent(9, 1, [(1,)], 10**6)
    assert calls == [9]


@given(vecs(2), vecs(2), st.sampled_from([2, 3, 5]), st.integers(1, 3))
def test_reduce_is_a_homomorphism(a, b, p, k):
    assert residue(p, k, add(a, b)) == residue(p, k, add(residue(p, k, a), residue(p, k, b)))
    # On lamps alone (shift 0) the class sums add.
    x = WreathElement(Lamp.of({a: (1,)}), zero(2))
    y = WreathElement(Lamp.of({b: (2,)}), zero(2))
    (_, sx), (_, sy), (_, sxy) = map(datum(p, k, 2).reduce, (x, y, x * y))
    total = {q: ((sx.get(q, (0,))[0] + sy.get(q, (0,))[0]) % p,) for q in {**sx, **sy}}
    assert sxy == {q: s for q, s in total.items() if any(s)}


@given(vecs(2), st.sampled_from([2, 3, 5]), st.integers(1, 3))
def test_kernel_iff_zero_residue(v, p, k):
    dat = datum(p, k, 2)
    delta = residue(p, k, v)
    assert dat.contains(shift(v)) == (delta == (0, 0))
    assert residue(p, k, delta) == delta
    assert dat.contains(shift(sub(v, delta)))


def test_frac_str_passes_the_digit_limit_and_keeps_it(default_digit_limit):
    """A record's rational may have more digits than the interpreter turns
    into text by default; frac_str spells it whole, and the limit that
    input is read under is as it was afterwards."""
    q = Fraction(3, 10**5000)
    with pytest.raises(ValueError):
        str(q.denominator)
    assert frac_str(q) == "3/1" + "0" * 5000
    assert sys.get_int_max_str_digits() == 4300
    with pytest.raises(ValueError):
        int("9" * 5000)
