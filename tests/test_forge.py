import importlib
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from allostery import (
    Lamp,
    SubgroupDatum,
    WreathElement,
    WreathGroup,
    assign_primes,
    default_epsilon,
    forge,
    primes,
)
from allostery import base
from allostery.base import is_prime, minimal_exponent
from allostery.errors import DatumInvariantError, ForgeError
from allostery.forge import as_epsilon, prime_admissible

from conftest import HALF, fresh_rng
from sampling import check_member_closure


def test_forged_datum_single_lamp(d32):
    assert d32.p == 2
    assert d32.k == 3
    assert d32.l == 2
    assert d32.E == ((0,), (1,))
    assert d32.shift_index == 8
    assert d32.index() == 32
    assert d32.fixed_fraction() == Fraction(3, 4)
    assert d32.fixed_fraction() * d32.index() == 24


def test_forged_datum_pure_shift(d9):
    assert (d9.p, d9.k, d9.l) == (3, 1, 1)
    assert d9.E == ((0,),)
    assert d9.index() == 9
    assert d9.fixed_fraction() == Fraction(2, 3)


def test_forged_datum_higher_lamp_rank():
    group = WreathGroup(2, 1)
    gamma = group.parse_element("{(0):(1,0)};(0)")
    datum = forge(gamma, 2, HALF, 2, 1)
    assert (datum.k, datum.l) == (3, 2)
    assert datum.index() == 128


def test_forge_rejects_identity(group11):
    with pytest.raises(ForgeError):
        forge(group11.identity(), 2, HALF, 1, 1)


def test_forge_rejects_dividing_prime(group11):
    gamma = group11.parse_element("{(0):(2)};(0)")
    with pytest.raises(ForgeError):
        forge(gamma, 2, HALF, 1, 1)
    assert forge(gamma, 3, HALF, 1, 1).p == 3


def test_forge_rejects_bad_epsilon(group11):
    gamma = group11.parse_element("{(0):(1)};(0)")
    for eps in (0, 1, 2, Fraction(-1, 2)):
        with pytest.raises(ForgeError):
            forge(gamma, 2, eps, 1, 1)
    with pytest.raises(ForgeError):
        forge(gamma, 4, HALF, 1, 1)


def test_epsilon_accepts_strings(group11):
    gamma = group11.parse_element("{(0):(1)};(0)")
    assert forge(gamma, 2, "1/2", 1, 1) == forge(gamma, 2, HALF, 1, 1)
    assert as_epsilon("3/8") == Fraction(3, 8)


def test_membership_examples(d32, d9, group11):
    assert not d32.contains(d32.gamma)
    assert d32.contains(group11.parse_element("{(0):(2)};(8)"))
    assert d32.contains(group11.identity())
    assert not d32.contains(group11.parse_element("{(0):(2)};(4)"))
    assert not d9.contains(d9.gamma)
    assert d9.contains(group11.parse_element("{};(3)"))


def test_reduce_class_sums(d32, group11):
    """The shift mod p^k = 8, and lamp sums mod p = 2 over the classes mod 8,
    kept only where nonzero: the class of 1 sums to 2 and drops out."""
    x = group11.parse_element("{(0):(3),(1):(1),(9):(1),(2):(2),(-3):(1)};(13)")
    assert d32.reduce(x) == ((5,), {(0,): (1,), (5,): (1,)})
    y = group11.parse_element("{(0):(3),(1):(1)};(0)")
    assert d32.reduce(y) == ((0,), {(0,): (1,), (1,): (1,)})
    assert d32.reduce(group11.identity()) == ((0,), {})


def test_prime_admissible(group11):
    gamma = group11.parse_element("{(0):(6)};(0)")
    assert not prime_admissible(gamma, 2)
    assert not prime_admissible(gamma, 3)
    assert prime_admissible(gamma, 5)
    assert prime_admissible(group11.parse_element("{};(1)"), 2)


def test_assign_primes_basic(group11):
    s = group11.parse_element("{(0):(1)};(0)")
    t = group11.parse_element("{};(1)")
    assignment = assign_primes([s, t], epsilons=HALF)
    assert [p for _, p, _ in assignment.triples] == [2, 3]
    assert all(eps == HALF for _, _, eps in assignment.triples)
    data = assignment.forge_all(1, 1)
    assert [datum.index() for datum in data] == [32, 9]


def test_assign_primes_skips_dividing_primes(group11):
    six = group11.parse_element("{(0):(6)};(0)")
    assignment = assign_primes([six], epsilons=HALF)
    assert assignment.triples[0][1] == 5


def test_assign_primes_takes_skipped_primes_later(group11):
    """Each gamma gets the smallest admissible prime that no earlier gamma
    took, also when an earlier gamma skipped it."""
    texts = ["{(0):(30)};(0)", "{(0):(6)};(0)", "{(0):(2)};(0)", "{};(1)", "{(0):(1)};(0)"]
    gammas = [group11.parse_element(t) for t in texts]
    assert [p for _, p, _ in assign_primes(gammas).triples] == [7, 5, 3, 2, 11]
    pool = group11.ball(3)[1:]
    used, expected = set(), []
    for g in pool:
        p = next(q for q in primes() if q not in used and prime_admissible(g, q))
        used.add(p)
        expected.append(p)
    assert [p for _, p, _ in assign_primes(pool).triples] == expected


def test_assign_primes_schedule(group11):
    s = group11.parse_element("{(0):(1)};(0)")
    t = group11.parse_element("{};(1)")
    assignment = assign_primes([s, t])
    assert [eps for _, _, eps in assignment.triples] == [Fraction(1, 4), Fraction(1, 8)]


def test_assign_primes_rejects_bad_lists(group11):
    s = group11.parse_element("{(0):(1)};(0)")
    with pytest.raises(ForgeError):
        assign_primes([s, s])
    with pytest.raises(ForgeError):
        assign_primes([s, group11.identity()])
    assert assign_primes([]).forge_all(1, 1) == []


def test_default_epsilon_schedule():
    assert default_epsilon(0) == Fraction(1, 4)
    assert default_epsilon(3) == Fraction(1, 32)
    with pytest.raises(ValueError):
        default_epsilon(-1)
    product = Fraction(1)
    for i in range(20):
        product *= 1 - default_epsilon(i)
        assert product >= HALF


def test_validate_rejects_broken_data(d32):
    cases = [
        {"k": 0},
        {"k": 4},
        {"k": 10**30},
        {"l": 1},
        {"E": ((0,),)},
        {"E": ((0,), (0,))},
        {"E": ((0,), (8,))},
        {"E": ((1,), (2,))},
        {"epsilon": Fraction(2)},
        {"p": 6},
        {"epsilon": Fraction(1, 100)},
    ]
    for fields in cases:
        broken = d32._replace(**fields)
        with pytest.raises(DatumInvariantError):
            broken.validate()


def test_validate_rejects_broken_gamma(d32, d9, group11):
    bad_lamp = d32._replace(gamma=group11.parse_element("{(0):(2)};(0)"))
    with pytest.raises(DatumInvariantError):
        bad_lamp.validate()
    kernel_shift = d9._replace(gamma=group11.parse_element("{};(3)"))
    with pytest.raises(DatumInvariantError):
        kernel_shift.validate()
    trivial = d32._replace(gamma=group11.identity())
    with pytest.raises(DatumInvariantError):
        trivial.validate()


def test_forge_scans_k_once(group11, monkeypatch, d32):
    """forge tests p and scans for k once each and hands k to the datum's
    checks; validate on loaded data still does both, prime first."""
    forge_module = importlib.import_module("allostery.forge")
    scans, prime_tests = [], []

    def counting_scan(*args):
        scans.append(args)
        return minimal_exponent(*args)

    def counting_is_prime(n):
        prime_tests.append(n)
        return is_prime(n)

    monkeypatch.setattr(forge_module, "minimal_exponent", counting_scan)
    monkeypatch.setattr(forge_module, "is_prime", counting_is_prime)
    monkeypatch.setattr(base, "is_prime", counting_is_prime)
    forge(group11.parse_element("{(0):(1),(2):(1)};(1)"), 3, HALF, 1, 1)
    assert (len(scans), len(prime_tests)) == (1, 2)
    scans.clear()
    prime_tests.clear()
    SubgroupDatum.from_dict(d32.to_dict(), "d32")
    assert (len(scans), len(prime_tests)) == (1, 2)
    with pytest.raises(DatumInvariantError, match="p=4 is not prime"):
        d32._replace(p=4, k=0).validate()


def test_round_trip(d32, d9):
    for datum in (d32, d9):
        rec = datum.to_dict()
        assert list(rec) == ["gamma", "p", "k", "l", "E", "epsilon", "d", "m"]
        assert SubgroupDatum.from_dict(rec, "rec") == datum
        assert SubgroupDatum.from_dict(json.loads(json.dumps(rec)), "rec") == datum
    assert d32.to_dict()["epsilon"] == "1/2"
    assert d32.to_dict()["E"] == [[0], [1]]


def test_gamma_never_in_own_subgroup(group11):
    pool = group11.ball(2)[1:]
    for datum in assign_primes(pool, epsilons=HALF).forge_all(1, 1):
        datum.validate()
        assert not datum.contains(datum.gamma)


def test_member_closure_samples(d32, d9):
    rng = fresh_rng(7)
    for _ in range(50):
        assert check_member_closure(rng, d32)
        assert check_member_closure(rng, d9)


@given(
    st.dictionaries(
        st.integers(-3, 3).map(lambda x: (x,)),
        st.integers(-3, 3).map(lambda x: (x,)),
        max_size=2,
    ),
    st.integers(-4, 4).map(lambda x: (x,)),
    st.sampled_from([2, 3, 5]),
)
def test_forged_invariants_hold(items, shift, p):
    gamma = WreathElement(Lamp.of(items), shift)
    assume(not gamma.is_identity())
    assume(prime_admissible(gamma, p))
    datum = forge(gamma, p, HALF, 1, 1)
    datum.validate()
    assert datum.l == len(gamma.lamp.support) + 1
    assert datum.index() == p ** (datum.k + datum.l)
    assert not datum.contains(gamma)
    assert Fraction(datum.l) < HALF * datum.shift_index
