import random
import sys
from fractions import Fraction

import pytest

from allostery import Castle, Tower, Window, WreathGroup, forge

HALF = Fraction(1, 2)


@pytest.fixture()
def default_digit_limit():
    """The interpreter's default limit of 4,300 digits on integers read from
    text, whatever limit the run was started with; restored afterwards."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.fixture(scope="session")
def group11():
    return WreathGroup(1, 1)


@pytest.fixture(scope="session")
def d32(group11):
    return forge(group11.parse_element("{(0):(1)};(0)"), 2, HALF, 1, 1)


@pytest.fixture(scope="session")
def d81(group11):
    return forge(group11.parse_element("{(0):(1)};(0)"), 3, HALF, 1, 1)


@pytest.fixture(scope="session")
def d9(group11):
    return forge(group11.parse_element("{};(1)"), 3, HALF, 1, 1)


@pytest.fixture(scope="session")
def d25(group11):
    return forge(group11.parse_element("{};(-1)"), 5, HALF, 1, 1)


@pytest.fixture(scope="session")
def w32(d32):
    return Window([d32])


@pytest.fixture(scope="session")
def w9(d9):
    return Window([d9])


@pytest.fixture(scope="session")
def w288(d32, d9):
    return Window([d32, d9])


def make_transversal_castle(window):
    """One tower: a single base state and the Schreier transversal as shapes."""
    orb = window.orbit(window.identity_thread())
    shapes = tuple(window.group.word_element(orb.words[s]) for s in orb.order)
    return Castle(towers=(Tower(base=frozenset({orb.start}), shapes=shapes),))


def fresh_rng(seed=0):
    return random.Random(seed)
