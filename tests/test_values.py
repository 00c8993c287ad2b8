"""Value types are immutable tuples that keep their field names, keyword
construction and checks, and importing the CLI loads no ``dataclasses``."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from allostery import (
    Castle,
    Lamp,
    RunConfig,
    SubgroupDatum,
    Tower,
    WreathElement,
    WreathGroup,
    minimal_exponent,
)


def test_cli_import_loads_no_dataclasses():
    """Run in a child process: pytest itself imports ``dataclasses``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import allostery.cli, sys; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_lamp_checks_its_entries():
    with pytest.raises(ValueError, match="sorted by distinct positions"):
        Lamp((((1,), (1,)), ((0,), (1,))))
    with pytest.raises(ValueError, match="sorted by distinct positions"):
        Lamp(entries=(((0,), (1,)), ((0,), (2,))))
    with pytest.raises(ValueError, match="nonzero"):
        Lamp((((0,), (0,)),))
    lamp = Lamp(entries=[((0,), (1,)), ((2,), (-1,))])
    assert lamp.entries == (((0,), (1,)), ((2,), (-1,)))
    assert lamp.support == ((0,), (2,))
    assert Lamp() == Lamp.of({}) and Lamp().is_zero()


def test_bad_primes_and_ranks_are_rejected():
    with pytest.raises(ValueError, match="4 is not prime"):
        minimal_exponent(4, 1, [], 1)
    with pytest.raises(ValueError, match="rank must be >= 1"):
        minimal_exponent(p=2, rank=0, avoid=[], index_bound=1)
    for d, m in ((0, 1), (1, 0), (-1, -1)):
        with pytest.raises(ValueError, match="ranks d and m must be >= 1"):
            WreathGroup(d, m)
    group = WreathGroup(d=2, m=1)
    assert (group.d, group.m) == (2, 1)


def test_fields_cannot_be_assigned(group11, d32):
    x = group11.generators()[0]
    castle = Castle(towers=())
    targets = [
        (x, "lamp"),
        (x, "shift"),
        (x, "other"),
        (x.lamp, "entries"),
        (x.lamp, "other"),
        (group11, "d"),
        (group11, "m"),
        (d32, "p"),
        (d32, "epsilon"),
        (castle, "epsilon"),
        (Tower(base=frozenset(), shapes=()), "shapes"),
        (RunConfig(), "radius"),
    ]
    for obj, field in targets:
        with pytest.raises(AttributeError):
            setattr(obj, field, None)


def test_equal_elements_hash_equal(group11):
    s1, _, t1, T1 = group11.generators()
    parsed = group11.parse_element("{(1):(1),(0):(1)};(0)")
    by_word = group11.word_element(group11.parse_word("s1.t1.s1.T1"))
    by_product = s1 * t1 * s1 * T1
    built = WreathElement(lamp=Lamp.of({(0,): (1,), (1,): (1,)}), shift=(0,))
    assert parsed == by_word == by_product == built
    assert len({hash(parsed), hash(by_word), hash(by_product), hash(built)}) == 1
    assert {parsed: "x"}[by_product] == "x"
    assert parsed.lamp == by_word.lamp and hash(parsed.lamp) == hash(by_product.lamp)
    assert by_product * by_product.inverse() == group11.identity()
    assert hash(by_product * by_product.inverse()) == hash(group11.identity())


def test_datum_keywords_and_replace_round_trip(d32):
    fields = d32._asdict()
    assert SubgroupDatum(**fields) == d32
    assert list(fields) == ["gamma", "p", "k", "l", "E", "epsilon", "d", "m"]
    lowered = d32._replace(epsilon=Fraction(1, 8))
    assert lowered.epsilon == Fraction(1, 8) and d32.epsilon == Fraction(1, 2)
    assert lowered._replace(epsilon=d32.epsilon) == d32
    assert hash(lowered._replace(epsilon=d32.epsilon)) == hash(d32)
    assert SubgroupDatum.from_dict(d32.to_dict(), "d32") == d32
    assert d32.index() == 32 and (d32.modulus, d32.shift_index) == (8, 8)


def test_castle_replace_keeps_towers(w32):
    tower = Tower(base=frozenset({(0,)}), shapes=(w32.group.identity(),))
    castle = Castle(towers=(tower,))
    assert castle.epsilon is None
    eased = castle._replace(epsilon=Fraction(1, 4))
    assert eased.towers is castle.towers and eased.epsilon == Fraction(1, 4)
    assert tower.shape_texts == ("{};(0)",) and tower.base == frozenset({(0,)})
