from fractions import Fraction

import pytest

from allostery import RunConfig, apply_env, load_config, parse_config
from allostery.config import ENV_BUDGET, parse_epsilon_mode
from allostery.errors import TextParseError


def test_defaults():
    cfg = RunConfig()
    cfg.validate()
    assert (cfg.d, cfg.m, cfg.radius) == (1, 1, 1)
    assert cfg.epsilon == "schedule"
    assert cfg.budget_states == 10**6
    assert cfg.format == "json"
    assert cfg.out is None


def test_validate_rejects_bad_values():
    bad = [
        {"d": 0},
        {"m": -1},
        {"radius": -1},
        {"budget_states": 0},
        {"format": "xml"},
        {"epsilon": "often"},
        {"epsilon": Fraction(3, 2)},
    ]
    for fields in bad:
        cfg = RunConfig(**fields)
        with pytest.raises(ValueError):
            cfg.validate()


def test_epsilon_modes():
    cfg = RunConfig()
    assert cfg.epsilon_arg() is None
    fixed = RunConfig(epsilon=Fraction(1, 2))
    assert fixed.epsilon_arg() == Fraction(1, 2)
    assert parse_epsilon_mode("schedule") == "schedule"
    assert parse_epsilon_mode(" 1/2 ") == Fraction(1, 2)
    with pytest.raises(TextParseError):
        parse_epsilon_mode("1/0")
    with pytest.raises(TextParseError):
        parse_epsilon_mode("never")


def test_parse_config_full():
    cfg = parse_config(
        "# run settings\n"
        "\n"
        "d = 1\n"
        "m = 1\n"
        "radius = 2\n"
        "epsilon = 1/8\n"
        "budget_states = 1000\n"
        "seed = 7\n"
        "format = md\n"
    )
    assert cfg.radius == 2
    assert cfg.epsilon == Fraction(1, 8)
    assert cfg.budget_states == 1000
    assert cfg.seed == 7
    assert cfg.format == "md"


def test_parse_config_errors():
    with pytest.raises(TextParseError) as info:
        parse_config("d = 1\nzap = 3\n")
    assert info.value.line == 2
    with pytest.raises(TextParseError):
        parse_config("radius\n")
    with pytest.raises(TextParseError):
        parse_config("radius = soon\n")
    with pytest.raises(TextParseError):
        parse_config("epsilon = maybe\n")
    with pytest.raises(TextParseError):
        parse_config("radius = -2\n")


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("radius = 3\n")
    assert load_config(str(path)).radius == 3


def test_apply_env():
    cfg = RunConfig()
    assert apply_env(cfg, {}) is cfg
    bumped = apply_env(cfg, {ENV_BUDGET: "123"})
    assert bumped.budget_states == 123
    assert cfg.budget_states == 10**6
    with pytest.raises(TextParseError):
        apply_env(cfg, {ENV_BUDGET: "ten"})
    with pytest.raises(TextParseError):
        apply_env(cfg, {ENV_BUDGET: "-5"})
