"""Run configuration: defaults, the key=value file format, and the
environment override for the state budget."""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Mapping, Optional, Union

from .errors import TextParseError

ENV_BUDGET = "ALLOSTERY_BUDGET_STATES"

EpsilonMode = Union[str, Fraction]  # "schedule" or a fixed rational


class RunConfig:
    """The settings of one run; every field can be set by keyword."""

    def __init__(
        self,
        d: int = 1,
        m: int = 1,
        radius: int = 1,
        epsilon: EpsilonMode = "schedule",
        budget_states: int = 10**6,
        seed: int = 0,
        out: Optional[str] = None,
        format: str = "json",
    ):
        self.d = d
        self.m = m
        self.radius = radius
        self.epsilon = epsilon
        self.budget_states = budget_states
        self.seed = seed
        self.out = out
        self.format = format

    def validate(self) -> None:
        if self.d < 1 or self.m < 1:
            raise ValueError("ranks d and m must be at least 1")
        if self.radius < 0:
            raise ValueError("ball radius must be nonnegative")
        if self.budget_states <= 0:
            raise ValueError("the state budget must be positive")
        if self.format not in ("json", "md"):
            raise ValueError(f"unknown format {self.format!r}")
        if isinstance(self.epsilon, str):
            if self.epsilon != "schedule":
                raise ValueError(f"epsilon must be 'schedule' or a rational, got {self.epsilon!r}")
        elif not 0 < self.epsilon < 1:
            raise ValueError(f"fixed epsilon {self.epsilon} outside (0,1)")

    def epsilon_arg(self) -> Optional[Fraction]:
        """None for the schedule (callers fall back to it), else the fixed value."""
        return None if self.epsilon == "schedule" else Fraction(self.epsilon)


def parse_epsilon_mode(text: str) -> EpsilonMode:
    value = text.strip()
    if value == "schedule":
        return "schedule"
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise TextParseError(f"epsilon must be 'schedule' or a rational, got {value!r}") from None


_INT_KEYS = {"d", "m", "radius", "budget_states", "seed"}
_STR_KEYS = {"out", "format"}


def parse_config(text: str, path: str = "<config>") -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise TextParseError(f"{path}: expected key = value", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in _INT_KEYS:
            try:
                setattr(cfg, key, int(value))
            except ValueError:
                raise TextParseError(f"{path}: {key} needs an integer, got {value!r}", lineno) from None
        elif key == "epsilon":
            try:
                cfg.epsilon = parse_epsilon_mode(value)
            except TextParseError as exc:
                raise TextParseError(f"{path}: {exc.message}", lineno) from None
        elif key in _STR_KEYS:
            setattr(cfg, key, value)
        else:
            raise TextParseError(f"{path}: unknown config key {key!r}", lineno)
    try:
        cfg.validate()
    except ValueError as exc:
        raise TextParseError(f"{path}: {exc}") from None
    return cfg


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), path)


def apply_env(cfg: RunConfig, environ: Mapping[str, str] = os.environ) -> RunConfig:
    """The budget environment variable wins over file and flags."""
    if ENV_BUDGET in environ:
        try:
            budget = int(environ[ENV_BUDGET])
        except ValueError:
            raise TextParseError(f"{ENV_BUDGET} must be an integer") from None
        cfg = RunConfig(**{**vars(cfg), "budget_states": budget})
        try:
            cfg.validate()
        except ValueError as exc:
            raise TextParseError(f"{ENV_BUDGET}: {exc}") from None
    return cfg
