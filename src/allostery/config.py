"""Run configuration: defaults, the key=value file format, and the
environment override for the state budget."""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Union

from .errors import TextParseError

ENV_BUDGET = "ALLOSTERY_BUDGET_STATES"

EpsilonMode = Union[str, Fraction]  # "schedule" or a fixed rational


class RunConfig(NamedTuple):
    """The settings of one run.  A changed config comes from ``_replace``."""

    d: int = 1
    m: int = 1
    radius: int = 1
    epsilon: EpsilonMode = "schedule"
    budget_states: int = 10**6
    seed: int = 0
    out: Optional[str] = None
    format: str = "json"

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


def validated(cfg: RunConfig, where: str = "") -> RunConfig:
    """``cfg`` once :meth:`RunConfig.validate` passes; its ValueError becomes
    a TextParseError whose message starts with ``where``."""
    try:
        cfg.validate()
    except ValueError as exc:
        raise TextParseError(f"{where}{exc}") from None
    return cfg


def parse_epsilon_mode(text: str) -> EpsilonMode:
    value = text.strip()
    if value == "schedule":
        return "schedule"
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise TextParseError(f"epsilon must be 'schedule' or a rational, got {value!r}") from None


# How each config key's value is read: int raises ValueError, and
# parse_epsilon_mode raises TextParseError.
_READERS = dict(
    d=int, m=int, radius=int, epsilon=parse_epsilon_mode,
    budget_states=int, seed=int, out=str, format=str,
)


def parse_config(text: str, path: str = "<config>") -> RunConfig:
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise TextParseError(f"{path}: expected key = value", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _READERS:
            raise TextParseError(f"{path}: unknown config key {key!r}", lineno)
        try:
            fields[key] = _READERS[key](value)
        except ValueError:
            raise TextParseError(f"{path}: {key} needs an integer, got {value!r}", lineno) from None
        except TextParseError as exc:
            raise TextParseError(f"{path}: {exc.message}", lineno) from None
    return validated(RunConfig(**fields), f"{path}: ")


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), path)


def apply_env(cfg: RunConfig, environ: Mapping[str, str] = os.environ) -> RunConfig:
    """The budget environment variable wins over file and flags."""
    if ENV_BUDGET not in environ:
        return cfg
    try:
        budget = int(environ[ENV_BUDGET])
    except ValueError:
        raise TextParseError(f"{ENV_BUDGET} must be an integer") from None
    return validated(cfg._replace(budget_states=budget), f"{ENV_BUDGET}: ")
