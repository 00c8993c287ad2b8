"""Summary statistics the benchmark reports for its timing samples."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import Optional, Sequence, Tuple

# Percentiles offered as the tail of a timing distribution, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10


def _rank(pct: float, n: int) -> int:
    """Nearest rank, counted from 1: ceil(pct/100 * n), in exact arithmetic."""
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def nearest_rank(samples: Sequence[float], pct: float) -> float:
    """The pct-th percentile by the nearest-rank rule."""
    return sorted(samples)[_rank(pct, len(samples)) - 1]


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """The highest percentile of TAIL_LADDER with at least TAIL_BEYOND samples
    ranked beyond it, as (percentile, value); None when even the median has
    fewer than TAIL_BEYOND samples beyond it (fewer than 20 samples)."""
    n = len(samples)
    best = None
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= TAIL_BEYOND:
            best = (pct, nearest_rank(samples, pct))
    return best


def describe(samples: Sequence[float]) -> str:
    """One human-readable line: median, tail percentile and sample count."""
    med = statistics.median(samples)
    tail = tail_percentile(samples)
    tail_text = (
        f"p{tail[0]:g} {tail[1]:.4f}" if tail else f"no tail (under {2 * TAIL_BEYOND} samples)"
    )
    return f"median {med:.4f}, {tail_text}, n={len(samples)}"
