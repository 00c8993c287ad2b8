"""The translation group Z^m, primes, and the exponents of its congruence
subgroups.

Elements are plain tuples of unbounded Python integers, so all arithmetic is
exact.  The congruence subgroup (p^k Z)^m is normal of index p^{km}; it is
described by plain integers, its modulus p^k and the rank m, and a vector
lies in it when every coordinate is divisible by p^k.  These subgroups are
the separation devices used by the subgroup forge: any finite set of nonzero
vectors survives reduction mod p^k once k is large enough, and
:func:`minimal_exponent` finds the least such k.
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction
from itertools import count
from typing import Iterable, Iterator, Tuple

from .errors import RankMismatchError

Vec = Tuple[int, ...]


def zero(rank: int) -> Vec:
    return (0,) * rank


def add(a: Vec, b: Vec) -> Vec:
    """Coordinatewise sum; the group law of Z^m."""
    if len(a) != len(b):
        raise RankMismatchError(f"cannot add vectors of ranks {len(a)} and {len(b)}")
    return tuple(map(operator.add, a, b))


def neg(a: Vec) -> Vec:
    return tuple(map(operator.neg, a))


def sub(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise RankMismatchError(f"cannot subtract vectors of ranks {len(a)} and {len(b)}")
    return tuple(map(operator.sub, a, b))


def is_zero(a: Vec) -> bool:
    return not any(a)


def is_prime(n: int) -> bool:
    """Exact primality below 318,665,857,834,031,151,167,461: trial division
    by the primes up to 37, then the strong probable-prime test to those
    twelve bases, which no composite below that bound passes (Sorenson and
    Webster, Math. Comp. 86, 2017).  Larger n raise ValueError."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in bases:
        if n % q == 0:
            return n == q
    if n < 37 * 37:
        return n > 1
    if n >= 318_665_857_834_031_151_167_461:
        raise ValueError(f"{n} is too large for an exact primality test")
    twos = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = odd * 2**twos
    odd = (n - 1) >> twos
    for a in bases:
        powers = [pow(a, odd << r, n) for r in range(twos)]
        if powers[0] != 1 and n - 1 not in powers:
            return False
    return True


def primes() -> Iterator[int]:
    """All primes in increasing order, by an incremental sieve: `crossed`
    maps the next odd multiple of each prime p found, from p^2 on, to 2p."""
    yield 2
    crossed: dict[int, int] = {}
    for n in count(3, 2):
        step = crossed.pop(n, None)
        if step is None:
            crossed[n * n] = 2 * n
            yield n
            continue
        m = n + step
        while m in crossed:
            m += step
        crossed[m] = step


def residues(modulus: int, rank: int) -> Iterator[Vec]:
    """All vectors of `rank` coordinates in [0, modulus), in lexicographic
    order, one at a time: the numbers below modulus^rank spelled in radix
    modulus, first coordinate most significant.  So the first residues come
    at once however large the modulus is; ``itertools.product`` would first
    store ``range(modulus)`` as a tuple."""
    for n in range(modulus**rank):
        yield tuple(n // modulus**i % modulus for i in reversed(range(rank)))


def minimal_exponent(
    p: int,
    rank: int,
    avoid: Iterable[Vec],
    index_bound: int | Fraction,
) -> int:
    """Least k >= 1 such that (p^k Z)^rank has index > index_bound and misses
    every vector in `avoid`.

    The avoided vectors must be nonzero: a nonzero vector falls outside
    (p^k Z)^rank as soon as p^k exceeds the largest power of p dividing all of
    its coordinates, so the scan below terminates.  p must be prime and rank
    at least 1 (ValueError otherwise).
    """
    avoid = [tuple(v) for v in avoid]
    for v in avoid:
        if len(v) != rank:
            raise RankMismatchError(f"avoid vector {v} has rank {len(v)}, expected {rank}")
        if is_zero(v):
            raise ValueError("the zero vector cannot be separated from the kernel")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    q = 1
    for k in count(1):
        q *= p
        if q**rank > index_bound and not any(all(c % q == 0 for c in v) for v in avoid):
            return k
    raise AssertionError("unreachable")


def frac_str(q: Fraction) -> str:
    """A rational as ``numerator/denominator``, the form every record uses.

    Off the tolerance schedule a report's bound has about n * log10(1/eps)
    digits for n window elements, past the interpreter's int-to-text digit
    limit at large radii.  So the limit is lifted for this conversion only
    and restored afterwards; input is still read under it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return f"{q.numerator}/{q.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)
