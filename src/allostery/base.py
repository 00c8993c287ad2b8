"""The translation group Z^m and its congruence subgroups of prime-power index.

Elements are plain tuples of unbounded Python integers, so all arithmetic is
exact.  A congruence subgroup (p^k Z)^m is described by its prime p and
exponent k; it is automatically normal and has index p^{km}.  These subgroups
are the separation devices used by the subgroup forge: any finite set of
nonzero vectors survives reduction mod p^k once k is large enough.
"""

from __future__ import annotations

import operator
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
    """All primes in increasing order."""
    yield 2
    for n in count(3, 2):
        if is_prime(n):
            yield n


class CongruenceSubgroup(tuple):
    """The subgroup (p^k Z)^m of Z^m, of index p^{km}: the tuple
    (prime, exponent, rank)."""

    __slots__ = ()

    def __new__(cls, prime: int, exponent: int, rank: int) -> "CongruenceSubgroup":
        if not is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        if exponent < 1:
            raise ValueError("exponent must be >= 1")
        if rank < 1:
            raise ValueError("rank must be >= 1")
        return tuple.__new__(cls, (prime, exponent, rank))

    prime = property(operator.itemgetter(0))
    exponent = property(operator.itemgetter(1))
    rank = property(operator.itemgetter(2))

    def __repr__(self) -> str:
        return f"CongruenceSubgroup(prime={self.prime}, exponent={self.exponent}, rank={self.rank})"

    @property
    def modulus(self) -> int:
        return self.prime ** self.exponent

    @property
    def index(self) -> int:
        return self.prime ** (self.exponent * self.rank)

    def reduce(self, e: Vec) -> Vec:
        """Canonical residue of e, coordinates in [0, p^k)."""
        if len(e) != self.rank:
            raise RankMismatchError(f"expected rank {self.rank}, got {len(e)}")
        q = self.modulus
        return tuple(x % q for x in e)

    def contains(self, e: Vec) -> bool:
        """True iff every coordinate of e is divisible by p^k."""
        return is_zero(self.reduce(e))

    def residues(self) -> Iterator[Vec]:
        """All canonical residues in lexicographic order, one at a time.

        An odometer over the digits, so the first residues come at once
        however large p^k is; ``itertools.product`` would first store
        ``range(p^k)`` as a tuple."""
        q = self.modulus
        digits = [0] * self.rank
        while True:
            yield tuple(digits)
            pos = self.rank - 1
            while pos >= 0 and digits[pos] == q - 1:
                digits[pos] = 0
                pos -= 1
            if pos < 0:
                return
            digits[pos] += 1


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
    its coordinates, so the scan below terminates.
    """
    avoid = [tuple(v) for v in avoid]
    for v in avoid:
        if len(v) != rank:
            raise RankMismatchError(f"avoid vector {v} has rank {len(v)}, expected {rank}")
        if is_zero(v):
            raise ValueError("the zero vector cannot be separated from the kernel")
    for k in count(1):
        sub = CongruenceSubgroup(p, k, rank)
        if sub.index <= index_bound:
            continue
        if any(sub.contains(v) for v in avoid):
            continue
        return k
    raise AssertionError("unreachable")
