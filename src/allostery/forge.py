"""Forging finite-index subgroups that witness allostery at one group element.

For a nontrivial element gamma = (g, delta), an admissible prime p and a
tolerance epsilon, the forge produces the subgroup

    A ~ {lamps whose coset sums over each class in E vanish mod p}
    semidirect (p^k Z)^m

encoded compactly as a :class:`SubgroupDatum` (p, k, l, E).  The construction
picks the smallest l and k satisfying the separation constraints:

  * l = |supp(g)| + 1, so E can hold every support class with room to spare;
  * k is minimal with p^{km} > l/epsilon while keeping delta and all pairwise
    support differences outside (p^k Z)^m;
  * E consists of the support classes padded with the smallest unused
    residues, in canonical order, so forging is reproducible.

The datum is the only description of its subgroup: the congruence part is
the plain integers p^k (:attr:`SubgroupDatum.modulus`) and m.
:meth:`SubgroupDatum.reduce` reads an element modulo the subgroup: its shift
mod p^k and its nonzero lamp class sums mod p.  Membership and the coset
action of :mod:`allostery.dynamics` read that, but ``FiniteLevel.images``
reduces each lamp position itself, once across all the elements it maps
on one state, over every call until it is asked about another state: with
a reduce per element the bench castle's audit check took 1.7 times as
long.  The index formula p^{km} * p^{ld} and the closed-form fraction of
states fixed by the lamp generators read off the datum directly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .base import Vec, frac_str, is_prime, is_zero, minimal_exponent, primes, residues, sub
from .errors import DatumInvariantError, ForgeError, RankMismatchError, TextParseError
from .wreath import WreathElement, format_element, parse_element

EpsilonLike = Fraction | int | str


def default_epsilon(i: int) -> Fraction:
    """Schedule 2^-(i+2): the tolerances sum to 1/2, so the running product
    of (1 - eps_i) stays above 1/2 at every stage."""
    if i < 0:
        raise ValueError("schedule index must be >= 0")
    return Fraction(1, 2 ** (i + 2))


def as_epsilon(value: EpsilonLike) -> Fraction:
    eps = Fraction(value)
    if not 0 < eps < 1:
        raise ForgeError(f"epsilon must lie strictly between 0 and 1, got {eps}")
    return eps


def prime_admissible(gamma: WreathElement, p: int) -> bool:
    """p is admissible unless some lamp value of gamma is divisible by p in
    every coordinate."""
    for _, val in gamma.lamp.entries:
        if all(c % p == 0 for c in val):
            return False
    return True


def _separation_vectors(gamma: WreathElement) -> list[Vec]:
    """The nonzero vectors the shift subgroup of gamma's datum must miss:
    gamma's shift, unless it is zero, and the pairwise differences of its
    support positions."""
    supp = gamma.lamp.support
    avoid = [] if is_zero(gamma.shift) else [gamma.shift]
    avoid += [sub(supp[j], supp[i]) for i in range(len(supp)) for j in range(i + 1, len(supp))]
    return avoid


class SubgroupDatum(NamedTuple):
    """Encoded finite-index subgroup attached to one nontrivial element.
    A changed datum comes from ``_replace``."""

    gamma: WreathElement
    p: int
    k: int
    l: int
    E: Tuple[Vec, ...]
    epsilon: Fraction
    d: int
    m: int

    @property
    def modulus(self) -> int:
        """p^k: the shift part of the subgroup is (p^k Z)^m."""
        return self.p**self.k

    @property
    def shift_index(self) -> int:
        """Index of the congruence subgroup in Z^m: p^{km}."""
        return self.modulus**self.m

    def index(self) -> int:
        """Total index: p^{km} from the shift part times p^{ld} from the lamps."""
        return self.shift_index * self.p ** (self.l * self.d)

    def fixed_fraction(self) -> Fraction:
        """Exact fraction of cosets fixed by every lamp generator: 1 - l/p^{km}."""
        return 1 - Fraction(self.l, self.shift_index)

    def reduce(self, x: WreathElement) -> Tuple[Vec, Dict[Vec, Vec]]:
        """x read modulo the subgroup: its shift mod p^k, and for each class
        of lamp positions mod p^k the sum of x's lamp values over it mod p,
        for the classes where that sum is nonzero.  Raises
        RankMismatchError when x's ranks are not the datum's."""
        M, p, d = self.modulus, self.p, self.d
        if len(x.shift) != self.m:
            raise RankMismatchError(f"expected rank {self.m}, got {len(x.shift)}")
        sums: Dict[Vec, List[int]] = {}
        for pos, val in x.lamp:
            if len(pos) != self.m or len(val) != d:
                raise RankMismatchError("element ranks do not match the level")
            bucket = sums.setdefault(tuple(c % M for c in pos), [0] * d)
            for i, c in enumerate(val):
                bucket[i] += c
        reduced = {q: tuple(c % p for c in vals) for q, vals in sums.items()}
        return tuple(c % M for c in x.shift), {q: s for q, s in reduced.items() if any(s)}

    def contains(self, x: WreathElement) -> bool:
        """Membership test: shift in the congruence kernel and every E-class
        lamp sum divisible by p."""
        delta, class_sums = self.reduce(x)
        return is_zero(delta) and class_sums.keys().isdisjoint(self.E)

    def validate(self, tolerance: bool = True) -> None:
        """Check every structural invariant; raise DatumInvariantError on the
        first violation.

        With ``tolerance=False`` the bound l < epsilon * p^{km} is not
        checked: a datum that misses it is well formed, and the criterion
        certificate reports it as invalid.

        k may not exceed the forge's exponent at this epsilon, checked before
        any power of p is taken; a lower epsilon only raises that exponent,
        so data whose tolerance was lowered after forging still load."""
        self._check(tolerance, k_max=None)

    def _check(self, tolerance: bool, k_max: Optional[int]) -> None:
        """:meth:`validate`, given the forge's k_max for a prime p (None: find both)."""
        if self.d < 1 or self.m < 1:
            raise DatumInvariantError("ranks d and m must be at least 1")
        if k_max is None and not is_prime(self.p):
            raise DatumInvariantError(f"p={self.p} is not prime")
        if self.k < 1:
            raise DatumInvariantError("k must be >= 1")
        if not 0 < self.epsilon < 1:
            raise DatumInvariantError(f"epsilon {self.epsilon} outside (0,1)")
        if self.gamma.is_identity():
            raise DatumInvariantError("gamma must be nontrivial")
        if len(self.gamma.shift) != self.m:
            raise DatumInvariantError("shift rank differs from m")
        supp = self.gamma.lamp.support
        if any(len(pos) != self.m for pos in supp):
            raise DatumInvariantError("lamp position rank differs from m")
        if self.l <= len(supp):
            raise DatumInvariantError(f"l={self.l} must exceed |supp|={len(supp)}")
        if k_max is None:
            avoid = _separation_vectors(self.gamma)
            k_max = minimal_exponent(self.p, self.m, avoid, self.l / self.epsilon)
        if self.k > k_max:
            raise DatumInvariantError(
                f"k={self.k} exceeds {k_max}, the forge's exponent at epsilon {self.epsilon}"
            )
        if tolerance and not Fraction(self.l) < self.epsilon * self.shift_index:
            raise DatumInvariantError(
                f"l={self.l} not below epsilon*index = {self.epsilon * self.shift_index}"
            )
        if len(self.E) != self.l or len(set(self.E)) != self.l:
            raise DatumInvariantError("E must hold exactly l distinct residues")
        M = self.modulus
        for q in self.E:
            if len(q) != self.m or not all(0 <= c < M for c in q):
                raise DatumInvariantError(f"E entry {q} is not a canonical residue")
        classes = [tuple(c % M for c in pos) for pos in supp]
        if len(set(classes)) != len(classes):
            raise DatumInvariantError("two support positions share a residue class")
        if not set(classes) <= set(self.E):
            raise DatumInvariantError("some support class is missing from E")
        if not is_zero(self.gamma.shift) and all(c % M == 0 for c in self.gamma.shift):
            raise DatumInvariantError("nontrivial shift of gamma lies in the kernel")
        for _, val in self.gamma.lamp.entries:
            if len(val) != self.d:
                raise DatumInvariantError("lamp value rank differs from d")
            if all(c % self.p == 0 for c in val):
                raise DatumInvariantError(f"lamp value {val} divisible by p={self.p}")

    def to_dict(self) -> dict:
        return {
            "gamma": format_element(self.gamma),
            "p": self.p,
            "k": self.k,
            "l": self.l,
            "E": [list(q) for q in self.E],
            "epsilon": frac_str(self.epsilon),
            "d": self.d,
            "m": self.m,
        }

    @classmethod
    def from_dict(cls, rec: dict, what: str) -> "SubgroupDatum":
        """Read a datum back from :meth:`to_dict` form and validate it; the
        tolerance bound is left to the certificates that measure it.  A
        record that is not an object, lacks a field, has an E that is not a
        list of lists or a gamma or epsilon that does not parse is a
        TextParseError, and one that breaks an invariant a
        DatumInvariantError; each names the record as ``what``."""
        if not isinstance(rec, dict):
            raise TextParseError(f"{what} is not a JSON object")
        for key in cls._fields:
            if key not in rec:
                raise TextParseError(f"{what} has no {key!r}")
        if not isinstance(rec["E"], list) or not all(isinstance(q, list) for q in rec["E"]):
            raise TextParseError(f"{what}: E must be a list of residues")
        E = tuple(tuple(q) for q in rec["E"])
        ints = [rec[key] for key in ("p", "k", "l", "d", "m")] + [c for q in E for c in q]
        if any(type(x) is not int for x in ints):
            raise DatumInvariantError(
                f"{what}: p, k, l, d, m and the entries of E must be integers"
            )
        if not isinstance(rec["epsilon"], str):
            raise DatumInvariantError(f"{what}: epsilon must be a rational written as a string")
        try:
            epsilon = Fraction(rec["epsilon"])
        except (ValueError, ZeroDivisionError):
            raise TextParseError(f"{what}: bad rational epsilon {rec['epsilon']!r}") from None
        try:
            gamma = parse_element(rec["gamma"], d=rec["d"], m=rec["m"])
        except TextParseError as exc:
            raise TextParseError(f"{what}: gamma: {exc.message}", exc.line, exc.column) from None
        datum = cls(
            gamma=gamma,
            p=rec["p"],
            k=rec["k"],
            l=rec["l"],
            E=E,
            epsilon=epsilon,
            d=rec["d"],
            m=rec["m"],
        )
        try:
            datum.validate(tolerance=False)
        except DatumInvariantError as exc:
            raise DatumInvariantError(f"{what}: {exc}") from None
        return datum


def forge(gamma: WreathElement, p: int, epsilon: EpsilonLike, d: int, m: int) -> SubgroupDatum:
    """Construct the subgroup datum for one nontrivial gamma.

    Raises ForgeError when gamma is trivial, p is inadmissible for its lamp
    values, or epsilon is out of range.  The result always passes
    :meth:`SubgroupDatum.validate`, which runs on it with the k found here.
    """
    eps = as_epsilon(epsilon)
    if gamma.is_identity():
        raise ForgeError("cannot forge a subgroup for the identity")
    if not is_prime(p):
        raise ForgeError(f"{p} is not prime")
    if not prime_admissible(gamma, p):
        raise ForgeError(f"prime {p} divides a lamp value of {format_element(gamma)}")

    supp = gamma.lamp.support
    l = len(supp) + 1
    k = minimal_exponent(p, m, _separation_vectors(gamma), Fraction(l, eps))

    M = p**k
    classes = {tuple(c % M for c in pos) for pos in supp}
    padding = islice((q for q in residues(M, m) if q not in classes), l - len(classes))
    datum = SubgroupDatum(
        gamma=gamma, p=p, k=k, l=l, E=tuple(sorted([*classes, *padding])), epsilon=eps, d=d, m=m
    )
    datum._check(tolerance=True, k_max=k)
    return datum


class PrimeAssignment(NamedTuple):
    """Deterministic (gamma, prime, epsilon) triples with pairwise distinct primes."""

    triples: Tuple[Tuple[WreathElement, int, Fraction], ...]

    def forge_all(self, d: int, m: int) -> list[SubgroupDatum]:
        return [forge(g, p, eps, d, m) for g, p, eps in self.triples]


def assign_primes(
    gammas: Sequence[WreathElement],
    epsilons: Callable[[int], Fraction] | EpsilonLike = default_epsilon,
) -> PrimeAssignment:
    """Assign to each gamma, in order, the smallest unused admissible prime.

    Admissible primes always exist: only finitely many primes divide every
    coordinate of some lamp value.  `epsilons` is either a schedule i -> eps_i
    or a single value used for every gamma.
    """
    eps_of = epsilons if callable(epsilons) else (lambda i, v=as_epsilon(epsilons): v)
    seen: set[WreathElement] = set()
    for g in gammas:
        if g.is_identity():
            raise ForgeError("gamma list must not contain the identity")
        if g in seen:
            raise ForgeError(f"duplicate gamma {format_element(g)}")
        seen.add(g)
    stream = primes()
    unused: list[int] = []  # primes drawn from the stream and not yet assigned
    triples = []
    for i, g in enumerate(gammas):
        k = 0
        while k == len(unused) or not prime_admissible(g, unused[k]):
            if k == len(unused):
                unused.append(next(stream))
            else:
                k += 1
        triples.append((g, unused.pop(k), as_epsilon(eps_of(i))))
    return PrimeAssignment(tuple(triples))
