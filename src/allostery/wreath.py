"""Exact arithmetic in the wreath product Z^d wr Z^m.

An element is a pair (lamp, shift): `shift` lives in Z^m and `lamp` is a
finitely supported function Z^m -> Z^d, stored sparsely with zero values
pruned.  The product is

    (f, a) * (g, b) = (f + g translated by a, a + b)

so the left factor's shift moves the right factor's lamps before adding.
Everything is immutable and hashable; canonical text forms give deterministic
ordering for ball enumeration and certificate output.
"""

from __future__ import annotations

import operator
import re
import sys
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Mapping, NamedTuple, Tuple

from .base import Vec, add, is_zero, neg, zero
from .errors import BudgetExceededError, RankMismatchError, TextParseError

Word = Tuple[int, ...]

DEFAULT_MAX_RADIUS = 8


class Lamp(tuple):
    """Finitely supported map from positions in Z^m to nonzero vectors in Z^d.

    A lamp is the tuple of its (position, value) entries, sorted by position
    with no zero values; construct through :meth:`of` to get this normal
    form.  A direct ``Lamp(entries)`` checks it.  The group operations below
    keep it by construction, so they build their results unchecked, as
    ``tuple.__new__(Lamp, entries)``.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[Tuple[Vec, Vec]] = ()) -> "Lamp":
        entries = tuple(entries)
        positions = [pos for pos, _ in entries]
        if positions != sorted(positions) or len(set(positions)) != len(positions):
            raise ValueError("lamp entries must be sorted by distinct positions")
        for _, val in entries:
            if is_zero(val):
                raise ValueError("lamp values must be nonzero")
        return tuple.__new__(cls, entries)

    @property
    def entries(self) -> Tuple[Tuple[Vec, Vec], ...]:
        """The (position, value) pairs, in position order: the lamp itself."""
        return self

    @classmethod
    def of(cls, items: Mapping[Vec, Vec] | Iterable[Tuple[Vec, Vec]]) -> "Lamp":
        pairs = items.items() if hasattr(items, "items") else items
        acc: dict[Vec, Vec] = {}
        for pos, val in pairs:
            pos, val = tuple(pos), tuple(val)
            if pos in acc:
                val = add(acc[pos], val)
            acc[pos] = val
        return tuple.__new__(cls, sorted([e for e in acc.items() if any(e[1])]))

    @property
    def support(self) -> Tuple[Vec, ...]:
        return tuple(pos for pos, _ in self)

    def is_zero(self) -> bool:
        return not self

    def neg(self) -> "Lamp":
        return tuple.__new__(Lamp, [(p, neg(v)) for p, v in self])

    def shifted(self, by: Vec) -> "Lamp":
        """The translate: position lambda now holds the value formerly at
        lambda - by."""
        return tuple.__new__(Lamp, _translated(self, by))

    def __repr__(self) -> str:
        return f"Lamp(entries={tuple(self)!r})"


def _translated(entries: Tuple[Tuple[Vec, Vec], ...], by: Vec) -> Tuple[Tuple[Vec, Vec], ...]:
    """Lamp entries with every position moved by `by`, the same entries when
    `by` is zero.  A translation keeps the lexicographic order.  Every
    position must have the rank of `by`."""
    n = len(by)
    for p, _ in entries:
        if len(p) != n:
            raise RankMismatchError(f"cannot add vectors of ranks {len(p)} and {n}")
    if not any(by):
        return entries
    return tuple([(tuple(map(operator.add, p, by)), v) for p, v in entries])


def _merged(long: Iterable[Tuple[Vec, Vec]], short: Iterable[Tuple[Vec, Vec]]) -> Lamp:
    """The lamp whose entries sum those of `long` and `short` by position:
    `short` is merged into a dict copy of `long`, dropping the sums that
    cancel."""
    acc = dict(long)
    for pos, val in short:
        old = acc.get(pos)
        if old is None:
            acc[pos] = val
            continue
        val = add(old, val)
        if any(val):
            acc[pos] = val
        else:
            del acc[pos]
    return tuple.__new__(Lamp, sorted(acc.items()))


class WreathElement(tuple):
    """The element (lamp, shift) of Z^d wr Z^m, as that pair."""

    __slots__ = ()

    def __new__(cls, lamp: Lamp, shift: Vec) -> "WreathElement":
        return tuple.__new__(cls, (lamp, shift))

    lamp = property(operator.itemgetter(0))
    shift = property(operator.itemgetter(1))

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        """(f, a) * (g, b): g is translated by a (not at all when a is zero),
        and the shorter of f and that translate is merged into a dict copy
        of the longer, dropping the sums that cancel."""
        f, a = self
        g, b = other
        if len(a) != len(b):
            raise RankMismatchError("cannot multiply elements with different shift ranks")
        right = _translated(g, a)
        if not right:
            lamp = f
        elif not f:
            lamp = tuple.__new__(Lamp, right)
        else:
            lamp = _merged(right, f) if len(f) <= len(right) else _merged(f, right)
        return tuple.__new__(WreathElement, (lamp, tuple(map(operator.add, a, b))))

    def left_multiplier(self) -> Callable[["WreathElement"], "WreathElement"]:
        """The map x -> self * x, specialised to self once.  Precondition,
        unchecked: x has self's ranks.  A shift-only self translates x's lamp
        and adds the shifts, with no merge; a lamp-only self merges its
        entries into a dict copy of x's lamp, dropping the sums that cancel;
        any other self is the general product."""
        f, a = self
        if not any(a):  # lamp-only, or the identity
            return lambda x: tuple.__new__(WreathElement, (_merged(x[0], f), x[1]))
        if f:
            return self.__mul__

        def shifted(x: WreathElement) -> WreathElement:
            lamp, b = x
            moved = tuple.__new__(Lamp, [(tuple(map(operator.add, p, a)), v) for p, v in lamp])
            return tuple.__new__(WreathElement, (moved, tuple(map(operator.add, a, b))))

        return shifted

    def inverse(self) -> "WreathElement":
        sh = neg(self.shift)
        return WreathElement(self.lamp.neg().shifted(sh), sh)

    def is_identity(self) -> bool:
        return self.lamp.is_zero() and is_zero(self.shift)

    def text(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"WreathElement({format_element(self)!r})"


# Shape text reuses few vectors many times (the 7,200-shape bench castle has
# 121 distinct ones), so each vector's text and each canonical body's tuple
# are memoised.  A printed text is only ever made from its tuple, so (01) and
# (-0) still print as (1) and (0); the canonical reader takes a body from
# input only when its tuple prints back to exactly that body.
@lru_cache(maxsize=4096)
def format_vec(v: Vec) -> str:
    return "(" + ",".join(map(str, v)) + ")"


@lru_cache(maxsize=4096)
def _canonical_vec(body: str) -> Vec:
    """The vector that prints as ``(body)``; ValueError for any other body."""
    v = tuple(map(int, body.split(",")))
    if ",".join(map(str, v)) != body:
        raise ValueError(body)
    return v


def read_canonical(text, d: int, m: int) -> WreathElement | None:
    """The element of ranks d and m whose :func:`format_element` text is
    exactly `text`, else None.  The text is cut at ``};(``, ``),(`` and
    ``):(``; it is canonical when every vector body prints back to itself,
    positions strictly increase and values are nonzero."""
    if not isinstance(text, str) or text[:1] != "{" or text[-1:] != ")":
        return None
    lamp_text, _, shift_text = text[1:-1].partition("};(")
    entries: list[Tuple[Vec, Vec]] = []
    try:  # a missing separator leaves an empty body, which int() rejects
        shift = _canonical_vec(shift_text)
        if lamp_text:
            if lamp_text[0] != "(" or lamp_text[-1] != ")":
                return None
            for entry in lamp_text[1:-1].split("),("):
                p_text, _, v_text = entry.partition("):(")
                p, v = _canonical_vec(p_text), _canonical_vec(v_text)
                if len(p) != m or len(v) != d or not any(v) or entries and p <= entries[-1][0]:
                    return None
                entries.append((p, v))
    except ValueError:
        return None
    if len(shift) != m:
        return None
    return tuple.__new__(WreathElement, (tuple.__new__(Lamp, entries), shift))


def format_element(x: WreathElement) -> str:
    """Canonical text form `{pos:vec,...};shift`, lamp entries sorted by position."""
    lamp, shift = x
    entries = ",".join([f"{format_vec(p)}:{format_vec(v)}" for p, v in lamp])
    return "{" + entries + "};" + format_vec(shift)


_NUMS = r"-?\d+(?:,-?\d+)*"
_VEC_RE = re.compile(rf"\(({_NUMS})\)")


def _parse_vec(text: str, pos: int, line: int | None = None) -> Tuple[Vec, int]:
    m = _VEC_RE.match(text, pos)
    if not m:
        raise TextParseError("expected a vector like (0) or (1,-2)", line, pos + 1)
    try:
        return tuple(map(int, m.group(1).split(","))), m.end()
    except ValueError:  # a number past the interpreter's int-from-text digit limit
        limit = sys.get_int_max_str_digits()
        big = re.compile(rf"-?\d{{{limit + 1},}}").search(text, pos)
        raise TextParseError(f"number longer than {limit} digits", line, big.start() + 1) from None


def _read_element(s: str, line: int | None) -> Tuple[list, Vec]:
    """The (position, value) pairs and the shift of the element text `s`,
    read part by part; TextParseError at the first position where `s`
    leaves the grammar or holds a number too long to read."""
    if not s.startswith("{"):
        raise TextParseError("element must start with '{'", line, 1)
    pos = 1
    pairs = []
    if s[pos : pos + 1] != "}":
        while True:
            p, pos = _parse_vec(s, pos, line)
            if s[pos : pos + 1] != ":":
                raise TextParseError("expected ':' between position and value", line, pos + 1)
            v, pos = _parse_vec(s, pos + 1, line)
            pairs.append((p, v))
            if s[pos : pos + 1] != ",":
                break
            pos += 1
    if s[pos : pos + 1] != "}":
        raise TextParseError("expected '}' closing the lamp part", line, pos + 1)
    if s[pos + 1 : pos + 2] != ";":
        raise TextParseError("expected ';' before the shift part", line, pos + 2)
    shift, pos = _parse_vec(s, pos + 2, line)
    if pos != len(s):
        raise TextParseError("trailing characters after element", line, pos + 1)
    return pairs, shift


def parse_element(
    text: str,
    d: int | None = None,
    m: int | None = None,
    line: int | None = None,
) -> WreathElement:
    """Parse the element form `{pos:vec,...};shift`, optionally checking
    ranks d and m.  Entries may come in any order, repeat a position or hold
    zero; the lamp sums them into normal form.  Text that
    :func:`read_canonical` declines goes through :func:`_read_element`."""
    x = read_canonical(text, d, m)
    if x is not None:
        return x
    if not isinstance(text, str):
        raise TextParseError(f"element must be text, got {text!r}", line)
    pairs, shift = _read_element(text.strip(), line)
    lamp = Lamp.of(pairs)
    if m is not None and len(shift) != m:
        raise TextParseError(f"shift rank {len(shift)} != m={m}", line, 1)
    if d is not None:
        for p, v in lamp:
            if len(v) != d:
                raise TextParseError(f"lamp value rank {len(v)} != d={d}", line, 1)
    if m is not None:
        for p, _ in lamp:
            if len(p) != m:
                raise TextParseError(f"lamp position rank {len(p)} != m={m}", line, 1)
    return tuple.__new__(WreathElement, (lamp, shift))


class BallEntry(NamedTuple):
    element: WreathElement
    word: Word


class WreathGroup(tuple):
    """Ambient group Z^d wr Z^m together with its standard generating set:
    the pair (d, m).

    Generators are ordered lamp-first: s_1, s_1^{-1}, ..., s_d, s_d^{-1},
    then t_1, t_1^{-1}, ..., t_m, t_m^{-1}.  Words are tuples of indices into
    this list and evaluate left to right.
    """

    # No __slots__: the cached name index lives in the instance dict.

    def __new__(cls, d: int, m: int) -> "WreathGroup":
        if d < 1 or m < 1:
            raise ValueError("ranks d and m must be >= 1")
        return tuple.__new__(cls, (d, m))

    d = property(operator.itemgetter(0))
    m = property(operator.itemgetter(1))

    def __repr__(self) -> str:
        return f"WreathGroup(d={self.d}, m={self.m})"

    def identity(self) -> WreathElement:
        return WreathElement(Lamp(), zero(self.m))

    def lamp_generator(self, i: int, sign: int = 1) -> WreathElement:
        """s_i^(sign): a single lamp at the origin holding +-e_i of Z^d."""
        if not 0 <= i < self.d:
            raise ValueError(f"lamp generator index {i} out of range")
        val = tuple(sign if j == i else 0 for j in range(self.d))
        return WreathElement(Lamp.of({zero(self.m): val}), zero(self.m))

    def shift_generator(self, j: int, sign: int = 1) -> WreathElement:
        if not 0 <= j < self.m:
            raise ValueError(f"shift generator index {j} out of range")
        return WreathElement(Lamp(), tuple(sign if i == j else 0 for i in range(self.m)))

    def generators(self) -> Tuple[WreathElement, ...]:
        gens: list[WreathElement] = []
        for i in range(self.d):
            gens.append(self.lamp_generator(i, 1))
            gens.append(self.lamp_generator(i, -1))
        for j in range(self.m):
            gens.append(self.shift_generator(j, 1))
            gens.append(self.shift_generator(j, -1))
        return tuple(gens)

    def generator_names(self) -> Tuple[str, ...]:
        names: list[str] = []
        for i in range(self.d):
            names += [f"s{i + 1}", f"S{i + 1}"]
        for j in range(self.m):
            names += [f"t{j + 1}", f"T{j + 1}"]
        return tuple(names)

    def lamp_generators(self) -> Tuple[WreathElement, ...]:
        return tuple(self.lamp_generator(i) for i in range(self.d))

    def validate_element(self, x: WreathElement) -> None:
        if len(x.shift) != self.m:
            raise RankMismatchError(f"shift rank {len(x.shift)} != m={self.m}")
        for p, v in x.lamp.entries:
            if len(p) != self.m:
                raise RankMismatchError(f"lamp position rank {len(p)} != m={self.m}")
            if len(v) != self.d:
                raise RankMismatchError(f"lamp value rank {len(v)} != d={self.d}")

    def word_element(self, word: Iterable[int]) -> WreathElement:
        """The product of the word's generators, left to right, in one pass.

        Right-multiplying by s_i^{+-1} adds +-e_i to the lamp at the current
        shift, and by t_j^{+-1} moves the shift by +-e_j, so the word is a
        running shift plus a lamp-sum per visited position, sorted once.
        """
        n_gens = 2 * (self.d + self.m)
        shift = [0] * self.m
        pos = tuple(shift)
        lamps: dict[Vec, list[int]] = {}
        for g in word:
            if not 0 <= g < n_gens:
                raise ValueError(f"generator index {g!r} out of range 0..{n_gens - 1}")
            sign = -1 if g & 1 else 1
            axis = g >> 1
            if axis < self.d:
                val = lamps.get(pos)
                if val is None:
                    val = lamps[pos] = [0] * self.d
                val[axis] += sign
            else:
                shift[axis - self.d] += sign
                pos = tuple(shift)
        entries = sorted((p, tuple(v)) for p, v in lamps.items() if any(v))
        return WreathElement(tuple.__new__(Lamp, entries), pos)

    def word_name(self, word: Word) -> str:
        if not word:
            return "e"
        names = self.generator_names()
        return ".".join(names[g] for g in word)

    @cached_property
    def _name_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.generator_names())}

    def parse_word(self, text: str, line: int | None = None) -> Word:
        s = text.strip()
        if s == "e":
            return ()
        lookup = self._name_index
        word: list[int] = []
        for token in s.split("."):
            if token not in lookup:
                raise TextParseError(f"unknown generator {token!r}", line)
            word.append(lookup[token])
        return tuple(word)

    def parse_element(self, text: str, line: int | None = None) -> WreathElement:
        return parse_element(text, d=self.d, m=self.m, line=line)

    def ball(self, radius: int) -> list[BallEntry]:
        """All elements of word length <= radius, each with a witnessing word.

        Ordered by word length, then lexicographically by canonical text
        within each length; the identity comes first.  The stored word is the
        first one found when expanding parents in that order, so the listing
        is fully deterministic.
        """
        if radius < 0:
            raise ValueError("radius must be >= 0")
        if radius > DEFAULT_MAX_RADIUS:
            raise BudgetExceededError(radius, DEFAULT_MAX_RADIUS, what="ball radius")
        gens = self.generators()
        seen: dict[WreathElement, Word] = {self.identity(): ()}
        out: list[BallEntry] = [BallEntry(self.identity(), ())]
        layer: list[BallEntry] = [out[0]]
        for _ in range(radius):
            found: dict[WreathElement, Word] = {}
            for entry in layer:
                for g, gen in enumerate(gens):
                    y = entry.element * gen
                    if y in seen or y in found:
                        continue
                    found[y] = entry.word + (g,)
            layer = [
                BallEntry(el, found[el])
                for el in sorted(found, key=format_element)
            ]
            seen.update(found)
            out.extend(layer)
        return out
