"""Permutations and multiset words with their statistics, plus the
deterministic enumerators every counting routine in this package is built on.

Statistics use 1-based positions, matching the usual one-line notation
``w = a_1 a_2 ... a_n``; the bitmask encoding in :mod:`descon.subsets` owns
the 0-based shift. Enumeration order is always lexicographic on the word, so
streamed computations are reproducible and range partitions deterministic.

The enumeration cap guards runaway sweeps: ``DESCON_MAX_N`` overrides the
default of 10 for a session.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as _lex_permutations
from math import factorial
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

from .subsets import Composition, SubsetMask

__all__ = [
    "EnumerationCapError",
    "DEFAULT_ENUMERATION_CAP",
    "CAP_ENV_VAR",
    "enumeration_cap",
    "Permutation",
    "MultisetWord",
    "descent_mask",
    "connectivity_mask",
    "inversion_count",
    "enumerate_permutations",
    "multiset_words",
    "reduce_to_multiset",
    "joint_statistics",
    "connected_count",
]

DEFAULT_ENUMERATION_CAP = 10
CAP_ENV_VAR = "DESCON_MAX_N"


class EnumerationCapError(ValueError):
    """Requested n exceeds the enumeration cap (n! permutations would be swept)."""


def enumeration_cap() -> int:
    """Current cap on enumeration size: DESCON_MAX_N if set, else 10."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_ENUMERATION_CAP
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{CAP_ENV_VAR} must be positive, got {value}")
    return value


def _require_within_cap(n: int, cap: int | None) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    limit = enumeration_cap() if cap is None else cap
    if n > limit:
        raise EnumerationCapError(
            f"n={n} exceeds the enumeration cap {limit} ({n}! words would be "
            f"enumerated); raise {CAP_ENV_VAR} or pass a larger cap explicitly"
        )


def descent_mask(word: Sequence[int]) -> int:
    """Bitmask of positions i with word[i] > word[i+1] (bit i-1, 1-based i).

    The strict comparison is valid verbatim for multiset words.

    >>> descent_mask((1, 3, 4, 2))
    4
    """
    return sum(1 << i for i in range(len(word) - 1) if word[i] > word[i + 1])


def connectivity_mask(word: Sequence[int]) -> int:
    """Bitmask of positions i where every entry at or before i is strictly
    below every entry after i; prefix-max against suffix-min in one pass.

    >>> connectivity_mask((1, 3, 4, 2))
    1
    >>> connectivity_mask((2, 1, 2))
    0
    """
    n = len(word)
    if n < 2:
        return 0
    suffix_min = [0] * n
    low = word[-1]
    for i in range(n - 1, -1, -1):
        if word[i] < low:
            low = word[i]
        suffix_min[i] = low
    mask = 0
    high = word[0]
    for i in range(n - 1):
        if word[i] > high:
            high = word[i]
        if high < suffix_min[i + 1]:
            mask |= 1 << i
    return mask


def inversion_count(word: Sequence[int]) -> int:
    """Number of pairs i < j with word[i] > word[j].

    >>> inversion_count((1, 3, 4, 2))
    2
    """
    n = len(word)
    return sum(1 for i in range(n) for j in range(i + 1, n) if word[i] > word[j])


@dataclass(frozen=True)
class MultisetWord:
    """A word of n positive integers, repeats allowed."""

    word: tuple[int, ...]

    def __post_init__(self):
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        if not word:
            raise ValueError("empty multiset word")
        for pos, value in enumerate(word, start=1):
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"value {value!r} at position {pos} is not a positive integer")

    @property
    def n(self) -> int:
        return len(self.word)

    def descent_set(self) -> SubsetMask:
        return SubsetMask(self.n, descent_mask(self.word))

    def connectivity_set(self) -> SubsetMask:
        """Same strict prefix-below-suffix rule as for permutations."""
        return SubsetMask(self.n, connectivity_mask(self.word))

    def inversions(self) -> int:
        return inversion_count(self.word)

    def __str__(self) -> str:
        if max(self.word) <= 9:
            return "".join(str(v) for v in self.word)
        return ",".join(str(v) for v in self.word)


@dataclass(frozen=True)
class Permutation(MultisetWord):
    """A permutation of [n] in one-line notation: a multiset word whose
    letters are 1..n, each once. It inherits ``n``, the statistics and
    ``str`` (which is :meth:`to_text`, since the largest letter is n)."""

    def __post_init__(self):
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        n = len(word)
        if n == 0:
            raise ValueError("empty word is not a permutation")
        seen = 0
        for pos, value in enumerate(word, start=1):
            if not isinstance(value, int) or not 1 <= value <= n:
                raise ValueError(f"value {value!r} at position {pos} outside 1..{n}")
            bit = 1 << (value - 1)
            if seen & bit:
                raise ValueError(f"value {value} repeated at position {pos}")
            seen |= bit

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse one-line notation: digits concatenated ("1342") for n <= 9,
        comma-separated values ("10,3,1,2,...") otherwise."""
        text = text.strip()
        if not text:
            raise ValueError("empty permutation text")
        if "," in text:
            values = []
            for pos, field in enumerate(text.split(","), start=1):
                field = field.strip()
                if not field.isdigit():
                    raise ValueError(f"entry {field!r} at position {pos} is not a number")
                values.append(int(field))
        else:
            for pos, ch in enumerate(text, start=1):
                if not ch.isdigit() or ch == "0":
                    raise ValueError(f"character {ch!r} at position {pos} is not a digit 1-9")
            values = [int(ch) for ch in text]
        return cls(tuple(values))

    def to_text(self) -> str:
        return str(self)

    def descent_composition(self) -> Composition:
        """The composition of n cut at the descent positions."""
        return self.descent_set().to_composition()

    def is_connected(self) -> bool:
        """True when the connectivity set is empty: the word cannot be split
        into a prefix on {1..i} followed by a suffix on {i+1..n}."""
        return connectivity_mask(self.word) == 0

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for pos, value in enumerate(self.word, start=1):
            inv[value - 1] = pos
        return Permutation(tuple(inv))


def enumerate_permutations(n: int, cap: int | None = None) -> Iterator[Permutation]:
    """All n! permutations of [n], exactly once, in lexicographic word order.

    >>> [str(p) for p in enumerate_permutations(3)]
    ['123', '132', '213', '231', '312', '321']
    """
    _require_within_cap(n, cap)
    return map(Permutation, _lex_permutations(range(1, n + 1)))


def multiset_words(t: SubsetMask, cap: int | None = None) -> Iterator[MultisetWord]:
    """All distinct rearrangements, in lexicographic order, of the multiset
    with letter j repeated (j-th gap length of t) times.

    The subset {i_1 < ... < i_k} of [n-1] yields the multiset
    {1^i_1, 2^(i_2-i_1), ..., (k+1)^(n-i_k)}; there are n!/eta(t) words.
    The cap is checked when called, before any word is built; each word of
    the lexicographic tuple stream is then wrapped in a MultisetWord.

    >>> [str(w) for w in multiset_words(SubsetMask.from_elements(3, [1]))]
    ['122', '212', '221']
    """
    _require_within_cap(t.n, cap)
    return map(MultisetWord, _multiset_tuples(t))


def _multiset_tuples(t: SubsetMask) -> Iterator[tuple[int, ...]]:
    """The words of :func:`multiset_words` as plain tuples, by repeated
    next-permutation steps from the sorted multiset; no cap check."""
    word = [
        letter
        for letter, part in enumerate(t.to_composition().parts, start=1)
        for _ in range(part)
    ]
    last = len(word) - 1
    while True:
        yield tuple(word)
        i = last - 1
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1:] = word[:i:-1]


def reduce_to_multiset(w: Permutation, t: SubsetMask) -> MultisetWord:
    """Collapse the inverse of w letterwise: values up to i_1 become 1,
    values in (i_1, i_2] become 2, and so on, for t = {i_1 < ... < i_k}.

    Restricted to permutations with connectivity set S and descent set
    containing the complement of t, this is a bijection onto the words of
    the multiset of t with connectivity set S. The collapse itself is the
    one the ``multiset-bijection`` check applies to its permutation sweep.

    >>> str(reduce_to_multiset(Permutation((2, 3, 1)), SubsetMask.from_elements(3, [1])))
    '212'
    """
    if t.n != w.n:
        raise ValueError(f"ambient sizes differ: permutation n={w.n}, subset n={t.n}")
    return MultisetWord(_reducer(t)(w.inverse().word))


def _reducer(t: SubsetMask) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The letterwise collapse for t as a function of an inverse word, with
    its value-to-letter table built once."""
    thresholds = t.elements()
    letters = (0,) + tuple(bisect_left(thresholds, v) + 1 for v in range(1, t.n + 1))
    return lambda inverse: tuple(map(letters.__getitem__, inverse))


def _inverse_sweep(n: int) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """(descent mask, connectivity mask, inverse word) of every permutation
    of [n], in lexicographic word order, without building Permutation
    objects. The enumeration cap is checked when called."""
    _require_within_cap(n, None)
    values = range(1, n + 1)
    return (
        (descent_mask(word), connectivity_mask(word), tuple(map(((0,) + word).index, values)))
        for word in _lex_permutations(values)
    )


def _sweep_chunk(n: int, lo: int, hi: int) -> Counter:
    """Joint (connectivity mask, descent mask, inversions) counts over the
    lexicographic ranks [lo, hi) of the permutations of [n]."""
    counts: Counter = Counter()
    stream = _lex_permutations(range(1, n + 1))
    for _ in range(lo):
        next(stream)
    for _ in range(hi - lo):
        word = next(stream)
        c_mask = 0
        d_mask = 0
        high = 0
        for i in range(n - 1):
            v = word[i]
            if v > high:
                high = v
            if high == i + 1:
                # prefix of length i+1 holds exactly {1..i+1}
                c_mask |= 1 << i
            if v > word[i + 1]:
                d_mask |= 1 << i
        inv = 0
        for i in range(n - 1):
            v = word[i]
            for j in range(i + 1, n):
                if v > word[j]:
                    inv += 1
        counts[(c_mask, d_mask, inv)] += 1
    return counts


@lru_cache(maxsize=12)
def _joint_statistics_cached(n: int) -> Mapping[tuple[int, int, int], int]:
    return MappingProxyType(_sweep_chunk(n, 0, factorial(n)))


def joint_statistics(
    n: int, threads: int = 1, cap: int | None = None
) -> Mapping[tuple[int, int, int], int]:
    """One sweep over all n! permutations, tallying the triple
    (connectivity mask, descent mask, inversion count).

    Every enumeration-backed matrix builder reads from this single pass.
    With threads > 1 the lexicographic stream is split into contiguous rank
    ranges, one worker process each; the merge is an entrywise sum, so the
    result is identical for every thread count. The result is a read-only
    view, since the one-worker sweep is cached and shared by every caller.
    """
    _require_within_cap(n, cap)
    if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
        raise ValueError(f"threads must be a positive integer, got {threads!r}")
    if threads == 1:
        return _joint_statistics_cached(n)
    # imported here: the pool costs every CLI start about 30 ms otherwise
    from concurrent.futures import ProcessPoolExecutor

    total = factorial(n)
    workers = min(threads, total)
    bounds = [k * total // workers for k in range(workers + 1)]
    merged: Counter = Counter()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(
            _sweep_chunk, [n] * workers, bounds[:-1], bounds[1:]
        ):
            merged.update(part)
    return MappingProxyType(merged)


def connected_count(n: int, cap: int | None = None) -> int:
    """Number of permutations of [n] with empty connectivity set.

    A dedicated scan (no inversion counting) so the cheap statistic stays
    cheap at the largest enumerable sizes.
    """
    _require_within_cap(n, cap)
    if n == 1:
        return 1
    count = 0
    for word in _lex_permutations(range(1, n + 1)):
        high = 0
        for i in range(n - 1):
            v = word[i]
            if v > high:
                high = v
            if high == i + 1:
                break
        else:
            count += 1
    return count
