"""Permutations and multiset words with their statistics, their
deterministic enumerators, and the tally of S_n by (connectivity set,
descent set, inversions) that the counting routines read, made by a
recurrence that lists no permutation.

Statistics use 1-based positions, matching the usual one-line notation
``w = a_1 a_2 ... a_n``; the bitmask encoding in :mod:`descon.subsets` owns
the 0-based shift. Enumeration order is always lexicographic on the word, so
streamed computations are reproducible.

One fixed size bound, :data:`HARD_CEILING` (n <= 12), caps every listing of
permutations or multiset words and the memory of the statistics recurrence.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from itertools import pairwise, permutations as _lex_permutations
from math import factorial
from typing import Iterator, Sequence

from .rings import _require_int
from .subsets import SubsetMask, _Frozen

__all__ = [
    "EnumerationCapError",
    "HARD_CEILING",
    "Permutation",
    "MultisetWord",
    "descent_mask",
    "connectivity_mask",
    "inversion_count",
    "enumerate_permutations",
    "multiset_words",
    "reduce_to_multiset",
    "joint_statistics",
]

# The one size bound of the listings and the tally: 12! is 479,001,600
# words, and the tally of every n <= 12 (`descon connected --max-n 12`)
# peaks at 148 MB in a fresh process.
HARD_CEILING = 12


class EnumerationCapError(ValueError):
    """A size past a fixed bound on work that grows like n!: the hard
    ceiling of the listings and the statistics recurrence, or the lower
    bound of the multiset-bijection check's walk in :mod:`descon.verify`."""


def _require_within_cap(n: int, name: str = "n") -> None:
    _require_int(n, name)
    if n > HARD_CEILING:
        raise EnumerationCapError(
            f"{name}={n} exceeds the hard ceiling {HARD_CEILING}, which bounds the "
            f"n!-word listings and the statistics recurrence"
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


class MultisetWord(_Frozen):
    """A word of n positive integers, repeats allowed."""

    __slots__ = __match_args__ = ("word",)
    word: tuple[int, ...]

    def __post_init__(self):
        word = tuple(self.word)
        object.__setattr__(self, "word", word)
        if not word:
            raise ValueError("empty multiset word")
        for pos, value in enumerate(word, start=1):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
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


class Permutation(MultisetWord):
    """A permutation of [n] in one-line notation: a multiset word whose
    letters are 1..n, each once. It inherits ``n``, the statistics and
    ``str``, the one-line notation that :meth:`from_text` parses."""

    __slots__ = ()

    def __post_init__(self):
        super().__post_init__()  # a nonempty word of positive int letters
        n = len(self.word)
        seen = 0
        for pos, value in enumerate(self.word, start=1):
            if value > n:
                raise ValueError(f"value {value} at position {pos} outside 1..{n}")
            bit = 1 << (value - 1)
            if seen & bit:
                raise ValueError(f"value {value} repeated at position {pos}")
            seen |= bit

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse one-line notation: digits concatenated ("1342") for n <= 9,
        comma-separated values ("10,3,1,2,...") otherwise; ASCII digits only."""
        text = text.strip()
        if not text:
            raise ValueError("empty permutation text")
        if "," in text:
            values = []
            for pos, field in enumerate(text.split(","), start=1):
                field = field.strip()
                if not (field.isascii() and field.isdigit()):
                    raise ValueError(f"entry {field!r} at position {pos} is not a number")
                values.append(int(field))
        else:
            for pos, ch in enumerate(text, start=1):
                if ch not in "123456789":
                    raise ValueError(f"character {ch!r} at position {pos} is not a digit 1-9")
            values = [int(ch) for ch in text]
        return cls(tuple(values))

    def descent_composition(self) -> tuple[int, ...]:
        """The parts of the composition of n cut at the descent positions."""
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


def enumerate_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations of [n], exactly once, in lexicographic word order.

    >>> [str(p) for p in enumerate_permutations(3)]
    ['123', '132', '213', '231', '312', '321']
    """
    _require_within_cap(n)
    return map(Permutation, _lex_permutations(range(1, n + 1)))


def multiset_words(t: SubsetMask) -> Iterator[MultisetWord]:
    """All distinct rearrangements, in lexicographic order, of the multiset
    with letter j repeated (j-th gap length of t) times.

    The subset {i_1 < ... < i_k} of [n-1] yields the multiset
    {1^i_1, 2^(i_2-i_1), ..., (k+1)^(n-i_k)}; there are n!/eta(t) words.
    The hard ceiling is checked when called, before any word is built.

    >>> [str(w) for w in multiset_words(SubsetMask.from_elements(3, [1]))]
    ['122', '212', '221']
    """
    _require_within_cap(t.n)
    cuts = (0, *t.elements(), t.n)
    # the sorted word: letter j once for each position of the j-th gap
    word = [j for j, (lo, hi) in enumerate(pairwise(cuts), 1) for _ in range(lo, hi)]
    return _next_permutations(word)


def _next_permutations(word: list[int]) -> Iterator[MultisetWord]:
    """The words from the sorted ``word`` on, by repeated next-permutation
    steps: swap the last rise's left letter with the last letter above it,
    then reverse what follows."""
    last = len(word) - 1
    while True:
        yield MultisetWord(tuple(word))
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
    one the ``multiset-bijection`` check applies to its walk over the inverses.

    >>> str(reduce_to_multiset(Permutation((2, 3, 1)), SubsetMask.from_elements(3, [1])))
    '212'
    """
    if t.n != w.n:
        raise ValueError(f"ambient sizes differ: permutation n={w.n}, subset n={t.n}")
    return MultisetWord(tuple(map(_letter_table(t).__getitem__, w.inverse().word)))


def _letter_table(t: SubsetMask) -> tuple[int, ...]:
    """The value-to-letter table of the collapse for t: entry v is the letter
    of the value v in 1..n, one more than the elements of t below v."""
    thresholds = t.elements()
    return (0,) + tuple(bisect_left(thresholds, v) + 1 for v in range(1, t.n + 1))


def _rank_tally(n: int) -> dict[tuple[int, int, int], int]:
    """Joint (connectivity mask, descent mask, inversions) counts of the
    permutations of [n], by the relative-rank recurrence (Niven 1968; de
    Bruijn 1970) with a hole count. With u values left, m of them below the
    prefix maximum and r below the last value, placing the k-th smallest
    adds k inversions and a descent iff k < r, and goes to (u-1, m-1, k) if
    k < m, else to (u-1, k, k); the position before it is a cut iff m = 0.
    A state maps ``c << n | d`` to its inversions packed by q -> 2**w."""
    w = factorial(n).bit_length()  # a slot holds any count, at most n!

    @cache
    def tally(u: int, m: int, r: int) -> dict[int, int]:
        if not u:
            return {0: 1}
        bit = 1 << (n - u - 1) if u < n else 0  # no position before the first value
        cut = 0 if m else bit << n
        out: dict[int, int] = {}
        for k in range(u):
            flag = cut | bit if k < r else cut
            for key, x in tally(u - 1, *((m - 1, k) if k < m else (k, k))).items():
                key |= flag
                out[key] = out.get(key, 0) + (x << w * k)
        return out

    top = tally(n, 0, 0)
    tally.cache_clear()  # the cache and tally hold each other: free it now
    slot, low = (1 << w) - 1, (1 << n) - 1
    return {(key >> n, key & low, inv): count
            for key, x in top.items()
            for inv in range(x.bit_length() // w + 1)
            if (count := x >> w * inv & slot)}


def joint_statistics(n: int) -> dict[tuple[int, int, int], int]:
    """All n! permutations tallied by the triple (connectivity mask,
    descent mask, inversion count), by a relative-rank recurrence that
    lists none of them; the hard ceiling bounds its memory.

    Each call runs the recurrence and returns a fresh dict that the caller
    owns; a caller that reads the tally more than once keeps it.

    >>> sorted(joint_statistics(3).items())  # doctest: +NORMALIZE_WHITESPACE
    [((0, 1, 2), 1), ((0, 2, 2), 1), ((0, 3, 3), 1),
     ((1, 2, 1), 1), ((2, 1, 1), 1), ((3, 0, 0), 1)]
    """
    _require_within_cap(n)
    return _rank_tally(n)
