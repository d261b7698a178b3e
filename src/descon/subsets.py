"""Subsets of [n-1] as fixed-width bitmasks, compositions of n, and the
factorial weights attached to them.

A subset S of [n-1] = {1, ..., n-1} is stored as an unsigned ``mask`` of
width n-1 with bit i-1 set exactly when i is in S. The ambient n travels
with the mask: the weight ``eta`` depends on both. Text form is ``{}`` for
the empty set and ``{1,3}`` with ascending elements otherwise.

The canonical order for anything indexed by subsets is ascending mask
integer; :func:`cardinality_lex_order` gives the presentation order used by
published tables (by size, then lexicographic element lists).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, prod

from .rings import InexactDivisionError, LaurentPolynomial, q_factorial

__all__ = [
    "SubsetMask",
    "Composition",
    "eta",
    "eta_q",
    "min_inversions",
    "count_descent_subset",
    "cardinality_lex_order",
]


@dataclass(frozen=True)
class SubsetMask:
    """A subset of [n-1] in ambient size n, encoded as a bitmask."""

    n: int
    mask: int

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"ambient size must be a positive integer, got {self.n!r}")
        mask = self.mask
        if isinstance(mask, bool) or not isinstance(mask, int) or not 0 <= mask < 1 << self.n - 1:
            raise ValueError(f"mask {self.mask!r} out of range for n={self.n}")

    @classmethod
    def empty(cls, n: int) -> "SubsetMask":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "SubsetMask":
        return cls(n, (1 << (n - 1)) - 1)

    @classmethod
    def from_elements(cls, n: int, elements) -> "SubsetMask":
        mask = 0
        for i in elements:
            if not 1 <= i <= n - 1:
                raise ValueError(f"element {i} outside [{n - 1}]")
            mask |= 1 << (i - 1)
        return cls(n, mask)

    def elements(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n - 1) if self.mask >> i & 1)

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    def complement(self) -> "SubsetMask":
        return SubsetMask(self.n, self.mask ^ ((1 << (self.n - 1)) - 1))

    def __contains__(self, i: int) -> bool:
        return isinstance(i, int) and 1 <= i <= self.n - 1 and bool(self.mask >> (i - 1) & 1)

    def _check_ambient(self, other: "SubsetMask") -> None:
        if not isinstance(other, SubsetMask):
            raise TypeError(f"expected SubsetMask, got {type(other).__name__}")
        if other.n != self.n:
            raise ValueError(f"ambient sizes differ: {self.n} vs {other.n}")

    def __or__(self, other: "SubsetMask") -> "SubsetMask":
        self._check_ambient(other)
        return SubsetMask(self.n, self.mask | other.mask)

    def __and__(self, other: "SubsetMask") -> "SubsetMask":
        self._check_ambient(other)
        return SubsetMask(self.n, self.mask & other.mask)

    def __le__(self, other: "SubsetMask") -> bool:
        self._check_ambient(other)
        return self.mask & ~other.mask == 0

    def to_composition(self) -> "Composition":
        """The composition of n cut at the elements of the subset."""
        points = (0,) + self.elements() + (self.n,)
        return Composition(tuple(b - a for a, b in zip(points, points[1:])))

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.elements()) + "}"


@dataclass(frozen=True)
class Composition:
    """An ordered tuple of positive parts; sums to the ambient n."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts or any(isinstance(p, bool) or not isinstance(p, int) or p < 1 for p in parts):
            raise ValueError(f"parts must be a nonempty tuple of positive integers, got {parts!r}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def to_subset(self) -> SubsetMask:
        """The partial-sum subset of [n-1]; inverse of SubsetMask.to_composition."""
        total = 0
        elements = []
        for p in self.parts[:-1]:
            total += p
            elements.append(total)
        return SubsetMask.from_elements(self.n, elements)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def eta(s: SubsetMask) -> int:
    """Product of factorials of the gap lengths the subset cuts in [n].

    Counts the permutations whose connectivity set contains ``s``.

    >>> eta(SubsetMask.empty(4))
    24
    >>> eta(SubsetMask.from_elements(4, [1]))
    6
    """
    return prod(map(factorial, s.to_composition().parts))


def eta_q(s: SubsetMask) -> LaurentPolynomial:
    """q-analogue of :func:`eta`: the product of q-factorials of the gaps.

    Specializes to ``eta(s)`` at q=1.
    """
    out = LaurentPolynomial((1,))
    for p in s.to_composition().parts:
        out = out * q_factorial(p)
    return out


def min_inversions(t: SubsetMask) -> int:
    """Least inversion count among permutations whose descent set contains t.

    Computed as the sum of binomial(part, 2) over the gap lengths cut by the
    complement of t.
    """
    return sum(comb(p, 2) for p in t.complement().to_composition().parts)


def count_descent_subset(s: SubsetMask) -> int:
    """Number of permutations w of [n] whose descent set is contained in s."""
    total, weight = factorial(s.n), eta(s)
    q, r = divmod(total, weight)
    if r != 0:
        raise InexactDivisionError(f"eta({s}) = {weight} does not divide {s.n}!")
    return q


def cardinality_lex_order(n: int) -> list[int]:
    """Masks of all subsets of [n-1], ordered by cardinality then by the
    lexicographic order of their ascending element lists."""
    masks = range(1 << (n - 1))
    return sorted(masks, key=lambda m: (m.bit_count(), SubsetMask(n, m).elements()))
