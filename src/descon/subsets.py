"""Subsets of [n-1] as fixed-width bitmasks, with the compositions of n
they cut (tuples of parts) and the factorial weights attached to them.

A subset S of [n-1] = {1, ..., n-1} is stored as an unsigned ``mask`` of
width n-1 with bit i-1 set exactly when i is in S. The ambient n travels
with the mask: the weight ``eta`` depends on both. Text form is ``{}`` for
the empty set and ``{1,3}`` with ascending elements otherwise.

The canonical order for anything indexed by subsets is ascending mask
integer; :func:`cardinality_lex_order` gives the presentation order used by
published tables (by size, then lexicographic element lists).
"""

from __future__ import annotations

from math import comb, factorial, prod

from .rings import InexactDivisionError, LaurentPolynomial, _Sealed, _require_int, q_factorial

__all__ = [
    "SubsetMask",
    "eta",
    "eta_q",
    "min_inversions",
    "count_descent_subset",
    "cardinality_lex_order",
]


class _Record:
    """Fields named, in order, by ``__match_args__``. Equal only to an
    instance of its own class with equal fields; printed, pickled and
    copied by them, as a dataclass is."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # rebuild through the constructor, since a frozen value refuses the
        # setattr that restoring slots would use
        return type(self), self._values()


class _Frozen(_Record, _Sealed):
    """An immutable value, as ``dataclass(frozen=True)`` makes one but
    without importing it: built from its fields by position or keyword,
    checked by ``__post_init__``, hashed by its fields, and refusing
    assignment and deletion as :class:`LaurentPolynomial` does."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self.__match_args__
        if kwargs or len(args) != len(fields):
            given = dict(zip(fields, args))
            stray = (kwargs.keys() - set(fields)) | (kwargs.keys() & given.keys())
            if stray or len(args) + len(kwargs) != len(fields):
                raise TypeError(f"{type(self).__name__}() takes each of {', '.join(fields)} once")
            given.update(kwargs)
            args = [given[name] for name in fields]
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __hash__(self) -> int:
        return hash(self._values())


class SubsetMask(_Frozen):
    """A subset of [n-1] in ambient size n, encoded as a bitmask."""

    __slots__ = __match_args__ = ("n", "mask")
    n: int
    mask: int

    def __post_init__(self):
        _require_int(self.n, "ambient size")
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
            if isinstance(i, bool) or not 1 <= i <= n - 1:
                raise ValueError(f"element {i!r} outside [{n - 1}]")
            mask |= 1 << (i - 1)
        return cls(n, mask)

    def elements(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in range(self.n - 1) if self.mask >> i & 1)

    def complement(self) -> "SubsetMask":
        return SubsetMask(self.n, self.mask ^ ((1 << (self.n - 1)) - 1))

    def __le__(self, other: "SubsetMask") -> bool:
        if not isinstance(other, SubsetMask):
            raise TypeError(f"expected SubsetMask, got {type(other).__name__}")
        if other.n != self.n:
            raise ValueError(f"ambient sizes differ: {self.n} vs {other.n}")
        return self.mask & ~other.mask == 0

    def to_composition(self) -> tuple[int, ...]:
        """The parts of the composition of n cut at the elements of the subset."""
        points = (0,) + self.elements() + (self.n,)
        return tuple(b - a for a, b in zip(points, points[1:]))

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.elements()) + "}"


def eta(s: SubsetMask) -> int:
    """Product of factorials of the gap lengths the subset cuts in [n].

    Counts the permutations whose connectivity set contains ``s``.

    >>> eta(SubsetMask.empty(4))
    24
    >>> eta(SubsetMask.from_elements(4, [1]))
    6
    """
    return prod(map(factorial, s.to_composition()))


def eta_q(s: SubsetMask) -> LaurentPolynomial:
    """q-analogue of :func:`eta`: the product of q-factorials of the gaps.

    Specializes to ``eta(s)`` at q=1.
    """
    out = LaurentPolynomial((1,))
    for p in s.to_composition():
        out = out * q_factorial(p)
    return out


def min_inversions(t: SubsetMask) -> int:
    """Least inversion count among permutations whose descent set contains t.

    Computed as the sum of binomial(part, 2) over the gap lengths cut by the
    complement of t.
    """
    return sum(comb(p, 2) for p in t.complement().to_composition())


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
    _require_int(n, "n")
    masks = range(1 << (n - 1))
    return sorted(masks, key=lambda m: (m.bit_count(), SubsetMask(n, m).elements()))
