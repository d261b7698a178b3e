"""Exact coefficient arithmetic: Laurent polynomials in q and the
q-analogues of integers and factorials.

Every weighted value of the package is a :class:`LaurentPolynomial`: the
``q``-analogues weigh each permutation by ``q**inv(w)``, and their inverses
substitute ``q -> 1/q``, so one type with a signed lowest exponent covers
both; a plain polynomial is the case of no negative power. Coefficients are
plain Python ints, so every operation is exact. Values are immutable after
construction, so caches and tables may share them.

JSON wire format (used by the CLI emitters): ``{"min": <int>, "coeffs":
["<int>", ...]}`` with coefficients as decimal strings in ascending
exponent order from ``min``, where ``min = min(0, lowest exponent)``: a
value with no negative power starts at ``q**0`` and keeps its leading zero
coefficients.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "InexactDivisionError",
    "LaurentPolynomial",
    "q_int",
    "q_factorial",
]


class InexactDivisionError(ArithmeticError):
    """A division that must be exact left a remainder.

    The counting formulas implemented here guarantee divisibility, so this
    always indicates an internal bug; callers must never truncate past it.
    """


def _format_terms(pairs: Iterable[tuple[int, int]]) -> str:
    """Render (exponent, coefficient) pairs compactly, e.g. ``1-q+2q^3``.

    No spaces, so rendered values are safe as unquoted CSV cells.
    """
    terms = []
    for exp, coeff in pairs:
        if coeff == 0:
            continue
        if exp == 0:
            terms.append(str(coeff))
            continue
        base = "q" if exp == 1 else f"q^{exp}"
        if coeff == 1:
            terms.append(base)
        elif coeff == -1:
            terms.append(f"-{base}")
        else:
            terms.append(f"{coeff}{base}")
    if not terms:
        return "0"
    out = terms[0]
    for term in terms[1:]:
        out += term if term.startswith("-") else f"+{term}"
    return out


def _require_int(value, name: str, low: int = 1) -> None:
    """Refuse anything but an int of at least ``low``, which is 1 or 0. A
    bool is refused too: it equals 1 or 0 but prints as True or False."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        kind = "positive" if low else "nonnegative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


class _Sealed:
    """Refuses assignment and deletion with ``dataclasses.FrozenInstanceError``;
    a subclass sets its slots in its constructor by ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class LaurentPolynomial(_Sealed):
    """Polynomial in q and 1/q with integer coefficients; the one exact type
    of every weighted value (plain polynomials are the case ``min_exp >= 0``).

    ``coeffs[i]`` is the coefficient of ``q**(min_exp + i)``. Normalization
    trims zeros from both ends, so each value has one representation; zero
    is canonically ``((), 0)``.

    >>> p = LaurentPolynomial([1, 2, 1])
    >>> str(p * p)
    '1+4q+6q^2+4q^3+q^4'
    >>> p.evaluate(1)
    4
    >>> str(LaurentPolynomial((1, 2), -3))
    'q^-3+2q^-2'
    """

    __slots__ = ("_min_exp", "_coeffs")

    def __init__(self, coeffs: Iterable[int] = (), min_exp: int = 0):
        cs = list(coeffs)
        for c in cs:
            # bool is an int subclass, but True is no coefficient
            if type(c) is not int and (isinstance(c, bool) or not isinstance(c, int)):
                raise TypeError(f"integer coefficient required, got {type(c).__name__}")
        if isinstance(min_exp, bool) or not isinstance(min_exp, int):
            raise TypeError(f"integer exponent required, got {type(min_exp).__name__}")
        hi = len(cs)
        while hi and cs[hi - 1] == 0:
            hi -= 1
        lo = 0
        while lo < hi and cs[lo] == 0:
            lo += 1
        object.__setattr__(self, "_coeffs", tuple(cs[lo:hi]))
        object.__setattr__(self, "_min_exp", min_exp + lo if hi else 0)

    def __reduce__(self):
        # through the constructor: the refusal blocks restoring slots by setattr
        return LaurentPolynomial, (self._coeffs, self._min_exp)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def min_exp(self) -> int:
        return self._min_exp

    @property
    def max_exp(self) -> int:
        """Highest exponent; ``-1`` for zero."""
        return self._min_exp + len(self._coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    @staticmethod
    def _coerce(other) -> "LaurentPolynomial | None":
        if isinstance(other, LaurentPolynomial):
            return other
        # a bool is no constant: it compares unequal and takes part in no arithmetic
        if isinstance(other, int) and not isinstance(other, bool):
            return LaurentPolynomial((other,))
        return None

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self._min_exp, self._coeffs) == (o._min_exp, o._coeffs)

    def __hash__(self) -> int:
        # constants hash like the int they equal
        if self._min_exp == 0 and len(self._coeffs) <= 1:
            return hash(self._coeffs[0] if self._coeffs else 0)
        return hash((self._min_exp, self._coeffs))

    def _plus(self, o: "LaurentPolynomial") -> "LaurentPolynomial":
        """``self + o``, in one pass over ``o``."""
        if not o:
            return self
        if not self:
            return o
        lo = min(self._min_exp, o._min_exp)
        out = [0] * (self._min_exp - lo) + list(self._coeffs)
        start = o._min_exp - lo
        out.extend([0] * (start + len(o._coeffs) - len(out)))
        for i, c in enumerate(o._coeffs, start):
            out[i] += c
        return LaurentPolynomial(out, lo)

    def __add__(self, other) -> "LaurentPolynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(tuple(-c for c in self._coeffs), self._min_exp)

    def __sub__(self, other) -> "LaurentPolynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(-o)

    def __rsub__(self, other) -> "LaurentPolynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._plus(-self)

    def __mul__(self, other) -> "LaurentPolynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self or not o:
            return LaurentPolynomial()
        out = [0] * (len(self._coeffs) + len(o._coeffs) - 1)
        for i, ca in enumerate(self._coeffs):
            if ca:
                for j, cb in enumerate(o._coeffs, i):
                    out[j] += ca * cb
        return LaurentPolynomial(out, self._min_exp + o._min_exp)

    __rmul__ = __mul__

    def evaluate(self, value: int) -> "int | Fraction":
        """Evaluate at an integer point (Horner), nonzero if some power is
        negative; the value is a Fraction only where those leave a proper one."""
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * value + c
        if self._min_exp >= 0:
            return acc * value**self._min_exp
        den = value ** -self._min_exp
        whole, rem = divmod(acc, den)
        if not rem:
            return whole
        from fractions import Fraction  # imported here, off every command's start-up
        return Fraction(acc, den)

    def substitute_reciprocal(self) -> "LaurentPolynomial":
        """Negate all exponents (q -> 1/q); an involution."""
        return LaurentPolynomial(tuple(reversed(self._coeffs)), -self.max_exp if self else 0)

    def to_json_dict(self) -> dict:
        """Wire form; ``min`` is ``min(0, min_exp)``, so a value with no
        negative power lists its coefficients from q**0 on."""
        coeffs = [str(c) for c in self._coeffs]
        if self._min_exp < 0:
            return {"min": self._min_exp, "coeffs": coeffs}
        return {"min": 0, "coeffs": ["0"] * self._min_exp + coeffs}

    def __str__(self) -> str:
        return _format_terms((self._min_exp + i, c) for i, c in enumerate(self._coeffs))

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self._coeffs!r}, {self._min_exp!r})"


def q_int(j: int) -> LaurentPolynomial:
    """The q-analogue of the integer j: 1 + q + ... + q**(j-1).

    >>> str(q_int(3))
    '1+q+q^2'
    """
    _require_int(j, "j")
    return LaurentPolynomial((1,) * j)


@lru_cache(maxsize=None, typed=True)  # typed, or True would hit the entry of 1
def q_factorial(j: int) -> LaurentPolynomial:
    """The q-analogue of j!: the product q_int(1) * q_int(2) * ... * q_int(j).

    >>> str(q_factorial(3))
    '1+2q+2q^2+q^3'
    >>> q_factorial(4).evaluate(1)
    24
    """
    _require_int(j, "j", 0)
    if j == 0:
        return LaurentPolynomial((1,))
    return q_factorial(j - 1) * q_int(j)
