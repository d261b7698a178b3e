"""Exact coefficient arithmetic: Laurent polynomials in q and the
q-analogues of integers, factorials and multinomials.

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
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "InexactDivisionError",
    "LaurentPolynomial",
    "q_int",
    "q_factorial",
    "q_multinomial",
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

    def coeff(self, exp: int) -> int:
        i = exp - self._min_exp
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return 0

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    @staticmethod
    def _coerce(other) -> "LaurentPolynomial | None":
        if isinstance(other, LaurentPolynomial):
            return other
        if isinstance(other, int):
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

    def _plus(self, o: "LaurentPolynomial", sign: int) -> "LaurentPolynomial":
        """``self + sign * o`` for sign +1 or -1, in one pass over ``o``."""
        if not o:
            return self
        if not self:
            return o if sign > 0 else -o
        lo = min(self._min_exp, o._min_exp)
        out = [0] * (self._min_exp - lo) + list(self._coeffs)
        start = o._min_exp - lo
        out.extend([0] * (start + len(o._coeffs) - len(out)))
        if sign > 0:
            for i, c in enumerate(o._coeffs, start):
                out[i] += c
        else:
            for i, c in enumerate(o._coeffs, start):
                out[i] -= c
        return LaurentPolynomial(out, lo)

    def __add__(self, other) -> "LaurentPolynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(tuple(-c for c in self._coeffs), self._min_exp)

    def __sub__(self, other) -> "LaurentPolynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, -1)

    def __rsub__(self, other) -> "LaurentPolynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o._plus(self, -1)

    def __mul__(self, other) -> "LaurentPolynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self or not o:
            return LaurentPolynomial()
        out = [0] * (len(self._coeffs) + len(o._coeffs) - 1)
        for i, ca in enumerate(self._coeffs):
            if ca == 0:
                continue
            for j, cb in enumerate(o._coeffs):
                out[i + j] += ca * cb
        return LaurentPolynomial(out, self._min_exp + o._min_exp)

    __rmul__ = __mul__

    def shifted(self, k: int) -> "LaurentPolynomial":
        """Multiply by q**k, for k of either sign."""
        if not self:
            return self
        return LaurentPolynomial(self._coeffs, self._min_exp + k)

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

    def exact_div(self, divisor: "LaurentPolynomial | int") -> "LaurentPolynomial":
        """Divide exactly; raise InexactDivisionError if any remainder appears.

        Powers of q are units here, so only the coefficient tuples (whose
        constant terms are nonzero after normalization) need to divide.
        """
        d = self._coerce(divisor)
        if d is None:
            raise TypeError("divisor must be a LaurentPolynomial or int")
        if not d:
            raise ZeroDivisionError("polynomial division by zero")
        if not self:
            return LaurentPolynomial()
        rem = list(self._coeffs)
        dc = d._coeffs
        lead = dc[-1]
        if len(rem) < len(dc):
            raise InexactDivisionError(f"{self!r} is not divisible by {d!r}")
        quot = [0] * (len(rem) - len(dc) + 1)
        for pos in range(len(quot) - 1, -1, -1):
            head = rem[pos + len(dc) - 1]
            if head == 0:
                continue
            q, r = divmod(head, lead)
            if r != 0:
                raise InexactDivisionError(f"{self!r} is not divisible by {d!r}")
            quot[pos] = q
            for i, c in enumerate(dc):
                rem[pos + i] -= q * c
        if any(rem):
            raise InexactDivisionError(f"{self!r} is not divisible by {d!r}")
        return LaurentPolynomial(quot, self._min_exp - d._min_exp)

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
    if isinstance(j, bool) or not isinstance(j, int) or j < 1:
        raise ValueError(f"q_int requires a positive integer, got {j!r}")
    return LaurentPolynomial((1,) * j)


@lru_cache(maxsize=None, typed=True)  # typed, or True would hit the entry of 1
def q_factorial(j: int) -> LaurentPolynomial:
    """The q-analogue of j!: the product q_int(1) * q_int(2) * ... * q_int(j).

    >>> str(q_factorial(3))
    '1+2q+2q^2+q^3'
    >>> q_factorial(4).evaluate(1)
    24
    """
    if isinstance(j, bool) or not isinstance(j, int) or j < 0:
        raise ValueError(f"q_factorial requires a nonnegative integer, got {j!r}")
    if j == 0:
        return LaurentPolynomial((1,))
    return q_factorial(j - 1) * q_int(j)


def q_multinomial(m: int, parts: Sequence[int]) -> LaurentPolynomial:
    """Gaussian multinomial coefficient: q_factorial(m) over the parts.

    The division is exact by construction; a remainder would be an internal
    arithmetic bug and raises InexactDivisionError.

    >>> str(q_multinomial(4, [2, 2]))
    '1+q+2q^2+q^3+q^4'
    """
    if not parts:
        raise ValueError("q_multinomial requires at least one part")
    if any(isinstance(p, bool) or not isinstance(p, int) or p < 1 for p in parts):
        raise ValueError(f"q_multinomial parts must be positive integers, got {parts!r}")
    if sum(parts) != m:
        raise ValueError(f"q_multinomial parts {parts!r} do not sum to {m}")
    numerator = q_factorial(m)
    for p in parts:
        numerator = numerator.exact_div(q_factorial(p))
    return numerator
