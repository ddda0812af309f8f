"""Exact truncated formal power series in one variable q over the integers.

Everything is arithmetic modulo q^(N+1), where N is the truncation order.
Coefficients are Python ints, so results are exact at any magnitude and can
never wrap.  Mixing series of different orders is an error, never an
implicit re-truncation; use :meth:`TruncatedSeries.truncate` to drop the
order on purpose.

Values are immutable and all operations are pure, so series can be shared
freely across threads.
"""

from __future__ import annotations

__all__ = ["TruncatedSeries", "monomial", "one", "zero"]

from dataclasses import dataclass
from operator import add, neg, sub


@dataclass(frozen=True, slots=True)
class TruncatedSeries:
    """A dense series c0 + c1*q + ... + cN*q^N.

    ``coeffs[k]`` is the coefficient of q^k; the order N is
    ``len(coeffs) - 1``.  Construct via :func:`monomial`, :func:`one`,
    :func:`zero` or by passing the coefficients, kept as a tuple.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("a series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        """The coefficient of q^k; k must lie in [0, order]."""
        if not 0 <= k <= self.order:
            raise IndexError(f"exponent {k} out of range [0, {self.order}]")
        return self.coeffs[k]

    def truncate(self, new_order: int) -> TruncatedSeries:
        """Drop to a lower (or equal) order, discarding the tail."""
        if not 0 <= new_order <= self.order:
            raise ValueError(
                f"cannot truncate order-{self.order} series to order {new_order}"
            )
        return TruncatedSeries(self.coeffs[: new_order + 1])

    # -- ring operations ------------------------------------------------

    def _coerced(self, other: TruncatedSeries | int) -> TruncatedSeries:
        if isinstance(other, int):
            return monomial(other, 0, self.order)
        if isinstance(other, TruncatedSeries):
            if other.order != self.order:
                raise ValueError(
                    f"order mismatch: {self.order} vs {other.order}"
                )
            return other
        raise TypeError(f"cannot combine TruncatedSeries with {type(other).__name__}")

    def __add__(self, other: TruncatedSeries | int) -> TruncatedSeries:
        return TruncatedSeries(tuple(map(add, self.coeffs, self._coerced(other).coeffs)))

    __radd__ = __add__

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries(tuple(map(neg, self.coeffs)))

    def __sub__(self, other: TruncatedSeries | int) -> TruncatedSeries:
        return TruncatedSeries(tuple(map(sub, self.coeffs, self._coerced(other).coeffs)))

    def __rsub__(self, other: int) -> TruncatedSeries:
        return self._coerced(other) - self

    def __mul__(self, other: TruncatedSeries | int) -> TruncatedSeries:
        other = self._coerced(other)
        # one C-level pass per nonzero term of the outer operand, so give it
        # the sparser one: O(N * nonzeros) when one side is a theta series
        outer, inner = self.coeffs, other.coeffs
        if outer.count(0) < inner.count(0):
            outer, inner = inner, outer
        out = [0] * len(outer)
        for i, a in enumerate(outer):
            if a:
                out[i:] = map(add, out[i:], map(a.__mul__, inner))
        return TruncatedSeries(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other: TruncatedSeries | int) -> TruncatedSeries:
        """The quotient self/other modulo q^(order+1), which exists over the
        integers exactly when other's constant term is +1 or -1.  Uses
        the standard recurrence
        r[k] = (self[k] - sum_{i=1..k} other[i]*r[k-i]) / other[0],
        summing over the nonzero other[i] only, so the cost is
        O(order * nonzero terms of other).
        """
        return self._coerced(other)._divided_into(list(self.coeffs))

    def __rtruediv__(self, other: int) -> TruncatedSeries:
        return self._coerced(other) / self

    def invert(self) -> TruncatedSeries:
        """Multiplicative inverse modulo q^(order+1): 1/self."""
        return self._divided_into([1] + [0] * self.order)

    def _divided_into(self, out: list[int]) -> TruncatedSeries:
        """out/self by the recurrence above, overwriting the list out."""
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise ValueError(
                f"constant term must be +1 or -1 to invert over the integers, got {c0}"
            )
        terms = [(i, a) for i, a in enumerate(self.coeffs) if i and a]
        for k in range(len(out)):
            acc = out[k]
            for i, a in terms:
                if i > k:
                    break
                acc -= a * out[k - i]
            out[k] = acc * c0  # dividing by a unit of Z is multiplying by it
        return TruncatedSeries(tuple(out))

    # -- presentation ---------------------------------------------------

    def __str__(self) -> str:
        terms: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = "" if abs(c) == 1 and k > 0 else str(abs(c))
            var = "" if k == 0 else "q" if k == 1 else f"q^{k}"
            mono = f"{mag}*{var}" if mag and var else mag + var
            if not terms:
                terms.append(f"-{mono}" if c < 0 else mono)
            else:
                terms.append(f"{'-' if c < 0 else '+'} {mono}")
        body = " ".join(terms) if terms else "0"
        return f"{body} + O(q^{self.order + 1})"


def monomial(c: int, k: int, order: int) -> TruncatedSeries:
    """The series c*q^k at the given order; exponents beyond the order drop."""
    if k < 0:
        raise ValueError(f"exponent must be non-negative, got {k}")
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    coeffs = [0] * (order + 1)
    if k <= order:
        coeffs[k] = c
    return TruncatedSeries(tuple(coeffs))


def zero(order: int) -> TruncatedSeries:
    return monomial(0, 0, order)


def one(order: int) -> TruncatedSeries:
    return monomial(1, 0, order)
