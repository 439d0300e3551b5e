"""Sparse multivariate polynomials with a fixed graded-lexicographic order.

A polynomial keeps a map from exponent tuples to coefficients.  Two scalar
backends are supported and never mixed implicitly:

  * exact   -- ``fractions.Fraction`` coefficients, used for identity checks
               and closed-form moments,
  * float   -- binary64, used by the numerical solver.

Conversion from exact to float is explicit (``to_float``) and one-way.
Monomials are ordered by total degree first, then lexicographically with
x1 before x2 before ... within each degree, so for n=2 the basis starts
1, x, y, x^2, xy, y^2.  Every matrix in the package is indexed by this order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb


@lru_cache(maxsize=None)
def monomial_basis(n: int, t: int) -> tuple:
    """All exponent tuples of total degree <= t in graded-lex order.

    The result has ``comb(n + t, n)`` entries and its degree <= t-1 prefix
    equals ``monomial_basis(n, t - 1)``.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if t < 0:
        raise ValueError(f"degree must be >= 0, got {t}")
    alphas = [
        a
        for a in itertools.product(range(t + 1), repeat=n)
        if sum(a) <= t
    ]
    alphas.sort(key=lambda a: (sum(a), tuple(-e for e in a)))
    return tuple(alphas)


def basis_size(n: int, t: int) -> int:
    """Number of monomials of degree <= t in n variables."""
    if t < 0:
        return 0
    return comb(n + t, n)


class Poly:
    """Sparse polynomial; immutable by convention (operations return new values)."""

    __slots__ = ("n", "exact", "terms")

    def __init__(self, n: int, terms=None, exact: bool = True):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        self.n = n
        self.exact = bool(exact)
        clean = {}
        for alpha, c in (terms or {}).items():
            alpha = tuple(int(e) for e in alpha)
            if len(alpha) != n or any(e < 0 for e in alpha):
                raise ValueError(f"bad exponent {alpha} for dimension {n}")
            c = self._coerce(c)
            if c != 0:
                clean[alpha] = clean.get(alpha, self._zero_scalar()) + c
        self.terms = {a: c for a, c in clean.items() if c != 0}

    def _coerce(self, c):
        if self.exact:
            if isinstance(c, float):
                raise ValueError(
                    "float coefficient on the exact backend; "
                    "build the polynomial with exact=False or pass a Fraction"
                )
            return Fraction(c)
        return float(c)

    def _zero_scalar(self):
        return Fraction(0) if self.exact else 0.0

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int, exact: bool = True) -> "Poly":
        return cls(n, {}, exact=exact)

    @classmethod
    def constant(cls, n: int, c, exact: bool = True) -> "Poly":
        return cls(n, {(0,) * n: c}, exact=exact)

    @classmethod
    def variable(cls, n: int, i: int, exact: bool = True) -> "Poly":
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for n={n}")
        alpha = tuple(1 if j == i else 0 for j in range(n))
        return cls(n, {alpha: 1}, exact=exact)

    @classmethod
    def monomial(cls, alpha, c=1, exact: bool = True) -> "Poly":
        alpha = tuple(alpha)
        return cls(len(alpha), {alpha: c}, exact=exact)

    # -- inspection --------------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(a) for a in self.terms), default=-1)

    @property
    def half_degree(self) -> int:
        """ceil(degree / 2), with the zero/constant polynomial giving 0."""
        return max(0, -(-self.degree // 2))

    def coefficient(self, alpha):
        return self.terms.get(tuple(alpha), self._zero_scalar())

    def max_coeff(self):
        """Largest absolute coefficient (0 for the zero polynomial)."""
        return max((abs(c) for c in self.terms.values()), default=self._zero_scalar())

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic --------------------------------------------------------

    def _check_compat(self, other: "Poly"):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        if self.exact != other.exact:
            raise ValueError(
                "scalar backend mismatch; convert explicitly with to_float()"
            )

    def _as_poly(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)) or (
            not self.exact and isinstance(other, float)
        ):
            return Poly.constant(self.n, other, exact=self.exact)
        return None

    def __add__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        self._check_compat(other)
        out = dict(self.terms)
        for a, c in other.terms.items():
            out[a] = out.get(a, self._zero_scalar()) + c
        return Poly(self.n, out, exact=self.exact)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.n, {a: -c for a, c in self.terms.items()}, exact=self.exact)

    def __sub__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        scalar = None
        if isinstance(other, (int, Fraction)):
            scalar = other
        elif not self.exact and isinstance(other, float):
            scalar = other
        if scalar is not None:
            return Poly(
                self.n, {a: c * scalar for a, c in self.terms.items()}, exact=self.exact
            )
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compat(other)
        out = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                out[key] = out.get(key, self._zero_scalar()) + ca * cb
        return Poly(self.n, out, exact=self.exact)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if self.exact:
            return self * (Fraction(1) / Fraction(scalar))
        return self * (1.0 / float(scalar))

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = Poly.constant(self.n, 1, exact=self.exact)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, float)):
            other = Poly.constant(self.n, other, exact=isinstance(other, (int, Fraction)))
        if not isinstance(other, Poly):
            return NotImplemented
        # Fraction == float comparison is value-based, so cross-backend
        # equality means equality of coefficient values.
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- evaluation and conversion ----------------------------------------

    def evaluate(self, point):
        """Value at a point (sequence of n scalars).

        On the float backend the coordinates may be numpy arrays, in which
        case evaluation broadcasts elementwise.
        """
        point = tuple(point)
        if len(point) != self.n:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.n}")
        total = self._zero_scalar()
        for alpha, c in self.terms.items():
            term = c
            for x, e in zip(point, alpha):
                if e:
                    term = term * x**e
            total = total + term
        return total

    def to_float(self) -> "Poly":
        """Explicit one-way conversion to the binary64 backend."""
        if not self.exact:
            return self
        return Poly(self.n, {a: float(c) for a, c in self.terms.items()}, exact=False)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for alpha in sorted(self.terms, key=lambda a: (sum(a), tuple(-e for e in a))):
            c = self.terms[alpha]
            mono = "*".join(
                f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                for i, e in enumerate(alpha)
                if e
            )
            bits.append(f"{c}*{mono}" if mono else f"{c}")
        return " + ".join(bits)


def chebyshev(kind: str, order: int) -> Poly:
    """Univariate Chebyshev polynomial T_n or U_n with exact integer coefficients.

    Both kinds satisfy p_{k+1} = 2x p_k - p_{k-1}; they differ in the degree-1
    seed (T_1 = x, U_1 = 2x).
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if kind not in ("first", "second"):
        raise ValueError(f"kind must be 'first' or 'second', got {kind!r}")
    x = Poly.variable(1, 0)
    p_prev = Poly.constant(1, 1)
    if order == 0:
        return p_prev
    p_cur = x if kind == "first" else 2 * x
    for _ in range(order - 1):
        p_prev, p_cur = p_cur, 2 * x * p_cur - p_prev
    return p_cur


# -- polynomial literal format --------------------------------------------
#
# Wire format for set-definition files and reports: a list of terms
#   {"exponents": [int, ...], "coeff": "<decimal or p/q string>"}
# Fraction("0.3") and Fraction("3/10") both parse exactly.


def poly_from_literal(n: int, items, exact: bool = True) -> Poly:
    """Parse the literal term-list format."""
    terms = {}
    for item in items:
        alpha = tuple(int(e) for e in item["exponents"])
        raw = item["coeff"]
        value = Fraction(raw) if isinstance(raw, (str, int)) else Fraction(str(raw))
        key = alpha
        terms[key] = terms.get(key, Fraction(0)) + value
    if exact:
        return Poly(n, terms, exact=True)
    return Poly(n, {a: float(c) for a, c in terms.items()}, exact=False)


def poly_to_literal(p: Poly) -> list:
    """Emit the literal term-list format (exact coefficients as p/q strings)."""
    items = []
    for alpha in sorted(p.terms, key=lambda a: (sum(a), tuple(-e for e in a))):
        c = p.terms[alpha]
        items.append(
            {"exponents": list(alpha), "coeff": str(c) if p.exact else repr(float(c))}
        )
    return items
