"""Univariate polynomials over an exact field, and the eigenvalue-window
product families attached to an eigenvalue sequence.

Coefficients are stored dense and ascending with no trailing zeros; the zero
polynomial is the empty list.  Degrees stay at desk scale, so nothing here
tries to be clever.
"""

from __future__ import annotations

from .matrices import Matrix, MatrixError
from .scalars import Field, FieldError


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        cs = list(coeffs)
        zero = field.zero
        while cs and cs[-1] == zero:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, [])

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, [field.one])

    @classmethod
    def from_roots(cls, field: Field, roots) -> "Poly":
        """The monic product of (x - r) over the given roots."""
        p = cls.one(field)
        for r in roots:
            p = p * cls(field, [-r, field.one])
        return p

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: "Poly"):
        if self.field != other.field:
            raise FieldError("mixed fields in polynomial arithmetic")

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        zero = self.field.zero
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [zero] * (n - len(self.coeffs))
        b = list(other.coeffs) + [zero] * (n - len(other.coeffs))
        return Poly(self.field, [x + y for x, y in zip(a, b)])

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check(other)
            if self.is_zero() or other.is_zero():
                return Poly.zero(self.field)
            zero = self.field.zero
            out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == zero:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Poly(self.field, out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Poly":
        return Poly(self.field, [c * a for a in self.coeffs])

    def __call__(self, x):
        """Horner evaluation at a scalar."""
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        if len(self.coeffs) <= 1:
            return Poly.zero(self.field)
        return Poly(
            self.field,
            [self.field.from_int(i) * c for i, c in enumerate(self.coeffs) if i > 0],
        )

    def divmod(self, other: "Poly"):
        """Exact-field polynomial division: (quotient, remainder)."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        zero = self.field.zero
        rem = list(self.coeffs)
        q = [zero] * max(0, len(rem) - len(other.coeffs) + 1)
        dlead = other.coeffs[-1]
        dd = other.degree
        while len(rem) - 1 >= dd and any(c != zero for c in rem):
            while rem and rem[-1] == zero:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            shift = len(rem) - 1 - dd
            f = rem[-1] / dlead
            q[shift] = q[shift] + f
            for i, c in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - f * c
            rem.pop()
        return Poly(self.field, q), Poly(self.field, rem)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == self.field.one:
            return self
        return Poly(self.field, [c / lead for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(len(self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = " + ".join(f"({c})x^{i}" for i, c in enumerate(self.coeffs))
        return f"Poly({terms})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic()


class TauEtaFamily:
    """The monic window products attached to a distinct eigenvalue list.

    tau(i) vanishes exactly at the first i eigenvalues; eta(i) vanishes
    exactly at the last i.  Both are monic of degree i, with tau(0) =
    eta(0) = 1.
    """

    def __init__(self, field: Field, thetas):
        thetas = tuple(thetas)
        if len(set(thetas)) != len(thetas):
            raise ValueError("eigenvalues must be mutually distinct")
        self.field = field
        self.thetas = thetas
        self.d = len(thetas) - 1

    def _check_index(self, i: int):
        if not 0 <= i <= self.d:
            raise ValueError(f"index {i} outside 0..{self.d}")

    def tau(self, i: int) -> Poly:
        self._check_index(i)
        return Poly.from_roots(self.field, self.thetas[:i])

    def eta(self, i: int) -> Poly:
        self._check_index(i)
        return Poly.from_roots(self.field, self.thetas[self.d - i + 1 :][::-1])

    def tau_at(self, i: int, x):
        """tau(i) evaluated at x, as the direct scalar product."""
        self._check_index(i)
        acc = self.field.one
        for t in self.thetas[:i]:
            acc = acc * (x - t)
        return acc

    def eta_at(self, i: int, x):
        self._check_index(i)
        acc = self.field.one
        for t in self.thetas[self.d - i + 1 :]:
            acc = acc * (x - t)
        return acc


def eta_expansion_check(field: Field, thetas, thetas_star):
    """Verify the expansion of the full eta product into the tau basis.

    Both identities are checked as exact polynomial equalities:
    eta_d = sum_i eta_{d-i}(theta_0) tau_i, and the starred twin.
    Returns (ok, witness); witness names the first differing coefficient.
    """
    for label, seq in (("theta", thetas), ("theta_star", thetas_star)):
        fam = TauEtaFamily(field, seq)
        d = fam.d
        lhs = fam.eta(d)
        rhs = Poly.zero(field)
        for i in range(d + 1):
            rhs = rhs + fam.tau(i).scale(fam.eta_at(d - i, seq[0]))
        if lhs != rhs:
            diff = lhs - rhs
            k = next(
                i for i, c in enumerate(diff.coeffs) if c != field.zero
            )
            return False, {
                "sequence": label,
                "coefficient_index": k,
                "lhs": lhs.coeffs[k] if k < len(lhs.coeffs) else field.zero,
                "rhs": rhs.coeffs[k] if k < len(rhs.coeffs) else field.zero,
            }
    return True, None


def char_poly(m: Matrix) -> Poly:
    """Characteristic polynomial det(xI - m), exact over any field, in O(n^3).

    m is first brought to upper Hessenberg form h by elimination
    similarities; then p_k, the characteristic polynomial of the leading
    k x k block of h, satisfies p_0 = 1 and

        p_k = (x - h[k-1][k-1]) p_{k-1}
              - sum_{i<k} h[i-1][k-1] h[k-1][k-2] ... h[i][i-1] p_{i-1}

    (Cohen, A Course in Computational Algebraic Number Theory, 2.2.9).
    """
    if not m.is_square():
        raise MatrixError("characteristic polynomial of a non-square matrix")
    field = m.field
    h = _hessenberg(m)
    polys = [Poly.one(field)]
    for k in range(1, m.rows + 1):
        p = Poly(field, [-h[k - 1][k - 1], field.one]) * polys[k - 1]
        sub = field.one
        for i in range(k - 1, 0, -1):
            sub = sub * h[i][i - 1]
            p = p - polys[i - 1].scale(h[i - 1][k - 1] * sub)
        polys.append(p)
    return polys[-1]


def _hessenberg(m: Matrix):
    """An upper Hessenberg matrix similar to m, as a list of rows.

    Column by column, a nonzero entry below the subdiagonal is swapped onto
    it (rows and columns together), and each row below is cleared by a row
    operation whose inverse column operation keeps the similarity.
    """
    h = [list(row) for row in m.data]
    n = len(h)
    for c in range(n - 2):
        pivot = next((r for r in range(c + 1, n) if h[r][c]), None)
        if pivot is None:
            continue
        if pivot != c + 1:
            h[pivot], h[c + 1] = h[c + 1], h[pivot]
            for row in h:
                row[pivot], row[c + 1] = row[c + 1], row[pivot]
        top = h[c + 1]
        for r in range(c + 2, n):
            f = h[r][c] / top[c]
            if not f:
                continue
            h[r] = [a - f * b for a, b in zip(h[r], top)]
            for row in h:
                row[c + 1] = row[c + 1] + f * row[r]
    return h
