"""Dense exact matrices and subspaces over a scalars.py field.

Matrices are immutable row-major grids of field values.  Subspaces are kept
in reduced row-echelon form, which makes rref the unique canonical
representative: subspace equality is plain entry equality, and every
set-level statement downstream becomes a decidable check.

Also houses the closure of a set of matrices into the unital algebra they
generate.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import product as _cartesian
from math import gcd, lcm
from operator import mul

from .scalars import Field, FieldError, FpElement, PrimeField


class MatrixError(ValueError):
    """Shape/field misuse in a matrix or subspace operation."""


class Matrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data):
        rows = tuple(map(tuple, data))
        if not rows or not rows[0]:
            raise MatrixError("matrices must have positive dimensions")
        if len(set(map(len, rows))) != 1:
            raise MatrixError("ragged rows")
        self.field = field
        self.rows = len(rows)
        self.cols = len(rows[0])
        self.data = rows

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        zero = field.zero
        return cls(field, [[zero] * cols for _ in range(rows)])

    @classmethod
    def from_ints(cls, field: Field, data) -> "Matrix":
        return cls(field, [[field.from_int(x) for x in row] for row in data])

    def _check_same_field(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldError("mixed fields in matrix arithmetic")

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise MatrixError("shape mismatch in addition")
        field = self.field
        if isinstance(field, PrimeField):
            return Matrix(
                field,
                [
                    [FpElement(field, a.value + b.value) for a, b in zip(ra, rb)]
                    for ra, rb in zip(self.data, other.data)
                ],
            )
        return Matrix(
            self.field,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        field = self.field
        if isinstance(field, PrimeField):
            return Matrix(field, [[FpElement(field, -a.value) for a in row] for row in self.data])
        return Matrix(self.field, [[-a for a in row] for row in self.data])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check_same_field(other)
            if self.cols != other.rows:
                raise MatrixError("shape mismatch in multiplication")
            field = self.field
            if isinstance(field, PrimeField):
                p = field.p
                rows = [_values(p, row) for row in self.data]
                cols = [_values(p, col) for col in zip(*other.data)]
                return Matrix(
                    field, [[FpElement(field, sum(map(mul, row, col))) for col in cols] for row in rows]
                )
            rows = [_scaled(row) for row in self.data]
            cols = [_scaled(col) for col in zip(*other.data)]
            return Matrix(
                field, [[Fraction(sum(map(mul, r, c)), dr * dc) for c, dc in cols] for r, dr in rows]
            )
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Matrix":
        field = self.field
        if isinstance(field, PrimeField):
            c = field._as_element(c).value
            return Matrix(field, [[FpElement(field, c * a.value) for a in row] for row in self.data])
        return Matrix(self.field, [[c * a for a in row] for row in self.data])

    def transpose(self) -> "Matrix":
        return Matrix(self.field, tuple(zip(*self.data)))

    def apply(self, vec):
        """Matrix times column vector (a tuple of scalars)."""
        if len(vec) != self.cols:
            raise MatrixError("vector length mismatch")
        field = self.field
        if isinstance(field, PrimeField):
            p = field.p
            vec = _values(p, vec)
            return tuple(FpElement(field, sum(map(mul, _values(p, row), vec))) for row in self.data)
        vec, dv = _scaled(vec)
        return tuple(Fraction(sum(map(mul, r, vec)), dr * dv) for r, dr in map(_scaled, self.data))

    def is_zero(self) -> bool:
        zero = self.field.zero
        return all(a == zero for row in self.data for a in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def vec(self):
        """Row-major flattening, used to treat matrices as vectors."""
        return tuple(a for row in self.data for a in row)

    @classmethod
    def from_vec(cls, field: Field, v, rows: int, cols: int) -> "Matrix":
        if len(v) != rows * cols:
            raise MatrixError("vector length does not match shape")
        return cls(field, [v[i * cols : (i + 1) * cols] for i in range(rows)])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for ra, rb in zip(self.data, other.data) for a, b in zip(ra, rb))
        )

    def __hash__(self):
        return hash((self.rows, self.cols))

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def rref(m: Matrix):
    """Reduced row-echelon form.

    Returns (R, rank, pivot_columns): the reduced rows of the span of m's
    rows, padded with zero rows to m's shape.  The rref of a matrix is
    unique, so R does not depend on how the rows were eliminated.
    """
    span = SpanBuilder(m.field, m.cols)
    for row in m.data:
        span.add(row)
    rows = span.reduced_rows()
    rows += [[m.field.zero] * m.cols] * (m.rows - len(rows))
    return Matrix(m.field, rows), span.dim, list(span.pivots)


def rank(m: Matrix) -> int:
    return rref(m)[1]


def det(m: Matrix):
    """Determinant: the product of the pivots that SpanBuilder.add returns,
    negated once per pair of rows added out of pivot order."""
    if not m.is_square():
        raise MatrixError("determinant of a non-square matrix")
    span = SpanBuilder(m.field, m.cols)
    acc = m.field.one
    for row in m.data:
        pivot = span.add(row)
        if pivot is None:
            return m.field.zero
        acc = acc * pivot
    return -acc if span.inversions % 2 else acc


def solve(m: Matrix, rhs):
    """One solution x of m x = rhs (a tuple), or None if inconsistent."""
    aug = Matrix(m.field, [list(row) + [b] for row, b in zip(m.data, rhs)])
    r, _, pivots = rref(aug)
    if m.cols in pivots:
        return None
    zero = m.field.zero
    x = [zero] * m.cols
    for k, c in enumerate(pivots):
        x[c] = r.data[k][m.cols]
    return tuple(x)


def inverse(m: Matrix) -> Matrix:
    if not m.is_square():
        raise MatrixError("inverse of a non-square matrix")
    n = m.rows
    ident = Matrix.identity(m.field, n)
    aug = Matrix(m.field, [list(r) + list(i) for r, i in zip(m.data, ident.data)])
    r, rk, pivots = rref(aug)
    if rk < n or pivots != list(range(n)):
        raise MatrixError("matrix is singular")
    return Matrix(m.field, [row[n:] for row in r.data])


class Subspace:
    """A subspace of K^ambient, canonically a full-row-rank rref basis.

    The zero subspace has an empty basis.  Canonicality makes __eq__ a
    complete equality test.  `pivots` holds the pivot column of each basis
    row, so a vector of the subspace has its coordinates at the pivots.
    """

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: Field, ambient: int, basis_rows, pivots):
        self.field = field
        self.ambient = ambient
        self.basis = tuple(tuple(r) for r in basis_rows)
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, field: Field, ambient: int, vectors) -> "Subspace":
        span = SpanBuilder(field, ambient)
        for v in vectors:
            if len(v) != ambient:
                raise MatrixError("vector length does not match ambient dimension")
            span.add(v)
        return span.subspace()

    @classmethod
    def zero(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, [], [])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return len(self.basis) == self.ambient

    def contains(self, vec) -> bool:
        if len(vec) != self.ambient:
            raise MatrixError("vector length does not match ambient dimension")
        if isinstance(self.field, PrimeField):
            p = self.field.p
            rows = [_values(p, row) for row in self.basis]
            return not any(_reduce_mod(p, self.pivots, rows, _values(p, vec)))
        rows = [_scaled(row)[0] for row in self.basis]
        return not any(_reduce_int(self.pivots, rows, _scaled(vec)[0])[0])

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.dim))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of K^{self.ambient})"


def sum_and_meet(s: Subspace, t: Subspace):
    """(S + T, S ∩ T), returned at once when an operand is V or 0.

    Otherwise the sum is the span of the union of the bases; the meet is read
    off the kernel of the stacked bases.  The two are separate eliminations,
    so the modular law dim S + dim T = dim(S+T) + dim(S∩T), asserted on
    every such call, cross-checks one against the other.
    """
    if s.ambient != t.ambient or s.field != t.field:
        raise MatrixError("subspace operands live in different ambient spaces")
    if s.is_full() or t.is_zero():
        return s, t
    if t.is_full() or s.is_zero():
        return t, s
    field, ambient = s.field, s.ambient
    total = Subspace.from_vectors(field, ambient, s.basis + t.basis)
    # x in S∩T  <=>  x = a·S = b·T; solve the stacked system for (a, b).
    stacked = Matrix(field, s.basis + (-Matrix(field, t.basis)).data).transpose()
    combine = Matrix(field, s.basis).transpose()  # a -> a·S
    meet = Subspace.from_vectors(
        field, ambient, [combine.apply(k[: s.dim]) for k in kernel_vectors(stacked)]
    )
    if s.dim + t.dim != total.dim + meet.dim:
        raise MatrixError(
            f"modular dimension law violated: {s.dim}+{t.dim} != {total.dim}+{meet.dim}"
        )
    return total, meet


def direct_sums(spaces):
    """Yield S_0, S_0+S_1, ... of a nonempty sequence of subspaces, canonical,
    from one SpanBuilder.  Raises MatrixError at the first summand meeting
    the earlier ones: each step asserts dim(S+T) = dim S + dim T."""
    span = SpanBuilder(spaces[0].field, spaces[0].ambient)
    for i, s in enumerate(spaces):
        if s.ambient != span.ambient or s.field != span.field:
            raise MatrixError("subspace operands live in different ambient spaces")
        if any(span.add(v) is None for v in s.basis):
            raise MatrixError(f"summand {i} meets the sum of the earlier summands")
        yield span.subspace()


def kernel_vectors(m: Matrix):
    """Basis vectors (tuples) of the right kernel of m."""
    r, _, pivots = rref(m)
    zero, one = m.field.zero, m.field.one
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    out = []
    for f in free:
        v = [zero] * m.cols
        v[f] = one
        for k, c in enumerate(pivots):
            v[c] = -r.data[k][f]
        out.append(tuple(v))
    return out


def kernel(m: Matrix) -> Subspace:
    """The right kernel of m as a canonical subspace of K^cols."""
    return Subspace.from_vectors(m.field, m.cols, kernel_vectors(m))


def image(m: Matrix) -> Subspace:
    """The column space of m, canonicalized."""
    return Subspace.from_vectors(m.field, m.rows, zip(*m.data))


def _scaled(vec):
    """(numerators, d): a vector of rationals as integers over their least
    common denominator d."""
    dens = [a.denominator for a in vec if isinstance(a, (Fraction, int))]
    if len(dens) != len(vec):
        raise FieldError("mixed fields: a vector entry is not rational")
    d = lcm(*dens)
    if d == 1:
        return [a.numerator for a in vec], 1
    return [a.numerator * (d // b) for a, b in zip(vec, dens)], d


def _reduce_int(pivots, rows, v):
    """(w, s): the integer vector v cleared at every pivot column, by the
    fraction-free steps v <- (r v - v[c] row) / gcd(r, v[c]) against echelon
    rows whose pivot r = row[c] need not be 1.  Clearing the rational
    vector v by the same rows with unit pivots gives w / s."""
    s = 1
    for c, row in zip(pivots, rows):
        f = v[c]
        if f:
            r = row[c]
            g = gcd(r, f)
            r, f = r // g, f // g
            v = [r * a - f * b for a, b in zip(v, row)]
            s *= r
    return v, s


def _values(p, vec):
    """The residues in [0, p) of a vector of GF(p) elements."""
    out = [a.value for a in vec if a.field.p == p]
    if len(out) != len(vec):
        raise FieldError(f"mixed fields: a vector entry is not in GF({p})")
    return out


def _reduce_mod(p, pivots, rows, v):
    """v cleared at every pivot column, on residues: rows and v are int
    lists, rows in [0, p) with unit pivots.  Each step reads one entry mod
    p, so the others are reduced once, at the end."""
    for c, row in zip(pivots, rows):
        f = v[c] % p
        if f:
            v = [a - f * b for a, b in zip(v, row)]
    return [a % p for a in v]


class SpanBuilder:
    """Incrementally row-reduced span of vectors: the package's one row
    reduction, behind rref, det and every Subspace.

    Rows are kept in echelon form, sorted by pivot column; a new row is
    inserted at its place.  reduced_rows back-substitutes once to the rref,
    so rows are never fully reduced on every add.  Rows are int lists,
    wrapped as field elements only by reduced_rows: over GF(p) residues in
    [0, p) with unit pivots, over Q integer rows with gcd 1 whose pivot
    entry is any nonzero integer.
    """

    def __init__(self, field: Field, ambient: int):
        self.field = field
        self.ambient = ambient
        self.rows = []
        self.pivots = []
        self.inversions = 0  # pairs of rows added out of pivot order

    def add(self, vec):
        """Add vec to the span.  Returns the pivot entry of vec once reduced
        against the span's rows scaled to unit pivots (the scalar a
        unit-pivot elimination divides the new row by), or None if vec
        already lay in the span."""
        if isinstance(self.field, PrimeField):
            p = self.field.p
            v = _reduce_mod(p, self.pivots, self.rows, _values(p, vec))
            for c, a in enumerate(v):
                if a:
                    inv = pow(a, -1, p)
                    self._insert(c, [x * inv % p for x in v])
                    return FpElement(self.field, a)
            return None
        v, d = _scaled(vec)
        v, s = _reduce_int(self.pivots, self.rows, v)
        for c, a in enumerate(v):
            if a:
                g = gcd(*v)
                self._insert(c, [x // g for x in v])
                return Fraction(a, d * s)
        return None

    def _insert(self, c, row):
        k = bisect_left(self.pivots, c)
        self.inversions += len(self.pivots) - k
        self.rows.insert(k, row)
        self.pivots.insert(k, c)

    def contains(self, vec) -> bool:
        if isinstance(self.field, PrimeField):
            p = self.field.p
            return not any(_reduce_mod(p, self.pivots, self.rows, _values(p, vec)))
        return not any(_reduce_int(self.pivots, self.rows, _scaled(vec)[0])[0])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduced_rows(self):
        """The rref basis of the span, by one back-substitution: bottom up,
        each row is cleared against the reduced rows below it."""
        rows = list(self.rows)
        if isinstance(self.field, PrimeField):
            p = self.field.p
            for k in range(len(rows) - 2, -1, -1):
                rows[k] = _reduce_mod(p, self.pivots[k + 1 :], rows[k + 1 :], rows[k])
            return [[FpElement(self.field, a) for a in row] for row in rows]
        for k in range(len(rows) - 2, -1, -1):
            rows[k] = _reduce_int(self.pivots[k + 1 :], rows[k + 1 :], rows[k])[0]
        return [[Fraction(a, row[c]) for a in row] for row, c in zip(rows, self.pivots)]

    def subspace(self) -> Subspace:
        return Subspace(self.field, self.ambient, self.reduced_rows(), self.pivots)


def algebra_closure(gens, unit: Matrix | None = None):
    """Basis of the smallest subalgebra with unit `unit` (by default the
    identity) containing the generators.

    Grows a span by left multiplication by the generators until it
    stabilizes; with the unit included, the span of all words is reached,
    and such a span is automatically closed under multiplication.  Growth
    is bounded by n^2 rounds (the ambient algebra dimension).

    Returns a list of matrices: the rref-canonical vectorized basis.
    """
    gens = list(gens)
    if not gens:
        raise MatrixError("algebra closure of an empty generating set")
    field = gens[0].field
    n = gens[0].rows
    for g in gens:
        if g.field != field:
            raise FieldError("mixed fields in algebra closure")
        if not g.is_square() or g.rows != n:
            raise MatrixError("algebra closure needs square matrices of one size")
    span = SpanBuilder(field, n * n)
    frontier = []
    for s in [Matrix.identity(field, n) if unit is None else unit, *gens]:
        if span.add(s.vec()):
            frontier.append(s)
    rounds = 0
    while frontier and rounds <= n * n:
        new_frontier = []
        for g in gens:
            for b in frontier:
                prod = g * b
                if span.add(prod.vec()):
                    new_frontier.append(prod)
        frontier = new_frontier
        rounds += 1
    if frontier:
        raise MatrixError("algebra closure failed to stabilize within n^2 rounds")
    basis_sub = span.subspace()
    return [Matrix.from_vec(field, row, n, n) for row in basis_sub.basis]


def assert_multiplication_closed(basis):
    """Check that products of basis elements stay in the span."""
    if not basis:
        return
    field = basis[0].field
    n = basis[0].rows
    span = SpanBuilder(field, n * n)
    for b in basis:
        span.add(b.vec())
    for x, y in _cartesian(basis, repeat=2):
        if not span.contains((x * y).vec()):
            raise MatrixError("algebra basis is not multiplication-closed")
