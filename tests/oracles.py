"""Reference implementations the tests compare the package against.

Each one is the direct, slow construction of something the package now
computes another way, or a fixture builder only tests need: the intertwiner
space as the kernel of the n^2-unknown Sylvester system (the package spins
one vector instead), the primitive idempotents as Lagrange products (the
package projects along the eigenspace decomposition), Horner evaluation of a
polynomial at a matrix (the package reads its operator tables), the standard
orderings by full enumeration, the whole space as a subspace, the golden d=1
instance, and the agreement of an isomorphism verdict with parameter-array
equality (the fuzz isomorphism stage encodes it as its expected verdicts).
"""

from fractions import Fraction as F
from itertools import permutations

from tdlab.appshell import gen_leonard_split
from tdlab.matrices import Matrix, MatrixError, Subspace, kernel
from tdlab.scalars import FieldError, RationalField
from tdlab.tdcore import FAIL, PASS, Check, _off_band_pair


def intertwiner_space(a, astar, b, bstar):
    """All g with g·a = b·g and g·astar = bstar·g, as a subspace of K^(n^2).

    The constraint matrix is the stacked Sylvester-style system; the result
    is the canonical (rref) basis of its kernel.  Basis vectors devectorize
    to n x n matrices via Matrix.from_vec.
    """
    mats = (a, astar, b, bstar)
    field = a.field
    n = a.rows
    for m in mats:
        if m.field != field:
            raise FieldError("mixed fields in intertwiner computation")
        if not m.is_square() or m.rows != n:
            raise MatrixError("intertwiner computation needs same-size square matrices")
    zero = field.zero
    rows = []
    for lhs, rhs in ((a, b), (astar, bstar)):
        for i in range(n):
            for j in range(n):
                # coefficient of g_kl in (g·lhs - rhs·g)_{ij}
                row = [zero] * (n * n)
                for l in range(n):
                    row[i * n + l] = row[i * n + l] + lhs.data[l][j]
                for k in range(n):
                    row[k * n + j] = row[k * n + j] - rhs.data[i][k]
                rows.append(row)
    return kernel(Matrix(field, rows))


def intertwiner_matrices(a, astar, b, bstar):
    """The intertwiner space devectorized to a list of basis matrices."""
    space = intertwiner_space(a, astar, b, bstar)
    n = a.rows
    return [Matrix.from_vec(a.field, row, n, n) for row in space.basis]


def lagrange_idempotents(m, thetas):
    """E_i = prod over j != i of (m - theta_j I) / (theta_i - theta_j).

    On an operator diagonalizable with eigenvalues among thetas these are
    its primitive idempotents: the Lagrange basis polynomials evaluated at m.
    """
    field = m.field
    ident = Matrix.identity(field, m.rows)
    out = []
    for i, ti in enumerate(thetas):
        e = ident
        for j, tj in enumerate(thetas):
            if j != i:
                e = e * (m - ident.scale(tj)).scale(field.one / (ti - tj))
        out.append(e)
    return out


def full_subspace(field, ambient):
    """The whole space K^ambient, with the unit vectors as its rref basis."""
    return Subspace(field, ambient, Matrix.identity(field, ambient).data, range(ambient))


def at_matrix(poly, m):
    """Horner evaluation of a polynomial at a square matrix."""
    n = m.rows
    acc = Matrix.zeros(poly.field, n, n)
    ident = Matrix.identity(poly.field, n)
    for c in reversed(poly.coeffs):
        acc = acc * m + ident.scale(c)
    return acc


def enumerate_standard_orderings(sys, e_fam, estar_fam):
    """All standard orderings of each eigenvalue list, by full enumeration.

    Factorial in d+1; restricted to d <= 4.
    """
    if sys.d > 4:
        raise ValueError("standard-ordering enumeration is limited to d <= 4")
    out = {}
    for name, fam, thetas, middle in (
        ("A", e_fam, sys.thetas, sys.Astar),
        ("Astar", estar_fam, sys.thetas_star, sys.A),
    ):
        good = []
        for perm in permutations(range(len(fam))):
            if _off_band_pair([fam[k] for k in perm], middle) is None:
                good.append(tuple(thetas[k] for k in perm))
        out[name] = good
    return out


def builtin_x1():
    """The golden d=1 instance over the rationals, in its context."""
    return gen_leonard_split(RationalField(), (F(1), F(0)), (F(1), F(0)), (F(1),))


def conjecture_crosscheck(verdict: str, array1, array2):
    """Agreement between the isomorphism verdict and array equality.

    A disagreement in either direction is the empirical counterexample the
    fuzz harness hunts for.
    """
    same_array = (
        tuple(array1.thetas) == tuple(array2.thetas)
        and tuple(array1.thetas_star) == tuple(array2.thetas_star)
        and tuple(array1.zetas) == tuple(array2.zetas)
    )
    agree = (verdict == "isomorphic") == same_array
    return Check(
        "iso/array_agreement",
        PASS if agree else FAIL,
        None if agree else {"verdict": verdict, "same_array": same_array},
    )
