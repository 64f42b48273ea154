"""Reference implementations the tests compare the package against.

Each one is the direct, slow construction of something the package now
computes another way, or a fixture builder only tests need: the intertwiner
space as the kernel of the n^2-unknown Sylvester system (the package spins
one vector instead), the primitive idempotents as Lagrange products (the
package projects along the eigenspace decomposition), Horner evaluation of a
polynomial at a matrix, the operator tables tau_i(A), tau*_i(A*) and the
alternating products as n x n matrices, with the trace and corner-product
identities and the cross-trace table read from them as matrix products (the
package reads the rank-one corners as scalars, through vectors), the
standard orderings by full enumeration with block-tridiagonality in its
product form E_i M E_j (the package reads it on eigenspaces, and so does
the fuzz sampler, whose n^2-row superdiagonal system is kept here), the
whole space as a subspace, the golden d=1 instance, the agreement of an
isomorphism verdict with parameter-array equality (the fuzz isomorphism
stage encodes it as its expected verdicts), the form's anti-automorphism
X -> G^-1 X^t G as a product (the package reads each of its properties as
an identity on G), the trace of a matrix, which only these forms read, and
irreducibility by enumerating the sums of A's eigenlines (the package spins
the line E*_0 V, Norton's test).
"""

from fractions import Fraction as F
from itertools import combinations, permutations

from tdlab.appshell import _bidiagonal_system, gen_leonard_split
from tdlab.matrices import Matrix, MatrixError, Subspace, inverse, kernel
from tdlab.polys import TauEtaFamily
from tdlab.scalars import FieldError, RationalField
from tdlab.splitparam import _prefix_products
from tdlab.tdcore import FAIL, PASS, Check


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


def off_band_pair(mats, middle):
    """The first {i, j} with |i - j| > 1 and E_i M E_j != 0, scanning i, then
    j, or None: block-tridiagonality by the product form of its definition."""
    for i, ei in enumerate(mats):
        for j, ej in enumerate(mats):
            if abs(i - j) > 1 and not (ei * middle * ej).is_zero():
                return {"i": i, "j": j}
    return None


def enumerate_standard_orderings(sys, e_fam, estar_fam):
    """All standard orderings of each eigenvalue list, by full enumeration
    with the product form (off_band_pair).

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
            if off_band_pair([fam[k] for k in perm], middle) is None:
                good.append(tuple(thetas[k] for k in perm))
        out[name] = good
    return out


def superdiagonal_system(field, thetas, thetas_star):
    """The fuzz sampler's superdiagonal system in its first form: n^2 rows
    per pair |i - j| > 1, one for each entry (r, c) of
    sum_k phi_k E_i U_k E_j = -E_i D E_j.  D is the diagonal part of A*, U_k
    the unit at (k-1, k), and E_i U_k E_j is column k-1 of E_i times row k
    of E_j.  The idempotents are the Lagrange products.  Returns (system,
    rhs)."""
    d = len(thetas) - 1
    n = d + 1
    unit_free = _bidiagonal_system(field, thetas, thetas_star, (field.zero,) * d)
    e = lagrange_idempotents(unit_free.A, thetas)
    rows, rhs = [], []
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 1:
                base = e[i] * unit_free.Astar * e[j]
                for r in range(n):
                    for c in range(n):
                        rows.append([e[i].data[r][k - 1] * e[j].data[k][c] for k in range(1, n)])
                        rhs.append(-base.data[r][c])
    return Matrix(field, rows), tuple(rhs)


def trace(m):
    """The sum of the diagonal entries of a square matrix."""
    if m.rows != m.cols:
        raise MatrixError("trace of a non-square matrix")
    return sum((m.data[i][i] for i in range(m.rows)), m.field.zero)


def anti_image(g, x):
    """sigma(X) = G^-1 X^t G, the transpose-conjugation of the form G."""
    return inverse(g) * x.transpose() * g


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


def _linear_products(m: Matrix, values) -> list:
    """The prefix products of (m - v I) over `values`: entry i is the product
    of the first i factors, entry 0 the identity.  The identity is never a
    factor of a multiplication."""
    ident = Matrix.identity(m.field, m.rows)
    out = [ident]
    for v in values:
        factor = m - ident.scale(v)
        out.append(factor if len(out) == 1 else out[-1] * factor)
    return out


def _alternating(sigma: list, tau: list) -> list:
    """sigma_i tau_i for i = 0..d, where both tables start at the identity."""
    return [tau[0]] + [s * t for s, t in zip(sigma[1:], tau[1:])]


def operator_tables(sys):
    """(tau, tau_star, alternating, alternating_star), each indexed i = 0..d:
    tau_i(A) = (A - theta_0)...(A - theta_{i-1}), tau*_i(A*) likewise,
    (A* - theta*_1)...(A* - theta*_i) tau_i(A), whose action on U_0 is
    zeta_i, and (A - theta_1)...(A - theta_i) tau*_i(A*)."""
    tau = _linear_products(sys.A, sys.thetas[:-1])
    tau_star = _linear_products(sys.Astar, sys.thetas_star[:-1])
    alternating = _alternating(_linear_products(sys.Astar, sys.thetas_star[1:]), tau)
    alternating_star = _alternating(_linear_products(sys.A, sys.thetas[1:]), tau_star)
    return tau, tau_star, alternating, alternating_star


def trace_zeta(ctx):
    """splitparam.trace_zeta with every trace read from a matrix product."""
    sys, e_fam, estar_fam = ctx.sys, ctx.e_fam, ctx.estar_fam
    field, d = sys.field, sys.d
    e0, ed = e_fam[0], e_fam[d]
    es0, esd = estar_fam[0], estar_fam[d]
    checks = []

    corner_traces = {
        "tr_E0Estar0": trace(e0 * es0),
        "tr_E0Estard": trace(e0 * esd),
        "tr_EdEstar0": trace(ed * es0),
        "tr_EdEstard": trace(ed * esd),
    }
    zero = field.zero
    bad = {k: v for k, v in corner_traces.items() if v == zero}
    checks.append(Check("split/trace_nonzero", FAIL if bad else PASS, bad or None))
    if bad:
        return {}, checks

    pre_t = _prefix_products(field, list(sys.thetas), sys.thetas[0])
    pre_s = _prefix_products(field, list(sys.thetas_star), sys.thetas_star[0])
    tr_e0es0 = corner_traces["tr_E0Estar0"]
    tr_es0e0 = trace(es0 * e0)
    tau, tau_star, _, _ = operator_tables(sys)

    by_dual_prefix = [pre_s[i] * trace(tau[i] * es0) for i in range(d + 1)]
    by_primary_prefix = [pre_t[i] * trace(tau_star[i] * e0) for i in range(d + 1)]
    by_corner_ratio = [
        trace(e0 * tau_star[i] * tau[i] * es0) / tr_e0es0 for i in range(d + 1)
    ]
    by_corner_ratio_dual = [
        trace(es0 * tau[i] * tau_star[i] * e0) / tr_es0e0 for i in range(d + 1)
    ]
    values = {
        "dual_prefix_times_trace": by_dual_prefix,
        "primary_prefix_times_trace": by_primary_prefix,
        "corner_trace_ratio": by_corner_ratio,
        "corner_trace_ratio_dual": by_corner_ratio_dual,
        "corner_traces": corner_traces,
    }
    zt = list(ctx.zetas)
    mismatch = None
    for name in (
        "dual_prefix_times_trace",
        "primary_prefix_times_trace",
        "corner_trace_ratio",
        "corner_trace_ratio_dual",
    ):
        if values[name] != zt:
            mismatch = {"formula": name, "got": values[name], "expected": zt}
            break
    checks.append(Check("split/trace_formulas", FAIL if mismatch else PASS, mismatch))
    return values, checks


def vanishing_check(ctx):
    """splitparam.vanishing_check with every corner formed as a matrix product."""
    sys, zetas = ctx.sys, ctx.zetas
    field, d = sys.field, sys.d
    e0 = ctx.e_fam[0]
    es0 = ctx.estar_fam[0]
    taus_a, taus_b, alternating, alternating_star = operator_tables(sys)
    checks = []

    bad = None
    for i in range(d + 1):
        for j in range(d + 1):
            if i == j:
                continue
            if not (e0 * taus_b[i] * taus_a[j] * es0).is_zero():
                bad = {"side": "primary-corner", "i": i, "j": j}
                break
            if not (es0 * taus_a[i] * taus_b[j] * e0).is_zero():
                bad = {"side": "dual-corner", "i": i, "j": j}
                break
        if bad:
            break
    checks.append(Check("split/offdiag_products_vanish", FAIL if bad else PASS, bad))

    pre_t = _prefix_products(field, list(sys.thetas), sys.thetas[0])
    pre_s = _prefix_products(field, list(sys.thetas_star), sys.thetas_star[0])
    bad = None
    for i in range(d + 1):
        lhs1 = e0 * taus_b[i] * taus_a[i] * es0
        if lhs1 != (e0 * taus_b[i] * e0 * es0).scale(pre_t[i]):
            bad = {"identity": "primary via primary-prefix", "i": i}
            break
        if lhs1 != (e0 * es0 * taus_a[i] * es0).scale(pre_s[i]):
            bad = {"identity": "primary via dual-prefix", "i": i}
            break
        lhs2 = es0 * taus_a[i] * taus_b[i] * e0
        if lhs2 != (es0 * taus_a[i] * es0 * e0).scale(pre_s[i]):
            bad = {"identity": "dual via dual-prefix", "i": i}
            break
        if lhs2 != (es0 * e0 * taus_b[i] * e0).scale(pre_t[i]):
            bad = {"identity": "dual via primary-prefix", "i": i}
            break
    checks.append(Check("split/prefix_product_reductions", FAIL if bad else PASS, bad))

    bad = None
    for i in range(d + 1):
        if (e0 * taus_b[i] * taus_a[i] * es0) != (e0 * es0).scale(zetas[i]):
            bad = {"identity": "primary corner scaling", "i": i}
            break
        if (es0 * taus_a[i] * taus_b[i] * e0) != (es0 * e0).scale(zetas[i]):
            bad = {"identity": "dual corner scaling", "i": i}
            break
    checks.append(Check("split/diag_products_scale", FAIL if bad else PASS, bad))

    bad = None
    for i in range(d + 1):
        if alternating[i] * es0 != es0.scale(zetas[i]):
            bad = {"identity": "alternating product on first dual eigenspace", "i": i}
            break
        if alternating_star[i] * e0 != e0.scale(zetas[i]):
            bad = {"identity": "alternating product on first primary eigenspace", "i": i}
            break
    checks.append(Check("split/raising_identities", FAIL if bad else PASS, bad))
    return checks


def zeta_d_closed_form(ctx):
    """splitparam.zeta_d_closed_form with its traces read from matrix products."""
    sys, e_fam, estar_fam = ctx.sys, ctx.e_fam, ctx.estar_fam
    field, d = sys.field, sys.d
    fam_t = TauEtaFamily(field, sys.thetas)
    fam_s = TauEtaFamily(field, sys.thetas_star)
    lhs = ctx.zetas[d]
    first = (
        fam_s.eta_at(d, sys.thetas_star[0])
        * fam_t.tau_at(d, sys.thetas[d])
        * trace(e_fam[d] * estar_fam[0])
    )
    second = (
        fam_t.eta_at(d, sys.thetas[0])
        * fam_s.tau_at(d, sys.thetas_star[d])
        * trace(estar_fam[d] * e_fam[0])
    )
    ok = lhs == first and lhs == second
    witness = None if ok else {"zeta_d": lhs, "primary_form": first, "dual_form": second}
    return Check("split/zeta_last_closed_form", PASS if ok else FAIL, witness)


def cross_traces(ctx):
    """The cross-trace table of splitparam.problems_report, read from matrix products."""
    e_fam, estar_fam, d = ctx.e_fam, ctx.estar_fam, ctx.sys.d
    return {
        "tr_Ei_Estar0": [trace(e_fam[i] * estar_fam[0]) for i in range(d + 1)],
        "tr_Ei_Estard": [trace(e_fam[i] * estar_fam[d]) for i in range(d + 1)],
        "tr_Estari_E0": [trace(estar_fam[i] * e_fam[0]) for i in range(d + 1)],
        "tr_Estari_Ed": [trace(estar_fam[i] * e_fam[d]) for i in range(d + 1)],
    }


def eigenline_subsets(sys):
    """Irreducibility of a pair whose A has only eigenlines: ("reducible", W)
    for the first proper sum W of eigenlines, by size and then index, that A*
    keeps, else ("irreducible", None).  An invariant subspace is A-invariant,
    hence the sum of its meets with the eigenlines, so the 2^(d+1) - 2 proper
    nonempty sums are all the candidates."""
    field, n = sys.field, sys.n
    ident = Matrix.identity(field, n)
    spaces = [kernel(sys.A - ident.scale(t)) for t in sys.thetas]
    assert [s.dim for s in spaces] == [1] * n
    lines = [s.basis[0] for s in spaces]
    for size in range(1, n):
        for idx in combinations(range(n), size):
            w = Subspace.from_vectors(field, n, [lines[k] for k in idx])
            if all(w.contains(sys.Astar.apply(v)) for v in w.basis):
                return "reducible", w
    return "irreducible", None
