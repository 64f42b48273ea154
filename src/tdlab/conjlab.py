"""Subalgebras generated by the operators, the corner algebra cut out by the
first dual idempotent, and the empirical conjecture checks that live there.

Each algebra or span is a list of matrices, its rref-canonical vectorized
basis (see _span); the builders take the system's context.

Everything reports evidence: complete verdicts where a finite decision
procedure exists (small prime fields, generator minimal polynomials of
degree at most 2 over the rationals), honest "inconclusive" otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, product
from math import lcm

from . import matrices as mx
from .matrices import Matrix, MatrixError, Subspace
from .polys import Poly, poly_gcd
from .scalars import PrimeField, RationalField, rational_sqrt
from .splitparam import three_term_ratios, weighted_zeta_sum
from .tdcore import (
    EXHAUSTIVE_LIMIT, FAIL, INCONCLUSIVE, PASS, Check, InvariantViolation, SystemContext, find_duplicate,
    verdict,
)


def _span(mats) -> list:
    """The rref-canonical basis of the span of same-shape matrices, as
    matrices of that shape ([] for no matrices or a zero span)."""
    if not mats:
        return []
    field, rows, cols = mats[0].field, mats[0].rows, mats[0].cols
    space = Subspace.from_vectors(field, rows * cols, [m.vec() for m in mats])
    return [Matrix.from_vec(field, row, rows, cols) for row in space.basis]


def _proper_generated_algebra(ctx: SystemContext):
    """The basis of T, the algebra A and A* generate, or None when T is Mat_n:
    by the density theorem on a pair validation proved absolutely irreducible
    (see tdcore.check_irreducible), with no closure solved, and otherwise
    when the solved closure has n^2 elements."""
    if ctx.report.absolutely_irreducible or len(ctx.closure) == ctx.sys.n ** 2:
        return None
    return ctx.closure


def generate_subalgebras(ctx: SystemContext) -> dict:
    """The bases of the single-operator polynomial algebras D and D*, and of
    the algebra T generated by A and A*: None when T is all of Mat_n.

    Each single-operator algebra is spanned by the powers up to the
    diameter (the minimal polynomial has degree d+1 on a validated
    system, which is asserted).  A proper T is asserted closed under
    multiplication.
    """
    field, n, d = ctx.sys.field, ctx.sys.n, ctx.sys.d
    out = {}
    for label, m in (("D", ctx.sys.A), ("Dstar", ctx.sys.Astar)):
        powers = [Matrix.identity(field, n)]
        for _ in range(d):
            powers.append(powers[-1] * m)
        out[label] = basis = _span(powers)
        if len(basis) != d + 1:
            raise InvariantViolation(f"powers of {label} are dependent below degree d+1", {"dim": len(basis)})
    out["T"] = _proper_generated_algebra(ctx)
    if out["T"] is not None:
        try:
            mx.assert_multiplication_closed(out["T"])
        except MatrixError as err:
            raise InvariantViolation(str(err)) from err
    return out


def _times(basis, mats) -> list:
    """The span of the products x*y, x in basis and y in mats."""
    return _span([x * y for x in basis for y in mats])


def corner_algebra(ctx: SystemContext, cut: Matrix) -> list:
    """A basis of the two-sided cut of the generated algebra by an idempotent.

    When the generated algebra is all of Mat_n, the cut E Mat_n E is
    spanned by the outer products u v^T of a basis u of E's column space
    and a basis v of its row space, with no matrix products.
    """
    t_basis = _proper_generated_algebra(ctx)
    if t_basis is None:
        cols, rows = mx.image(cut).basis, mx.image(cut.transpose()).basis
        return _span([Matrix(cut.field, [[a * b for b in v] for a in u]) for u in cols for v in rows])
    return _span([cut * x * cut for x in t_basis])


def corner_algebra_checks(ctx: SystemContext, algs: dict):
    """The corner algebra cut out by E*_0, and the four corner-algebra
    conjecture clauses, each independently; `algs` is generate_subalgebras'.

    (commutes) the cut of the single-operator algebra is commutative;
    (chain) the alternating-word subspace equalities, until they repeat;
    (generated) the cut of the single-operator algebra generates the whole
    corner; (commutative) the corner itself is commutative.
    """
    estar0, e0 = ctx.estar_fam[0], ctx.e_fam[0]
    checks = []
    corner = corner_algebra(ctx, estar0)

    cut_d = _span([estar0 * x * estar0 for x in algs["D"]])
    bad = _first_noncommuting(cut_d)
    checks.append(Check("conj/corner_cut_commutes", FAIL if bad else PASS, bad))

    checks.append(_chain_check(algs["D"], algs["Dstar"], estar0, e0))

    # both bases are rref-canonical, so equal spans have equal bases
    generated = mx.algebra_closure(cut_d, unit=estar0)
    ok = generated == corner
    checks.append(
        Check(
            "conj/corner_generated_by_cut",
            PASS if ok else FAIL,
            None if ok else {"generated_dim": len(generated), "corner_dim": len(corner)},
        )
    )

    bad = _first_noncommuting(corner)
    checks.append(Check("conj/corner_commutative", FAIL if bad else PASS, bad))
    return corner, checks


def _first_noncommuting(mats):
    for i, x in enumerate(mats):
        for j in range(i + 1, len(mats)):
            y = mats[j]
            if x * y != y * x:
                return {"pair": [i, j]}
    return None


def _chain_check(d_mats, dstar_mats, estar0, e0) -> Check:
    """conj/chain_equalities up to the line from which the chain repeats: a
    fail names the first line whose sides differ, a pass the last one compared.

    The left side of line L is estar0 followed by L+1 alternating algebra
    factors starting with the primary one, capped by e0 when the word ends
    in the dual algebra (odd lines) and by estar0 otherwise.  The right side
    is the same word with every dual-algebra factor replaced by estar0.

    Every matrix on either side is estar0*W, with columns in estar0's column
    space, so it is fixed by its rows at that space's pivots, and right
    multiplication acts on those rows alone.  The spans are kept as spans of
    those rho_0 x n row blocks: they have the dimensions and equalities of
    the n x n spans, and the stop rule sees the same repeats.  A zero estar0
    spans nothing on both sides.

    Both uncapped sides are spans extended by one factor per line.  The
    factors alternate, so a line's prefixes are a function of those two
    lines before: once both prefixes equal theirs from two lines back,
    every later line repeats one of the last two, and the scan stops.  As D
    and D* contain I and estar0 is idempotent, both prefixes only grow, so
    until then the sum of their dimensions, at most 2 rho_0 n, grows every
    two lines: the rule fires by line 4 rho_0 n + 2, or an invariant broke.
    A left prefix of all rho_0 n blocks is fixed by D and D*, and is kept.
    """
    rows = [estar0.data[i] for i in mx.image(estar0).pivots]
    left = right = [Matrix(estar0.field, rows)] if rows else []
    full = len(rows) * estar0.cols
    back = [None, None]  # the prefixes of the two previous lines
    for line in range(4 * full + 3):
        even = line % 2 == 0
        if len(left) < full:
            left = _times(left, d_mats if even else dstar_mats)
        if even:
            right = _times(_times(right, d_mats), [estar0])
        if line:
            if even:  # the right side already ends with estar0
                lhs, rhs = _times(left, [estar0]), right
            else:
                lhs, rhs = _times(left, [e0]), _times(right, [e0])
            if lhs != rhs:
                witness = {"line": line, "lhs_dim": len(lhs), "rhs_dim": len(rhs)}
                return Check("conj/chain_equalities", FAIL, witness)
        if back[0] == (left, right):
            return Check("conj/chain_equalities", PASS, {"lines": line})
        back = [back[1], (left, right)]
    raise InvariantViolation(f"the chain prefixes do not repeat by line {line}")


def field_check(field, corner: list, estar0: Matrix, estar0_rank: int):
    """Is the corner algebra a field with the cut idempotent as identity?

    Over GF(p) with at most EXHAUSTIVE_LIMIT elements the verdict is
    complete (every nonzero element's multiplication operator is tested
    for full rank).  Over the rationals the generator's minimal polynomial
    decides degrees <= 2; beyond that square-freeness and a rational-root
    search can only produce counterexamples, so the fallback is
    inconclusive.

    Returns (verdict, checks) with verdict in {field, not_field,
    inconclusive}.
    """
    checks = []
    dim = len(corner)
    ununital = ({"basis_index": k} for k, x in enumerate(corner) if estar0 * x != x or x * estar0 != x)
    checks.append(verdict("conj/corner_identity_element", ununital))
    if checks[-1].status == FAIL:
        return "not_field", checks

    dim_ok = dim == estar0_rank
    checks.append(
        Check(
            "conj/corner_dim_matches_rank",
            PASS if dim_ok else FAIL,
            {"corner_dim": dim, "rank": estar0_rank},
        )
    )

    if _first_noncommuting(corner):
        checks.append(Check("conj/corner_field", FAIL, {"reason": "not commutative"}))
        return "not_field", checks

    if dim == 1:
        checks.append(Check("conj/corner_field", PASS, {"reason": "one-dimensional corner"}))
        return "field", checks

    if isinstance(field, PrimeField) and field.p**dim <= EXHAUSTIVE_LIMIT:
        witness = _exhaustive_zero_divisor(field, corner)
        if witness is not None:
            checks.append(Check("conj/corner_field", FAIL, {"zero_divisor_coeffs": witness}))
            return "not_field", checks
        checks.append(
            Check("conj/corner_field", PASS, {"reason": f"all {field.p**dim - 1} nonzero elements invertible"})
        )
        return "field", checks

    if isinstance(field, RationalField):
        return _rational_field_check(field, corner, estar0, checks)

    checks.append(Check("conj/corner_field", INCONCLUSIVE, {"reason": "no complete procedure at this size"}))
    return "inconclusive", checks


def _coords_in_span(field, mats, vec):
    basis_matrix = Matrix(field, [m.vec() for m in mats]).transpose()
    coords = mx.solve(basis_matrix, vec)
    if coords is None:
        raise InvariantViolation("corner product escaped the corner span")
    return coords


def _structure_constants(field, mats):
    """c[i][j] = coordinates of mats[i]*mats[j] in the corner basis."""
    return [
        [_coords_in_span(field, mats, (x * y).vec()) for y in mats] for x in mats
    ]


def _exhaustive_zero_divisor(field: PrimeField, mats):
    """Coefficient vector of a nonzero non-invertible element, or None.

    Works on precomputed structure constants so the scan touches only
    dim-sized residue arithmetic.
    """
    dim = len(mats)
    sc = _structure_constants(field, mats)
    for counter in islice(product(range(field.p), repeat=dim), 1, None):  # skip x = 0
        # left-multiplication operator of x = sum counter[i]*mats[i]
        op_rows = [[field.zero] * dim for _ in range(dim)]
        for i, ci in enumerate(counter):
            if ci == 0:
                continue
            c = field.from_int(ci)
            for j in range(dim):
                coords = sc[i][j]
                for k in range(dim):
                    op_rows[k][j] = op_rows[k][j] + c * coords[k]
        if mx.rank(Matrix(field, op_rows)) < dim:
            return list(counter)
    return None


def _rational_field_check(field, corner: list, estar0, checks):
    # conventionally estar0 * A * estar0: the first non-identity basis element
    gen = next((m for m in corner if m != estar0), estar0)
    minpoly = _minimal_polynomial(field, estar0, gen)
    deg = minpoly.degree
    if deg == 2 and len(corner) == 2:
        # decidable: irreducible over Q iff no rational root
        c0, c1 = minpoly.coeffs[0], minpoly.coeffs[1]
        disc = c1 * c1 - 4 * c0
        if rational_sqrt(disc) is None:
            checks.append(Check("conj/corner_field", PASS, {"reason": "irreducible quadratic minimal polynomial"}))
            return "field", checks
        checks.append(Check("conj/corner_field", FAIL, {"reason": "quadratic minimal polynomial splits"}))
        return "not_field", checks
    if deg != len(corner):
        checks.append(
            Check(
                "conj/corner_field",
                INCONCLUSIVE,
                {"reason": "generator does not generate the corner", "minpoly_degree": deg},
            )
        )
        return "inconclusive", checks
    deriv_gcd = poly_gcd(minpoly, minpoly.derivative())
    if deriv_gcd.degree > 0:
        checks.append(Check("conj/corner_field", FAIL, {"reason": "minimal polynomial is not square-free"}))
        return "not_field", checks
    root = _rational_root(field, minpoly)
    if root is not None and deg > 1:
        checks.append(
            Check("conj/corner_field", FAIL, {"reason": "minimal polynomial has a rational root", "root": root})
        )
        return "not_field", checks
    checks.append(
        Check(
            "conj/corner_field",
            INCONCLUSIVE,
            {"reason": "square-free, no rational root; irreducibility undecided at this degree"},
        )
    )
    return "inconclusive", checks


def _minimal_polynomial(field, estar0, gen) -> Poly:
    """Minimal polynomial of a corner element, with estar0 as the unit."""
    n = gen.rows
    span = mx.SpanBuilder(field, n * n)
    powers = [estar0]
    span.add(estar0.vec())
    current = estar0
    while True:
        current = current * gen
        if not span.add(current.vec()):
            break
        powers.append(current)
    # current is a combination of the lower powers: solve for coefficients
    basis_matrix = Matrix(field, [m.vec() for m in powers]).transpose()
    coords = mx.solve(basis_matrix, current.vec())
    if coords is None:
        raise InvariantViolation("minimal polynomial solve failed")
    coeffs = [-c for c in coords] + [field.one]
    return Poly(field, coeffs)


def _rational_root(field, poly: Poly):
    """Naive rational-root search: candidates p/q from the extreme coeffs."""
    coeffs = [Fraction(c) for c in poly.coeffs]
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    if ints[0] == 0:  # a zero constant term: poly(0) = 0
        return field.zero
    a0, an = abs(ints[0]), abs(ints[-1])
    for p in _divisors(a0):
        for q in _divisors(an):
            for sign in (1, -1):
                cand = Fraction(sign * p, q)
                if poly(cand) == field.zero:
                    return cand
    return None


def _divisors(n: int):
    """The divisors of n > 0, ascending."""
    out = []
    f = 1
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            if f != n // f:
                out.append(n // f)
        f += 1
    return sorted(out)


def pa_conditions(field, thetas, thetas_star, zetas):
    """The three parameter-array clauses, individually reported.

    (distinct) both eigenvalue lists are duplicate-free; (normalization)
    the split sequence starts at 1, ends nonzero, and has nonvanishing
    weighted sum; (ratios) the three-term ratios of both lists agree and
    are constant (vacuous below diameter 3).
    """
    checks = []
    d = len(thetas) - 1
    found = ((label, find_duplicate(seq)) for label, seq in (("theta", thetas), ("theta_star", thetas_star)))
    repeated = ({"sequence": label, "indices": f["indices"]} for label, f in found if f)
    checks.append(verdict("conj/pa_distinct", repeated))
    dup = checks[-1].witness

    problems = []
    if zetas[0] != field.one:
        problems.append({"clause": "zeta_0", "value": zetas[0]})
    if zetas[d] == field.zero:
        problems.append({"clause": "zeta_d", "value": zetas[d]})
    if not dup and weighted_zeta_sum(field, thetas, thetas_star, zetas) == field.zero:
        problems.append({"clause": "weighted_sum", "value": field.zero})
    checks.append(Check("conj/pa_normalization", FAIL if problems else PASS, problems or None))

    # empty below d = 3, and not defined on a repeated eigenvalue
    ratios = [] if dup else three_term_ratios(thetas) + three_term_ratios(thetas_star)
    unequal = ({"first": ratios[0], "other": r} for r in ratios[1:] if r != ratios[0])
    checks.append(verdict("conj/pa_ratios", unequal))
    return checks
