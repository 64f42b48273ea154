"""Invariant bilinear forms, the associated anti-automorphism, the
transpose-realized dual system, and isomorphism testing.

Both the form and the isomorphism test are intertwiner computations: a Gram
matrix G with G A = A^t G and G A* = A*^t G is exactly an intertwiner from
the pair to its transposed pair.  On a sharp system one spin decides either:
an intertwiner maps the line E*_0 V into the target's E*_0 line, so it is
fixed up to one scalar by the image of a vector v0 spanning that line, and
v0 spins to V.  Existence, uniqueness (solution dimension 1), symmetry, and
nondegeneracy are checked per instance, never assumed.  The anti-automorphism
X -> G^-1 X^t G is never applied: each of its three checks reads the identity
on G that decides its property for every X (G A = A^t G and G A* = A*^t G;
G^t = +-G; G G^-1 = I).
"""

from __future__ import annotations

from itertools import accumulate

from . import matrices as mx
from .matrices import Matrix
from .scalars import FieldError
from .tdcore import (
    FAIL,
    PASS,
    Check,
    InvariantViolation,
    SystemContext,
    TdSystem,
    _spin,
    verdict,
)


def spin_intertwiner(ctx: SystemContext, b: Matrix, bstar: Matrix, w0):
    """The intertwiners g with g A = b g and g A* = bstar g, by one spin.

    `ctx` must be sharp (else ValueError), with v0 spanning E*_0 V, and w0
    must span the target's eigenspace of bstar for theta*_0, a line.  Every
    intertwiner maps v0 to a multiple of w0, so it is fixed by that multiple
    once v0 spins to V: the spin's words replayed on w0 give the one
    candidate g = W V^-1, which is kept when it satisfies both relations
    exactly.

    Returns (basis, spin_dim): basis is [] or [g], normalized to first
    nonzero entry 1, and None when v0 does not spin to V (the pair is
    reducible), where the spin cannot decide.
    """
    sys = ctx.sys
    v0 = ctx.estar_fam.line_factors(0)[0]
    span, kept, images = _spin((sys.A, sys.Astar), v0, replay=((b, bstar), w0))
    if span.dim < sys.n:
        return None, span.dim
    field = sys.field
    gamma = Matrix(field, images).transpose() * mx.inverse(Matrix(field, kept).transpose())
    if gamma * sys.A != b * gamma or gamma * sys.Astar != bstar * gamma:
        return [], span.dim
    return [_normalize_first_nonzero(gamma)], span.dim


def invariant_form(ctx: SystemContext):
    """Solve for the compatible Gram matrices and vet the solution space.

    Returns (gram_or_none, checks).  On sharp validated systems the space
    must be a line; anything else is reported as a counterexample candidate
    rather than silently accepted.  When E*_0 V does not spin to V the
    solution space is undecided and form/solution_dim fails with the spin
    dimension.
    """
    sys = ctx.sys
    checks = []
    u0 = ctx.estar_fam.line_factors(0)[1]
    basis, spin_dim = spin_intertwiner(ctx, sys.A.transpose(), sys.Astar.transpose(), u0)
    if basis is None:
        checks.append(Check("form/solution_dim", FAIL, {"spin_dim": spin_dim}))
        return None, checks
    dim = len(basis)
    checks.append(
        Check("form/solution_dim", PASS if dim == 1 else FAIL, {"solution_dim": dim})
    )
    if dim != 1:
        return None, checks
    g = basis[0]
    sym = g == g.transpose()
    checks.append(Check("form/symmetric", PASS if sym else FAIL, None if sym else {"gram": g}))
    dg = mx.det(g)
    nondeg = dg != sys.field.zero
    checks.append(
        Check(
            "form/nondegenerate",
            PASS if nondeg else FAIL,
            {"det": dg},
        )
    )
    if not sym or not nondeg:
        return None, checks
    return g, checks


def _normalize_first_nonzero(m: Matrix) -> Matrix:
    zero = m.field.zero
    for row in m.data:
        for a in row:
            if a != zero:
                return m.scale(m.field.one / a)
    raise InvariantViolation("zero matrix in an intertwiner basis")


def form_checks(g: Matrix, ctx: SystemContext):
    """Orthogonality of distinct eigenspaces and nondegenerate restrictions.

    With B_i stacking the basis rows of eigenspace i, the form pairs
    eigenspaces i and j by the block B_j G B_i^t: it must vanish for i != j
    and be nonsingular for i = j.  Per family, every block is read off one
    P = B G B^t, B stacking all the B_i.  Each check reports its first
    failing family and index, scanning family, then i, then j.

    Both follow from G A = A^t G (and G A* = A*^t G), distinct theta_i and
    det G != 0: for u in E_iV and v in E_jV, theta_j u^t G v = u^t G A v =
    theta_i u^t G v, and a vector of E_iV orthogonal to E_iV is then
    orthogonal to all of V, so it is 0.  Only eigenspace bases that are
    wrong can fail them.
    """
    pairings = []
    for label, fam in (("primary", ctx.e_fam), ("dual", ctx.estar_fam)):
        b = Matrix(g.field, [v for space in fam.eigenspaces for v in space.basis])
        cuts = tuple(accumulate(fam.ranks, initial=0))
        spans = [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        pairings.append((label, (b * g * b.transpose()).data, spans))
    off_diagonal = (
        {"family": label, "i": i, "j": j}
        for label, p, spans in pairings
        for i, cols in enumerate(spans)
        for j, rows in enumerate(spans)
        if i != j and any(any(row[cols]) for row in p[rows])
    )
    singular_diagonal = (
        {"family": label, "i": i}
        for label, p, spans in pairings
        for i, s in enumerate(spans)
        if mx.det(Matrix(g.field, [row[s] for row in p[s]])) == g.field.zero
    )
    return [
        verdict("form/eigenspaces_orthogonal", off_diagonal),
        verdict("form/restrictions_nondegenerate", singular_diagonal),
    ]


def anti_automorphism(g: Matrix, ctx: SystemContext):
    """The checks on sigma(X) = G^-1 X^t G, the transpose-conjugation of the
    form.  Each reads the identity on G that is equivalent to it for every X
    in Mat_n, G being invertible (form/nondegenerate):

    * sigma(A) = A iff G A = A^t G (multiply by G on the left), and so for A*;
    * sigma^2(X) = (G^-1 G^t) X (G^-1 G^t)^-1, so sigma^2 = id iff G^-1 G^t
      is a scalar c, that is G^t = c G, where transposing gives c^2 = 1; and
      tr sigma(X) = tr(X^t G G^-1) = tr X once G G^-1 = I;
    * sigma(X Y) = G^-1 Y^t (G G^-1) X^t G = sigma(Y) sigma(X) for every
      invertible G, so form/anti_multiplicative reads G G^-1 = I.

    Five products whatever n: four for the generators, and G G^-1 once for
    the last two checks.  A failure names the identity that failed.
    """
    sys = ctx.sys
    moved = (
        {"identity": f"G {name} = {name}^t G"}
        for name, m in (("A", sys.A), ("A*", sys.Astar))
        if g * m != m.transpose() * g
    )
    gt = g.transpose()
    signed = [] if gt == g or gt == -g else [{"identity": "G^t = G or G^t = -G"}]
    ident = Matrix.identity(g.field, g.rows)
    inverted = [] if g * mx.inverse(g) == ident else [{"identity": "G G^-1 = I"}]
    return [
        verdict("form/anti_fixes_generators", moved),
        verdict("form/anti_involutive_and_trace", iter(signed + inverted)),
        verdict("form/anti_multiplicative", iter(inverted)),
    ]


def dual_system(ctx: SystemContext):
    """The transpose-realized dual of a validated system, compared with it.

    In coordinates the canonical pairing's anti-isomorphism is plain
    transposition, so the dual is (A^t, A*^t) with the same eigenvalue
    sequences; its context is seeded with the transposed families and the
    base's report (SystemContext.seeded), and builds its own split
    sequence.  Returns (dual context, checks): validation, shape and
    sharpness agreement with the base system, and (both being sharp)
    equality of split sequences.
    """
    sys, base = ctx.sys, ctx.report
    dual = ctx.seeded(
        TdSystem(
            sys.field,
            sys.n,
            sys.A.transpose(),
            sys.Astar.transpose(),
            sys.thetas,
            sys.thetas_star,
            sys.q_hint,
        ),
        ctx.e_fam.transposed(),
        ctx.estar_fam.transposed(),
    )
    report = dual.report
    ok = report.passed()
    checks = [Check("dual/validates", PASS if ok else FAIL)]
    if not ok:
        return dual, checks
    same = report.shape == base.shape and report.sharp == base.sharp
    checks.append(
        Check(
            "dual/shape_and_sharpness_equal",
            PASS if same else FAIL,
            None if same else {"dual_shape": list(report.shape or ()), "dual_sharp": report.sharp},
        )
    )
    if report.sharp and base.sharp:
        agree = dual.zetas == ctx.zetas
        checks.append(
            Check(
                "dual/parameter_array_equal",
                PASS if agree else FAIL,
                None
                if agree
                else {"zeta": ctx.zetas, "dual_zeta": dual.zetas},
            )
        )
    return dual, checks


def isomorphism_test(ctx1: SystemContext, ctx2: SystemContext):
    """Decide isomorphism of a validated sharp system with a second system.

    Equal eigenvalue sequences and equal dual eigenspace dimensions are
    necessary; after that one spin (spin_intertwiner) decides: a nonzero
    intertwiner is a witness map.  Asserted: it is invertible, the Schur
    premise on a target that need not be validated.  The rest follows:
    spin_intertwiner kept gamma only when gamma A = A' gamma and
    gamma A* = A*' gamma held exactly, and scaling keeps both; each E_i is
    the Lagrange polynomial L_i(A) in the shared thetas (and so for E'_i,
    E*_i, E*'_i), so gamma E_i = L_i(A') gamma = E'_i gamma.  Returns
    (verdict, payload) with verdict "isomorphic" or "not_isomorphic".
    """
    sys1, sys2 = ctx1.sys, ctx2.sys
    if sys1.field != sys2.field:
        raise FieldError("isomorphism test across different fields")
    if sys1.n != sys2.n:
        raise ValueError("isomorphism test across different dimensions")
    if sys1.d != sys2.d:
        return "not_isomorphic", {"reason": "different diameters"}
    if tuple(sys1.thetas) != tuple(sys2.thetas) or tuple(sys1.thetas_star) != tuple(
        sys2.thetas_star
    ):
        return "not_isomorphic", {"reason": "eigenvalue sequences differ"}
    if ctx1.estar_fam.ranks != ctx2.estar_fam.ranks:
        return "not_isomorphic", {"reason": "eigenspace dimensions differ"}
    w0 = ctx2.estar_fam.line_factors(0)[0]
    basis, spin_dim = spin_intertwiner(ctx1, sys2.A, sys2.Astar, w0)
    if basis is None:
        raise InvariantViolation(
            "E*_0 V does not spin to the whole space; an input system is not irreducible",
            {"spin_dim": spin_dim},
        )
    if not basis:
        return "not_isomorphic", {"reason": "no nonzero intertwiner"}
    gamma = basis[0]
    if mx.det(gamma) == sys1.field.zero:
        raise InvariantViolation(
            "nonzero intertwiner is singular; an input system is not irreducible",
            {"intertwiner_dim": len(basis)},
        )
    return "isomorphic", {"gamma": gamma, "intertwiner_dim": len(basis)}
