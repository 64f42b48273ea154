"""Invariant bilinear forms, the associated anti-automorphism, the
transpose-realized dual system, and isomorphism testing.

The form solver is the intertwiner computation in disguise: a Gram matrix G
with G A = A^t G and G A* = A*^t G is exactly an intertwiner from the pair
to its transposed pair.  Existence, uniqueness (solution dimension 1),
symmetry, and nondegeneracy are checked per instance, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import matrices as mx
from .matrices import Matrix
from .rng import SplitMix64
from .scalars import FieldError
from .tdcore import (
    FAIL,
    PASS,
    Check,
    InvariantViolation,
    SystemContext,
    TdSystem,
    ValidateOptions,
)


@dataclass
class BilinearForm:
    gram: Matrix
    solution_dim: int


@dataclass
class AntiMap:
    conjugator: Matrix  # realizes X -> R^{-1} X^t R
    conjugator_inv: Matrix

    def apply(self, x: Matrix) -> Matrix:
        return self.conjugator_inv * x.transpose() * self.conjugator


def invariant_form(sys: TdSystem):
    """Solve for the compatible Gram matrices and vet the solution space.

    Returns (form_or_none, checks).  On sharp validated systems the space
    must be a line; anything else is reported as a counterexample candidate
    rather than silently accepted.
    """
    checks = []
    basis = mx.intertwiner_matrices(
        sys.A, sys.Astar, sys.A.transpose(), sys.Astar.transpose()
    )
    dim = len(basis)
    checks.append(
        Check("form/solution_dim", PASS if dim == 1 else FAIL, {"solution_dim": dim})
    )
    if dim != 1:
        return None, checks
    g = _normalize_first_nonzero(basis[0])
    sym = g == g.transpose()
    checks.append(Check("form/symmetric", PASS if sym else FAIL, None if sym else {"gram": g}))
    dg = mx.det(g)
    nondeg = dg != sys.field.zero
    checks.append(
        Check(
            "form/nondegenerate",
            PASS if nondeg else FAIL,
            {"det": sys.field.format(dg)} if nondeg else {"det": "0"},
        )
    )
    if not sym or not nondeg:
        return None, checks
    return BilinearForm(gram=g, solution_dim=dim), checks


def _normalize_first_nonzero(m: Matrix) -> Matrix:
    zero = m.field.zero
    for row in m.data:
        for a in row:
            if a != zero:
                return m.scale(m.field.one / a)
    raise InvariantViolation("zero matrix in an intertwiner basis")


def form_checks(form: BilinearForm, ctx: SystemContext):
    """Orthogonality of distinct eigenspaces and nondegenerate restrictions."""
    g = form.gram
    field = ctx.sys.field
    families = (("primary", ctx.e_fam), ("dual", ctx.estar_fam))
    checks = []
    bad = None
    for label, fam in families:
        d1 = len(fam)
        for i in range(d1):
            for j in range(d1):
                if i == j:
                    continue
                for u in fam.eigenspaces[i].basis:
                    gu = g.apply(u)
                    for v in fam.eigenspaces[j].basis:
                        val = mx._dot(gu, v)
                        if val != field.zero:
                            bad = {"family": label, "i": i, "j": j}
                            break
                    if bad:
                        break
                if bad:
                    break
            if bad:
                break
        if bad:
            break
    checks.append(Check("form/eigenspaces_orthogonal", FAIL if bad else PASS, bad))

    bad = None
    for label, fam in families:
        for i, space in enumerate(fam.eigenspaces):
            rows = [
                [mx._dot(g.apply(u), v) for v in space.basis] for u in space.basis
            ]
            if mx.det(Matrix(field, rows)) == field.zero:
                bad = {"family": label, "i": i}
                break
        if bad:
            break
    checks.append(Check("form/restrictions_nondegenerate", FAIL if bad else PASS, bad))
    return checks


def anti_automorphism(form: BilinearForm, ctx: SystemContext, sample_seed: int = 0x5EED):
    """The transpose-conjugation map attached to the form, plus its checks.

    The deterministic sample for the involution/trace/anti-multiplicativity
    spot checks contains both operators, every idempotent, and seeded
    products of them.
    """
    sys, g = ctx.sys, form.gram
    dagger = AntiMap(conjugator=g, conjugator_inv=mx.inverse(g))
    checks = []
    fixed = dagger.apply(sys.A) == sys.A and dagger.apply(sys.Astar) == sys.Astar
    checks.append(Check("form/anti_fixes_generators", PASS if fixed else FAIL))

    sample = [sys.A, sys.Astar, *ctx.e_fam.mats, *ctx.estar_fam.mats]
    rng = SplitMix64(sample_seed)
    pool = list(sample)
    for _ in range(4):
        x = pool[rng.randrange(len(pool))]
        y = pool[rng.randrange(len(pool))]
        sample.append(x * y)
    bad = None
    for k, x in enumerate(sample):
        xd = dagger.apply(x)
        if dagger.apply(xd) != x:
            bad = {"property": "involution", "sample_index": k}
            break
        if xd.trace() != x.trace():
            bad = {"property": "trace", "sample_index": k}
            break
    checks.append(Check("form/anti_involutive_and_trace", FAIL if bad else PASS, bad))

    bad = None
    for k in range(4):
        x = sample[rng.randrange(len(sample))]
        y = sample[rng.randrange(len(sample))]
        if dagger.apply(x * y) != dagger.apply(y) * dagger.apply(x):
            bad = {"property": "anti-multiplicative", "pair_index": k}
            break
    checks.append(Check("form/anti_multiplicative", FAIL if bad else PASS, bad))
    return dagger, checks


TRANSPOSED = ValidateOptions(
    irreducibility="assume",
    assume_note="inherited: transposition preserves invariant-subspace structure",
)


def dual_system(ctx: SystemContext):
    """The transpose-realized dual of a validated system, revalidated and compared.

    In coordinates the canonical pairing's anti-isomorphism is plain
    transposition, so the dual is (A^t, A*^t) with the same eigenvalue
    sequences, and its idempotents are the transposes of the base
    system's.  Returns (dual context, checks): validation, shape and
    sharpness agreement with the base system, and (both being sharp)
    equality of split sequences.
    """
    sys, base = ctx.sys, ctx.report
    dual = SystemContext(
        TdSystem(
            sys.field,
            sys.n,
            sys.A.transpose(),
            sys.Astar.transpose(),
            sys.thetas,
            sys.thetas_star,
            sys.q_hint,
        ),
        TRANSPOSED,
        (ctx.e_fam.transposed(), ctx.estar_fam.transposed()),
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
                else {
                    "zeta": [sys.field.format(z) for z in ctx.zetas],
                    "dual_zeta": [sys.field.format(z) for z in dual.zetas],
                },
            )
        )
    return dual, checks


def isomorphism_test(ctx1: SystemContext, ctx2: SystemContext):
    """Decide isomorphism of two validated systems.

    Equal eigenvalue sequences are necessary; after that the intertwiner
    space decides: a nonzero space yields a witness map, invertible by the
    Schur argument and verified against both operators and every
    idempotent (taken from the two contexts).  Returns (verdict, payload)
    with verdict "isomorphic" or "not_isomorphic".
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
    basis = mx.intertwiner_matrices(sys1.A, sys1.Astar, sys2.A, sys2.Astar)
    if not basis:
        return "not_isomorphic", {"reason": "no nonzero intertwiner"}
    gamma = basis[0]
    if mx.det(gamma) == sys1.field.zero:
        raise InvariantViolation(
            "nonzero intertwiner is singular; an input system is not irreducible",
            {"intertwiner_dim": len(basis)},
        )
    if gamma * sys1.A != sys2.A * gamma or gamma * sys1.Astar != sys2.Astar * gamma:
        raise InvariantViolation("intertwiner fails its defining relations")
    for f1, f2 in zip((*ctx1.e_fam, *ctx1.estar_fam), (*ctx2.e_fam, *ctx2.estar_fam)):
        if gamma * f1 != f2 * gamma:
            raise InvariantViolation("intertwiner fails an idempotent relation")
    return "isomorphic", {"gamma": gamma, "intertwiner_dim": len(basis)}


def conjecture_crosscheck(verdict: str, array1, array2):
    """Agreement between the isomorphism verdict and array equality.

    A disagreement in either direction is the empirical counterexample the
    whole harness exists to hunt for; callers serialize it.
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
