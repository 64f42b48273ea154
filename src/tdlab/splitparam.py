"""Split decomposition, split sequence, parameter array, and the trace and
vanishing identities that pin the split sequence down four different ways.

Builders (split_decomposition, split_sequence, parameter_array,
problems_report) raise InvariantViolation when something that must hold on a
validated system does not; checker functions (vanishing_check,
bijection_check, trace_zeta, zeta_d_closed_form) return Check verdicts so a
harness can aggregate them.  All of these but parameter_array take the
system's SystemContext and read its idempotent families.  Products of
factors (M - theta I) are applied to vectors, never built as matrices, and
the split identities read the rank-one corner idempotents of a sharp system
as scalars (see _Corner).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import matrices as mx
from .matrices import Matrix, Subspace
from .polys import TauEtaFamily, char_poly
from .tdcore import (
    FAIL,
    PASS,
    Check,
    InvariantViolation,
    SystemContext,
    TdSystem,
    projections,
    verdict,
)


@dataclass(frozen=True)
class ParameterArray:
    thetas: tuple
    thetas_star: tuple
    zetas: tuple

    @property
    def d(self) -> int:
        return len(self.thetas) - 1

    def report_fields(self) -> dict:
        """The array as a report shows it."""
        return {"theta": self.thetas, "theta_star": self.thetas_star, "zeta": self.zetas}


def _ensure(cond: bool, message: str, witness=None):
    if not cond:
        raise InvariantViolation(message, witness)


def split_decomposition(ctx: SystemContext) -> tuple:
    """The split summands U_0..U_d, asserting everything about them.

    U_i is the meet of estar_fam's prefix sum lower[i] = E*_0V+...+E*_iV with
    e_fam's suffix sum upper[i] = E_iV+...+E_dV (IdempotentFamily.partial_sums).
    Asserted here: the direct sum, the two partial-sum identities, the
    raising/lowering containments, and dim U_i equal to the shape entry.
    The sums are mx.direct_sums chains.  As V = U_0 ⊕ ... ⊕ U_d has running
    sums lower[i] and tail sums upper[i], lower[i] ∩ upper[i] = U_i: the
    chains check the meets whatever computed them.
    """
    sys, e_fam = ctx.sys, ctx.e_fam
    field, n, d = sys.field, sys.n, sys.d
    lower = ctx.estar_fam.partial_sums[0]
    upper = e_fam.partial_sums[1]
    subspaces = [mx.sum_and_meet(lower[i], upper[i])[1] for i in range(d + 1)]

    running = Subspace.zero(field, n)
    sums = mx.direct_sums(subspaces)
    for i in range(d + 1):
        try:
            running = next(sums)
        except mx.MatrixError:
            overlap = mx.sum_and_meet(running, subspaces[i])[1]
            raise InvariantViolation(f"split summand {i} meets the earlier sum", overlap)
        _ensure(
            running == lower[i],
            f"partial sum of split summands differs from dual eigenspace sum at {i}",
        )
    _ensure(running.is_full(), "split summands do not fill the space")

    for i, tail in zip(range(d, -1, -1), mx.direct_sums(subspaces[::-1])):
        _ensure(
            tail == upper[i],
            f"tail sum of split summands differs from primary eigenspace sum at {i}",
        )

    for i in range(d + 1):
        raised = [sys.A.shifts(v, sys.thetas[i : i + 1])[-1] for v in subspaces[i].basis]
        target_up = subspaces[i + 1] if i + 1 <= d else Subspace.zero(field, n)
        _ensure(
            all(target_up.contains(v) for v in raised),
            f"(A - theta_{i}) does not raise split summand {i}",
        )
        lowered = [sys.Astar.shifts(v, sys.thetas_star[i : i + 1])[-1] for v in subspaces[i].basis]
        target_down = subspaces[i - 1] if i - 1 >= 0 else Subspace.zero(field, n)
        _ensure(
            all(target_down.contains(v) for v in lowered),
            f"(Astar - theta_star_{i}) does not lower split summand {i}",
        )
        _ensure(
            subspaces[i].dim == e_fam.ranks[i],
            f"split summand {i} has dimension {subspaces[i].dim}, expected {e_fam.ranks[i]}",
        )

    return tuple(subspaces)


def split_sequence(ctx: SystemContext):
    """The scalars by which the alternating products act on U_0.

    Defined only for sharp systems (U_0 is a line).  tau_0(A)v..tau_d(A)v of
    the spanning vector v are one Matrix.shifts chain; the A* factors are applied
    to each in turn.  The image must be parallel to v, and that parallelism
    is asserted with a witness on failure.
    """
    u0 = ctx.decomposition[0]
    if u0.dim != 1:
        raise InvariantViolation("split sequence requested for a non-sharp system", u0)
    v = u0.basis[0]
    zetas = []
    sys, field = ctx.sys, ctx.sys.field
    for i, tau_v in enumerate(sys.A.shifts(v, sys.thetas[: sys.d])):
        w = sys.Astar.shifts(tau_v, sys.thetas_star[1 : i + 1])[-1]
        zeta = _parallel_ratio(field, w, v)
        if zeta is None:
            raise InvariantViolation(
                f"alternating product image is not parallel to the split line at {i}",
                {"image": w, "line": v},
            )
        zetas.append(zeta)
    _ensure(zetas[0] == field.one, "zeta_0 is not 1")
    return tuple(zetas)


def _parallel_ratio(field, w, v):
    """w = c*v: return c, or None when w is not parallel to v."""
    zero = field.zero
    c = None
    for a, b in zip(w, v):
        if b == zero:
            if a != zero:
                return None
        else:
            r = a / b
            if c is None:
                c = r
            elif c != r:
                return None
    return zero if c is None else c


def _prefix_products(field, values, x0):
    """prods[i] = (x0 - values[1])...(x0 - values[i]); prods[0] = 1."""
    out = [field.one]
    acc = field.one
    for k in range(1, len(values)):
        acc = acc * (x0 - values[k])
        out.append(acc)
    return out


def _dot(field, u, v):
    return sum((a * b for a, b in zip(u, v)), field.zero)


def _trace_with(m: Matrix, line):
    """tr(m E) for a rank-one E = x y^t with line = (x, y): it is y^t m x."""
    x, y = line
    return _dot(m.field, y, m.apply(x))


class _Corner:
    """The products E_0 tau'_i(B) tau_j(A) E'_0, i, j = 0..d, of a sharp
    system, as scalars.  E_0 = x y^t is the first idempotent of A and
    E'_0 = v u^t that of B (see IdempotentFamily.line_factors); tau_j and
    tau'_i are the prefix products over the eigenvalues of A and of B.  Then

        E_0 tau'_i tau_j E'_0 = x p[i][j] u^t,   p[i][j] = rows[i] . cols[j],
        E_0 tau'_i E_0 = x left[i] y^t,          E'_0 tau_j E'_0 = v right[j] u^t,
        E_0 E'_0 = x link u^t,

    with rows[i] = tau'_i(B)^t y and cols[j] = tau_j(A) v, so no n x n
    product is formed; pre[i] = (theta_0 - theta_1)...(theta_0 - theta_i)
    over the eigenvalues of A.  Each operator comes as (matrix, eigenvalues,
    idempotent family); (A, A*) gives the primary corner, (A*, A) the dual.
    """

    def __init__(self, own, other):
        (a, thetas, fam), (self.b, self.thetas_b, fam_b) = own, other
        field = a.field
        x, y = fam.line_factors(0)
        self.v, u = fam_b.line_factors(0)
        rows = self.b.transpose().shifts(y, self.thetas_b[:-1])
        self.cols = a.shifts(self.v, thetas[:-1])
        self.p = [[_dot(field, r, c) for c in self.cols] for r in rows]
        self.left = [_dot(field, r, x) for r in rows]
        self.right = [_dot(field, u, c) for c in self.cols]
        self.link = _dot(field, y, self.v)
        self.pre = _prefix_products(field, list(thetas), thetas[0])


def corners(ctx: SystemContext):
    """The primary and the dual _Corner of a sharp system (ctx.corners)."""
    sys = ctx.sys
    ops = ((sys.A, sys.thetas, ctx.e_fam), (sys.Astar, sys.thetas_star, ctx.estar_fam))
    return _Corner(*ops), _Corner(*ops[::-1])


def trace_zeta(ctx: SystemContext):
    """The four trace formulas for the split sequence, checked exactly.

    Returns (values, checks): values maps each formula id to its list, and
    the checks assert the pairwise-nonzero traces plus the 4-way agreement
    with the alternating-product sequence.  The traces are read through the
    rank-one corner idempotents (see _Corner): tr(tau_i E*_0) is right[i] of
    the primary corner, and in tr(E_0 tau*_i tau_i E*_0) / tr(E_0 E*_0) =
    (p[i][i] u.x) / (link u.x) the factor u.x cancels.
    """
    sys, e_fam, estar_fam = ctx.sys, ctx.e_fam, ctx.estar_fam
    field, d = sys.field, sys.d
    es0, esd = estar_fam.line_factors(0), estar_fam.line_factors(d)
    corner_traces = {
        "tr_E0Estar0": _trace_with(e_fam[0], es0),
        "tr_E0Estard": _trace_with(e_fam[0], esd),
        "tr_EdEstar0": _trace_with(e_fam[d], es0),
        "tr_EdEstard": _trace_with(e_fam[d], esd),
    }
    bad = {k: v for k, v in corner_traces.items() if v == field.zero}
    checks = [Check("split/trace_nonzero", FAIL if bad else PASS, bad or None)]
    if bad:
        return {}, checks

    primary, dual = ctx.corners
    formulas = {
        "dual_prefix_times_trace": [dual.pre[i] * primary.right[i] for i in range(d + 1)],
        "primary_prefix_times_trace": [primary.pre[i] * dual.right[i] for i in range(d + 1)],
        "corner_trace_ratio": [primary.p[i][i] / primary.link for i in range(d + 1)],
        "corner_trace_ratio_dual": [dual.p[i][i] / dual.link for i in range(d + 1)],
    }
    zt = list(ctx.zetas)
    mismatches = ({"formula": k, "got": v, "expected": zt} for k, v in formulas.items() if v != zt)
    checks.append(verdict("split/trace_formulas", mismatches))
    return {**formulas, "corner_traces": corner_traces}, checks


def vanishing_check(ctx: SystemContext):
    """The corner-product identities around the split sequence.

    Checks, for all index pairs: the off-diagonal corner products vanish;
    the four prefix-product reductions; the diagonal corner products equal
    zeta_i times the corner idempotent product; and the alternating
    products act on the first eigenspace of each family as zeta_i.  Both
    sides of each identity are multiples of one nonzero rank-one matrix
    (see _Corner), so their scalars are compared.
    """
    sys, zetas = ctx.sys, ctx.zetas
    field, d = sys.field, sys.d
    primary, dual = ctx.corners
    # (side, its corner, the other corner, other side)
    sides = (("primary", primary, dual, "dual"), ("dual", dual, primary, "primary"))
    offdiag = (
        {"side": f"{side}-corner", "i": i, "j": j}
        for i, j in product(range(d + 1), repeat=2)
        if i != j
        for side, c, *_ in sides
        if c.p[i][j] != field.zero
    )
    prefix = (
        {"identity": f"{side} via {name}-prefix", "i": i}
        for i in range(d + 1)
        for side, c, other, other_side in sides
        for name, rhs in ((side, c.pre[i] * c.left[i]), (other_side, other.pre[i] * c.right[i]))
        if c.p[i][i] != rhs * c.link
    )
    scaling = (
        {"identity": f"{side} corner scaling", "i": i}
        for i in range(d + 1)
        for side, c, *_ in sides
        if c.p[i][i] != zetas[i] * c.link
    )
    # (B - theta'_1)...(B - theta'_i) tau_i(A) E'_0 = zeta_i E'_0, read on v
    raising = (
        {"identity": f"alternating product on first {other_side} eigenspace", "i": i}
        for i in range(d + 1)
        for _, c, _, other_side in sides
        if c.b.shifts(c.cols[i], c.thetas_b[1 : i + 1])[-1] != tuple(zetas[i] * a for a in c.v)
    )
    return [
        verdict("split/offdiag_products_vanish", offdiag),
        verdict("split/prefix_product_reductions", prefix),
        verdict("split/diag_products_scale", scaling),
        verdict("split/raising_identities", raising),
    ]


def zeta_star_check(zetas, zetas_star):
    """The split sequence equals that of the operator-swapped system."""
    ok = tuple(zetas) == tuple(zetas_star)
    witness = None if ok else {"zeta": zetas, "zeta_star": zetas_star}
    return Check("split/zeta_star_equal", PASS if ok else FAIL, witness)


def bijection_check(ctx: SystemContext):
    """The eight projection maps between extreme eigenspaces are bijections.

    Injectivity on a basis suffices (finite dimension): the image of each
    source basis must keep its dimension.
    """
    sys, e_fam, estar_fam = ctx.sys, ctx.e_fam, ctx.estar_fam
    field, n, d = sys.field, sys.n, sys.d
    maps = [
        ("Estar0V->E0V", estar_fam.eigenspaces[0], e_fam[0]),
        ("Estar0V->EdV", estar_fam.eigenspaces[0], e_fam[d]),
        ("EstardV->E0V", estar_fam.eigenspaces[d], e_fam[0]),
        ("EstardV->EdV", estar_fam.eigenspaces[d], e_fam[d]),
        ("E0V->Estar0V", e_fam.eigenspaces[0], estar_fam[0]),
        ("E0V->EstardV", e_fam.eigenspaces[0], estar_fam[d]),
        ("EdV->Estar0V", e_fam.eigenspaces[d], estar_fam[0]),
        ("EdV->EstardV", e_fam.eigenspaces[d], estar_fam[d]),
    ]
    images = (
        (name, source, Subspace.from_vectors(field, n, [proj.apply(v) for v in source.basis]))
        for name, source, proj in maps
    )
    return verdict(
        "split/bijections",
        (
            {"map": name, "source_dim": source.dim, "image_dim": image.dim}
            for name, source, image in images
            if image.dim != source.dim
        ),
    )


def zeta_d_closed_form(ctx: SystemContext):
    """Both closed forms of the last split-sequence term."""
    sys, e_fam, estar_fam = ctx.sys, ctx.e_fam, ctx.estar_fam
    field, d = sys.field, sys.d
    fam_t = TauEtaFamily(field, sys.thetas)
    fam_s = TauEtaFamily(field, sys.thetas_star)
    lhs = ctx.zetas[d]
    first = (
        fam_s.eta_at(d, sys.thetas_star[0])
        * fam_t.tau_at(d, sys.thetas[d])
        * _trace_with(e_fam[d], estar_fam.line_factors(0))
    )
    second = (
        fam_t.eta_at(d, sys.thetas[0])
        * fam_s.tau_at(d, sys.thetas_star[d])
        * _trace_with(estar_fam[d], e_fam.line_factors(0))
    )
    ok = lhs == first and lhs == second
    witness = None if ok else {"zeta_d": lhs, "primary_form": first, "dual_form": second}
    return Check("split/zeta_last_closed_form", PASS if ok else FAIL, witness)


def weighted_zeta_sum(field, thetas, thetas_star, zetas):
    """sum_i eta_{d-i}(theta_0) eta*_{d-i}(theta*_0) zeta_i."""
    d = len(thetas) - 1
    fam_t = TauEtaFamily(field, thetas)
    fam_s = TauEtaFamily(field, thetas_star)
    acc = field.zero
    for i in range(d + 1):
        acc = acc + fam_t.eta_at(d - i, thetas[0]) * fam_s.eta_at(d - i, thetas_star[0]) * zetas[i]
    return acc


def three_term_ratios(seq) -> list:
    """(s_{i-2} - s_{i+1}) / (s_{i-1} - s_i) for 2 <= i <= d-1; empty below d = 3."""
    return [(seq[i - 2] - seq[i + 1]) / (seq[i - 1] - seq[i]) for i in range(2, len(seq) - 1)]


def parameter_array(sys: TdSystem, zetas) -> ParameterArray:
    """Assemble the parameter array, asserting its defining inequalities."""
    field, d = sys.field, sys.d
    _ensure(zetas[0] == field.one, "zeta_0 is not 1")
    _ensure(zetas[d] != field.zero, "zeta_d vanishes")
    total = weighted_zeta_sum(field, sys.thetas, sys.thetas_star, zetas)
    _ensure(total != field.zero, "weighted zeta sum vanishes", total)
    return ParameterArray(tuple(sys.thetas), tuple(sys.thetas_star), tuple(zetas))


def problems_report(ctx: SystemContext):
    """Instance data for the open questions: restriction spectra, the
    cross-trace table, and the split projections.

    For each i up to d/2, the alternating middle product
    (A* - theta*_{i+1})...(A* - theta*_{d-i}) (A - theta_i)...(A - theta_{d-i-1}),
    which preserves split summand i, is restricted to it and expressed in the
    stored basis, its invertibility asserted, and its characteristic
    polynomial reported (coefficients only; no factoring).  The split
    projections F_i onto each summand along the others are built only here,
    with everything `projections` asserts about them.
    """
    sys, summands = ctx.sys, ctx.decomposition
    field, d = sys.field, sys.d
    restrictions = []
    for i in range(d // 2 + 1):
        s = summands[i]
        cols = []
        for v in s.basis:
            raised = sys.A.shifts(v, sys.thetas[i : d - i])[-1]
            w = sys.Astar.shifts(raised, sys.thetas_star[i + 1 : d - i + 1])[-1]
            _ensure(s.contains(w), f"alternating product leaves split summand {i}")
            cols.append([w[c] for c in s.pivots])  # coordinates in the rref basis
        restriction = Matrix(field, cols).transpose()
        _ensure(
            mx.det(restriction) != field.zero,
            f"alternating product restricted to split summand {i} is singular",
        )
        restrictions.append(
            {
                "summand": i,
                "matrix": restriction,
                "char_poly": char_poly(restriction).coeffs,
            }
        )
    return {
        "restrictions": restrictions,
        "cross_traces": _cross_traces(ctx),
        "projections": projections(field, sys.n, summands),
    }


def _cross_traces(ctx: SystemContext) -> dict:
    """tr(E_i E*_0), tr(E_i E*_d), tr(E*_i E_0) and tr(E*_i E_d) for i = 0..d,
    each read through the rank-one factor (see _trace_with)."""
    e_fam, estar_fam, d = ctx.e_fam, ctx.estar_fam, ctx.sys.d
    e0, ed = e_fam.line_factors(0), e_fam.line_factors(d)
    es0, esd = estar_fam.line_factors(0), estar_fam.line_factors(d)
    return {
        "tr_Ei_Estar0": [_trace_with(e, es0) for e in e_fam],
        "tr_Ei_Estard": [_trace_with(e, esd) for e in e_fam],
        "tr_Estari_E0": [_trace_with(e, e0) for e in estar_fam],
        "tr_Estari_Ed": [_trace_with(e, ed) for e in estar_fam],
    }
