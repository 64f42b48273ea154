"""Split decomposition, split sequence, parameter array, and the trace and
vanishing identities that pin the split sequence down four different ways.

Builders (split_decomposition, split_sequence, parameter_array,
problems_report) raise InvariantViolation when something that must hold on a
validated system does not; checker functions (vanishing_check,
bijection_check, trace_zeta, zeta_d_closed_form) return Check verdicts so a
harness can aggregate them.  All of these but parameter_array take the
system's SystemContext and read its idempotent families; trace_zeta and
vanishing_check also read its tables tau_i(A), tau*_i(A*) and alternating
products, built once per system.  The builders apply factors to vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

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
)


@dataclass(frozen=True)
class ParameterArray:
    thetas: tuple
    thetas_star: tuple
    zetas: tuple

    @property
    def d(self) -> int:
        return len(self.thetas) - 1


def _ensure(cond: bool, message: str, witness=None):
    if not cond:
        raise InvariantViolation(message, witness)


def _sum(s: Subspace, t: Subspace) -> Subspace:
    return mx.sum_and_meet(s, t)[0]


def _shifted(m: Matrix, thetas, v) -> tuple:
    """(m - theta I) applied to v once per theta in `thetas`, as m v - theta v:
    the shifted matrices are never built."""
    for theta in thetas:
        v = tuple(a - theta * b for a, b in zip(m.apply(v), v))
    return v


def split_decomposition(ctx: SystemContext) -> tuple:
    """The split summands U_0..U_d, asserting everything about them.

    U_i is the intersection of the first i+1 dual eigenspaces' sum with the
    last d-i+1 primary eigenspaces' sum.  Asserted here: the direct sum, the
    two partial-sum identities, the raising/lowering containments, and
    dim U_i equal to the shape entry.
    """
    sys, e_fam = ctx.sys, ctx.e_fam
    field, n, d = sys.field, sys.n, sys.d
    lower = list(accumulate(ctx.estar_fam.eigenspaces, _sum))
    upper = list(accumulate(reversed(e_fam.eigenspaces), _sum))[::-1]
    subspaces = [mx.sum_and_meet(lower[i], upper[i])[1] for i in range(d + 1)]

    running = Subspace.zero(field, n)
    for i in range(d + 1):
        running, overlap = mx.sum_and_meet(running, subspaces[i])
        _ensure(overlap.is_zero(), f"split summand {i} meets the earlier sum", overlap)
        _ensure(
            running == lower[i],
            f"partial sum of split summands differs from dual eigenspace sum at {i}",
        )
    _ensure(running.is_full(), "split summands do not fill the space")

    tail = Subspace.zero(field, n)
    for i in range(d, -1, -1):
        tail = _sum(tail, subspaces[i])
        _ensure(
            tail == upper[i],
            f"tail sum of split summands differs from primary eigenspace sum at {i}",
        )

    for i in range(d + 1):
        raised = [_shifted(sys.A, sys.thetas[i : i + 1], v) for v in subspaces[i].basis]
        target_up = subspaces[i + 1] if i + 1 <= d else Subspace.zero(field, n)
        _ensure(
            all(target_up.contains(v) for v in raised),
            f"(A - theta_{i}) does not raise split summand {i}",
        )
        lowered = [_shifted(sys.Astar, sys.thetas_star[i : i + 1], v) for v in subspaces[i].basis]
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

    Defined only for sharp systems (U_0 is a line).  Each product's factors
    are applied in turn to the spanning vector v; the image must be parallel
    to v, and that parallelism is asserted with a witness on failure.
    """
    u0 = ctx.decomposition[0]
    if u0.dim != 1:
        raise InvariantViolation("split sequence requested for a non-sharp system", u0)
    v = u0.basis[0]
    zetas = []
    sys, field = ctx.sys, ctx.sys.field
    for i in range(sys.d + 1):
        w = _shifted(sys.Astar, sys.thetas_star[1 : i + 1], _shifted(sys.A, sys.thetas[:i], v))
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


def trace_zeta(ctx: SystemContext):
    """The four trace formulas for the split sequence, checked exactly.

    Returns (values, checks): values maps each formula id to its list, and
    the checks assert the pairwise-nonzero traces plus the 4-way agreement
    with the alternating-product sequence.
    """
    sys, e_fam, estar_fam = ctx.sys, ctx.e_fam, ctx.estar_fam
    field, d = sys.field, sys.d
    e0, ed = e_fam[0], e_fam[d]
    es0, esd = estar_fam[0], estar_fam[d]
    checks = []

    corner_traces = {
        "tr_E0Estar0": (e0 * es0).trace(),
        "tr_E0Estard": (e0 * esd).trace(),
        "tr_EdEstar0": (ed * es0).trace(),
        "tr_EdEstard": (ed * esd).trace(),
    }
    zero = field.zero
    bad = {k: v for k, v in corner_traces.items() if v == zero}
    checks.append(Check("split/trace_nonzero", FAIL if bad else PASS, bad or None))
    if bad:
        return {}, checks

    pre_t = _prefix_products(field, list(sys.thetas), sys.thetas[0])
    pre_s = _prefix_products(field, list(sys.thetas_star), sys.thetas_star[0])
    tr_e0es0 = corner_traces["tr_E0Estar0"]
    tr_es0e0 = (es0 * e0).trace()
    tau, tau_star = ctx.tau, ctx.tau_star

    by_dual_prefix = [pre_s[i] * (tau[i] * es0).trace() for i in range(d + 1)]
    by_primary_prefix = [pre_t[i] * (tau_star[i] * e0).trace() for i in range(d + 1)]
    by_corner_ratio = [
        (e0 * tau_star[i] * tau[i] * es0).trace() / tr_e0es0 for i in range(d + 1)
    ]
    by_corner_ratio_dual = [
        (es0 * tau[i] * tau_star[i] * e0).trace() / tr_es0e0 for i in range(d + 1)
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


def vanishing_check(ctx: SystemContext):
    """The corner-product identities around the split sequence.

    Checks, for all index pairs: the off-diagonal corner products vanish;
    the four prefix-product reductions; the diagonal corner products equal
    zeta_i times the corner idempotent product; the operator identity on
    the first dual eigenspace; and the equality of the split sequence with
    its swapped twin.
    """
    sys, zetas = ctx.sys, ctx.zetas
    field, d = sys.field, sys.d
    e0 = ctx.e_fam[0]
    es0 = ctx.estar_fam[0]
    taus_a, taus_b = ctx.tau, ctx.tau_star
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
        if ctx.alternating[i] * es0 != es0.scale(zetas[i]):
            bad = {"identity": "alternating product on first dual eigenspace", "i": i}
            break
        if ctx.alternating_star[i] * e0 != e0.scale(zetas[i]):
            bad = {"identity": "alternating product on first primary eigenspace", "i": i}
            break
    checks.append(Check("split/raising_identities", FAIL if bad else PASS, bad))
    return checks


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
    bad = None
    for name, source, proj in maps:
        imgs = [proj.apply(v) for v in source.basis]
        img_space = Subspace.from_vectors(field, n, imgs)
        if img_space.dim != source.dim:
            bad = {"map": name, "source_dim": source.dim, "image_dim": img_space.dim}
            break
    return Check("split/bijections", FAIL if bad else PASS, bad)


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
        * (e_fam[d] * estar_fam[0]).trace()
    )
    second = (
        fam_t.eta_at(d, sys.thetas[0])
        * fam_s.tau_at(d, sys.thetas_star[d])
        * (estar_fam[d] * e_fam[0]).trace()
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
    sys, summands, e_fam, estar_fam = ctx.sys, ctx.decomposition, ctx.e_fam, ctx.estar_fam
    field, d = sys.field, sys.d
    restrictions = []
    for i in range(d // 2 + 1):
        s = summands[i]
        cols = []
        for v in s.basis:
            raised = _shifted(sys.A, sys.thetas[i : d - i], v)
            w = _shifted(sys.Astar, sys.thetas_star[i + 1 : d - i + 1], raised)
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
    table = {
        "tr_Ei_Estar0": [(e_fam[i] * estar_fam[0]).trace() for i in range(d + 1)],
        "tr_Ei_Estard": [(e_fam[i] * estar_fam[d]).trace() for i in range(d + 1)],
        "tr_Estari_E0": [(estar_fam[i] * e_fam[0]).trace() for i in range(d + 1)],
        "tr_Estari_Ed": [(estar_fam[i] * e_fam[d]).trace() for i in range(d + 1)],
    }
    return {
        "restrictions": restrictions,
        "cross_traces": table,
        "projections": projections(field, sys.n, summands),
    }
