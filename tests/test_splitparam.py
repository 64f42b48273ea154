from fractions import Fraction as F

import pytest

from tdlab.matrices import Matrix, Subspace
from tdlab.scalars import PrimeField
from tdlab.splitparam import (
    bijection_check,
    parameter_array,
    problems_report,
    split_decomposition,
    split_sequence,
    trace_zeta,
    vanishing_check,
    weighted_zeta_sum,
    zeta_d_closed_form,
    zeta_star_check,
)
from tdlab.tdcore import InvariantViolation, SystemContext, TdSystem


def _pipeline(ctx):
    return split_decomposition(ctx), split_sequence(ctx)


def test_x1_split_summands(x1):
    sys, ctx = x1
    decomp, zetas = _pipeline(ctx)
    assert decomp.subspaces[0] == Subspace.from_vectors(sys.field, 2, [(F(1), F(0))])
    assert decomp.subspaces[1] == Subspace.from_vectors(sys.field, 2, [(F(0), F(1))])
    assert decomp.projections[0] == Matrix.from_ints(sys.field, [[1, 0], [0, 0]])
    assert decomp.projections[1] == Matrix.from_ints(sys.field, [[0, 0], [0, 1]])
    assert zetas == (F(1), F(1))


def test_x1_raising_containment(x1):
    # (A - theta_0 I) maps the first summand into the second
    sys, ctx = x1
    decomp, _ = _pipeline(ctx)
    shifted = sys.A - Matrix.identity(sys.field, 2)
    img = shifted.apply((F(1), F(0)))
    assert img == (F(0), F(1))
    assert decomp.subspaces[1].contains(img)


def test_d0_split_trivial():
    f = PrimeField(13)
    a = Matrix(f, [[f.from_int(5)]])
    astar = Matrix(f, [[f.from_int(7)]])
    sys = TdSystem(f, 1, a, astar, (f.from_int(5),), (f.from_int(7),))
    decomp, zetas = _pipeline(SystemContext(sys))
    assert decomp.subspaces[0].is_full()
    assert decomp.projections[0] == Matrix.identity(f, 1)
    assert zetas == (f.one,)
    assert parameter_array(sys, zetas).zetas == (f.one,)


def test_x1_trace_formulas(x1):
    _, ctx = x1
    values, checks = trace_zeta(ctx)
    assert all(c.status == "pass" for c in checks)
    assert values["dual_prefix_times_trace"] == [F(1), F(1)]
    assert values["corner_traces"]["tr_E0Estar0"] == F(2)
    # the normalized-trace form at i = 1: numerator 2 over trace 2
    assert values["corner_trace_ratio"][1] == F(1)


def test_x1_vanishing_example(x1):
    # E_0 tau*_0(A*) tau_1(A) E*_0 = A (A - I) A* = 0 because A^2 = A
    sys, ctx = x1
    prod = sys.A * (sys.A - Matrix.identity(sys.field, 2)) * sys.Astar
    assert prod.is_zero()
    checks = vanishing_check(ctx)
    assert all(c.status == "pass" for c in checks)


def test_x1_bijections(x1):
    _, ctx = x1
    assert ctx.e_fam[0].apply((F(1), F(0))) == (F(1), F(1))
    check = bijection_check(ctx)
    assert check.status == "pass"


def test_x1_zeta_d_closed_form(x1):
    _, ctx = x1
    # eta*_1(theta*_0) tau_1(theta_1) tr(E_1 E*_0) = 1 * (-1) * (-1) = 1
    tr = (ctx.e_fam[1] * ctx.estar_fam[0]).trace()
    assert tr == F(-1)
    check = zeta_d_closed_form(ctx)
    assert check.status == "pass"


def test_x1_parameter_array(x1):
    sys, ctx = x1
    _, zetas = _pipeline(ctx)
    array = parameter_array(sys, zetas)
    assert array.thetas == (F(1), F(0))
    assert array.thetas_star == (F(1), F(0))
    assert array.zetas == (F(1), F(1))
    assert weighted_zeta_sum(sys.field, sys.thetas, sys.thetas_star, zetas) == F(2)


def test_x1_cross_trace_table(x1):
    _, ctx = x1
    out = problems_report(ctx)
    t = out["cross_traces"]
    assert t["tr_Ei_Estar0"] == [F(2), F(-1)]
    assert t["tr_Ei_Estard"] == [F(-1), F(2)]
    assert t["tr_Estari_E0"] == [F(2), F(-1)]
    assert t["tr_Estari_Ed"] == [F(-1), F(2)]


def test_x1_problem_restriction(x1):
    sys, ctx = x1
    out = problems_report(ctx)
    rest = out["restrictions"][0]
    assert rest["matrix"] == Matrix.identity(sys.field, 1)
    assert rest["char_poly"] == (F(-1), F(1))  # x - 1


def test_non_sharp_split_sequence_rejected(x1):
    sys, ctx = x1
    decomp, _ = _pipeline(ctx)
    fake = SystemContext(sys)
    fake.decomposition = type(decomp)(
        subspaces=(Subspace.full(sys.field, 2),) + decomp.subspaces[1:],
        projections=decomp.projections,
    )
    with pytest.raises(InvariantViolation):
        split_sequence(fake)


def test_zeta_star_check_flags_mismatch(x1):
    sys, _ = x1
    good = zeta_star_check(sys, (F(1), F(1)), (F(1), F(1)))
    assert good.status == "pass"
    bad = zeta_star_check(sys, (F(1), F(1)), (F(1), F(2)))
    assert bad.status == "fail"


@pytest.mark.parametrize("fixture", ["inst_d2", "inst_d3", "inst_gf13_d2"])
def test_full_split_stage_on_frozen_instances(fixture, request):
    sys, ctx = request.getfixturevalue(fixture)
    decomp, zetas = _pipeline(ctx)
    assert zetas[0] == sys.field.one
    for i, s in enumerate(decomp.subspaces):
        assert s.dim == ctx.report.shape[i]
    _, checks = trace_zeta(ctx)
    checks += vanishing_check(ctx)
    checks.append(bijection_check(ctx))
    checks.append(zeta_d_closed_form(ctx))
    assert all(c.status == "pass" for c in checks), [c for c in checks if c.status != "pass"]
    out = problems_report(ctx)
    assert len(out["restrictions"]) == sys.d // 2 + 1
