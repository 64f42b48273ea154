from fractions import Fraction as F

import pytest

from tdlab import d4orbit as d4
from tdlab.formlab import (
    anti_automorphism,
    conjecture_crosscheck,
    dual_system,
    invariant_form,
    isomorphism_test,
)
from tdlab.matrices import Matrix, det, inverse
from tdlab.formlab import form_checks
from tdlab.scalars import FieldError, PrimeField, RationalField
from tdlab.splitparam import ParameterArray
from tdlab.tdcore import SystemContext, TdSystem, validate

QQ = RationalField()


def test_x1_gram_matrix(x1):
    sys, _ = x1
    form, checks = invariant_form(sys)
    assert all(c.status == "pass" for c in checks)
    assert form.solution_dim == 1
    assert form.gram == Matrix.from_ints(QQ, [[1, 1], [1, -1]])
    assert det(form.gram) == F(-2)


def test_x1_form_orthogonality_numbers(x1):
    # G maps (0,1) to (1,-1); the first eigenspace basis (1,1) pairs to zero
    sys, ctx = x1
    form, _ = invariant_form(sys)
    gu = form.gram.apply((F(0), F(1)))
    assert gu == (F(1), F(-1))
    assert sum(a * b for a, b in zip((F(1), F(1)), gu)) == F(0)
    checks = form_checks(form, ctx)
    assert all(c.status == "pass" for c in checks)


def test_x1_restriction_value(x1):
    sys, _ = x1
    form, _ = invariant_form(sys)
    v = (F(1), F(1))  # spans the first primary eigenspace
    assert sum(a * b for a, b in zip(v, form.gram.apply(v))) == F(2)


def test_d0_gram_is_scalar():
    f = PrimeField(13)
    a = Matrix(f, [[f.from_int(5)]])
    astar = Matrix(f, [[f.from_int(7)]])
    sys = TdSystem(f, 1, a, astar, (f.from_int(5),), (f.from_int(7),))
    form, checks = invariant_form(sys)
    assert all(c.status == "pass" for c in checks)
    assert form.gram == Matrix.identity(f, 1)


def test_x1_anti_automorphism(x1):
    sys, ctx = x1
    form, _ = invariant_form(sys)
    dagger, checks = anti_automorphism(form, ctx)
    assert all(c.status == "pass" for c in checks)
    assert dagger.apply(sys.A) == sys.A
    assert dagger.apply(sys.Astar) == sys.Astar
    assert dagger.apply(Matrix.identity(QQ, 2)) == Matrix.identity(QQ, 2)
    # anti-multiplicativity spot check from the fixture
    assert dagger.apply(sys.A * sys.Astar) == sys.Astar * sys.A


def test_dual_system_x1(x1):
    sys, _ = x1
    ctx = SystemContext(sys)
    dual, checks = dual_system(ctx)
    assert all(c.status == "pass" for c in checks), checks
    assert [c.id for c in checks][-1] == "dual/parameter_array_equal"
    assert dual.sys.A == sys.A.transpose()
    assert dual.sys.thetas == sys.thetas
    # double transpose is literal equality
    dd, _ = dual_system(dual)
    assert dd.sys.A == sys.A and dd.sys.Astar == sys.Astar
    verdict, _ = isomorphism_test(ctx, dd)
    assert verdict == "isomorphic"


def test_dual_system_frozen_instances(inst_d2, inst_d3, inst_gf13_d2):
    for sys, ctx in (inst_d2, inst_d3, inst_gf13_d2):
        _, checks = dual_system(SystemContext(sys))
        assert all(c.status == "pass" for c in checks), checks


def test_isomorphism_reflexive(x1):
    sys, _ = x1
    verdict, payload = isomorphism_test(SystemContext(sys), SystemContext(sys))
    assert verdict == "isomorphic"
    g = payload["gamma"]
    assert g * sys.A == sys.A * g


def test_isomorphism_with_conjugate(x1):
    sys, _ = x1
    p = Matrix.from_ints(QQ, [[1, 1], [0, 1]])
    pinv = inverse(p)
    other = TdSystem(
        QQ, 2, p * sys.A * pinv, p * sys.Astar * pinv, sys.thetas, sys.thetas_star
    )
    assert validate(other).passed()
    verdict, payload = isomorphism_test(SystemContext(sys), SystemContext(other))
    assert verdict == "isomorphic"
    g = payload["gamma"]
    assert g * sys.A == other.A * g and g * sys.Astar == other.Astar * g
    assert det(g) != F(0)


def test_isomorphism_rejects_reversed_relative(x1):
    sys, _ = x1
    ctx = SystemContext(sys)
    verdict, payload = isomorphism_test(ctx, d4.relative_context(ctx, d4.REV_PRIMARY))
    assert verdict == "not_isomorphic"
    assert payload["reason"] == "eigenvalue sequences differ"


def test_isomorphism_errors():
    f = PrimeField(7)
    a = Matrix(f, [[f.from_int(5)]])
    small = TdSystem(f, 1, a, a, (f.from_int(5),), (f.from_int(5),))
    b = Matrix.from_ints(QQ, [[5]])
    rational = TdSystem(QQ, 1, b, b, (F(5),), (F(5),))
    with pytest.raises(FieldError):
        isomorphism_test(SystemContext(small), SystemContext(rational))
    big = TdSystem(QQ, 2, Matrix.identity(QQ, 2), Matrix.identity(QQ, 2), (F(1),), (F(1),))
    with pytest.raises(ValueError):
        isomorphism_test(SystemContext(rational), SystemContext(big))


def test_conjecture_crosscheck():
    a1 = ParameterArray((F(1), F(0)), (F(1), F(0)), (F(1), F(1)))
    a2 = ParameterArray((F(1), F(0)), (F(1), F(0)), (F(1), F(1)))
    a3 = ParameterArray((F(1), F(0)), (F(1), F(0)), (F(1), F(2)))
    assert conjecture_crosscheck("isomorphic", a1, a2).status == "pass"
    assert conjecture_crosscheck("not_isomorphic", a1, a3).status == "pass"
    assert conjecture_crosscheck("not_isomorphic", a1, a2).status == "fail"
    assert conjecture_crosscheck("isomorphic", a1, a3).status == "fail"
