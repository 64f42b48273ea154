from fractions import Fraction as F

import pytest

from tdlab import d4orbit as d4
from tdlab import formlab as fl
from tdlab.appshell import RunConfig, fuzz_run, system_from_document
from tdlab.formlab import (
    anti_automorphism,
    dual_system,
    invariant_form,
    isomorphism_test,
)
from tdlab.matrices import Matrix, det, inverse
from tdlab.formlab import form_checks
from tdlab.rng import SplitMix64
from tdlab.scalars import FieldError, PrimeField, RationalField
from tdlab.splitparam import ParameterArray
from tdlab.tdcore import SystemContext, TdSystem, validate
from oracles import anti_image, builtin_x1, conjecture_crosscheck, trace
from test_conjlab import _n16_pair
from test_golden import KRAW_GF
from test_spin import _leonard_d6

QQ = RationalField()


def test_x1_gram_matrix(x1):
    _, ctx = x1
    gram, checks = invariant_form(ctx)
    assert all(c.status == "pass" for c in checks)
    solution = next(c for c in checks if c.id == "form/solution_dim").witness
    assert solution["solution_dim"] == 1
    assert gram == Matrix.from_ints(QQ, [[1, 1], [1, -1]])
    assert det(gram) == F(-2)


def test_x1_form_orthogonality_numbers(x1):
    # G maps (0,1) to (1,-1); the first eigenspace basis (1,1) pairs to zero
    _, ctx = x1
    gram, _ = invariant_form(ctx)
    gu = gram.apply((F(0), F(1)))
    assert gu == (F(1), F(-1))
    assert sum(a * b for a, b in zip((F(1), F(1)), gu)) == F(0)
    checks = form_checks(gram, ctx)
    assert all(c.status == "pass" for c in checks)


def test_x1_restriction_value(x1):
    _, ctx = x1
    gram, _ = invariant_form(ctx)
    v = (F(1), F(1))  # spans the first primary eigenspace
    assert sum(a * b for a, b in zip(v, gram.apply(v))) == F(2)


def test_d0_gram_is_scalar():
    f = PrimeField(13)
    a = Matrix(f, [[f.from_int(5)]])
    astar = Matrix(f, [[f.from_int(7)]])
    sys = TdSystem(f, 1, a, astar, (f.from_int(5),), (f.from_int(7),))
    gram, checks = invariant_form(SystemContext(sys))
    assert all(c.status == "pass" for c in checks)
    assert gram == Matrix.identity(f, 1)


def test_x1_anti_automorphism(x1):
    sys, ctx = x1
    gram, _ = invariant_form(ctx)
    checks = anti_automorphism(gram, ctx)
    assert all(c.status == "pass" for c in checks)
    assert anti_image(gram, sys.A) == sys.A
    assert anti_image(gram, sys.Astar) == sys.Astar
    assert anti_image(gram, Matrix.identity(QQ, 2)) == Matrix.identity(QQ, 2)
    # anti-multiplicativity spot check from the fixture
    assert anti_image(gram, sys.A * sys.Astar) == sys.Astar * sys.A


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


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "GF"])
def test_fuzz_isomorphism_witnesses_intertwine_every_idempotent_pair(field, monkeypatch):
    # isomorphism_test asserts neither relation: both follow from the spin's
    # gamma A = A' gamma and gamma A* = A*' gamma (see its docstring); here
    # they are checked in product form on every isomorphic case of
    # `fuzz --trials 25 --seed 7`: two conjugates of each accepted trial
    cases = []
    decide = fl.isomorphism_test

    def recording(ctx1, ctx2):
        verdict, payload = decide(ctx1, ctx2)
        if verdict == "isomorphic":
            cases.append((ctx1, ctx2, payload["gamma"]))
        return verdict, payload

    monkeypatch.setattr(fl, "isomorphism_test", recording)
    assert fuzz_run(RunConfig(seed=7, trials=25, field=field))["checks"][-1]["status"] == "pass"
    assert len(cases) == 50
    for ctx1, ctx2, gamma in cases:
        assert gamma * ctx1.sys.A == ctx2.sys.A * gamma
        assert gamma * ctx1.sys.Astar == ctx2.sys.Astar * gamma
        for e1, e2 in zip((*ctx1.e_fam, *ctx1.estar_fam), (*ctx2.e_fam, *ctx2.estar_fam), strict=True):
            assert gamma * e1 == e2 * gamma


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


def _form_checks_by_vectors(g, ctx):
    """The witnesses of form_checks, by one bilinear value g(u, v) at a time."""

    def value(u, v):
        return sum((a * b for a, b in zip(g.apply(u), v)), g.field.zero)

    families = (("primary", ctx.e_fam), ("dual", ctx.estar_fam))
    orthogonal = next(
        (
            {"family": label, "i": i, "j": j}
            for label, fam in families
            for i, si in enumerate(fam.eigenspaces)
            for j, sj in enumerate(fam.eigenspaces)
            if i != j and any(value(u, v) for u in si.basis for v in sj.basis)
        ),
        None,
    )
    nondegenerate = next(
        (
            {"family": label, "i": i}
            for label, fam in families
            for i, s in enumerate(fam.eigenspaces)
            if not det(Matrix(g.field, [[value(u, v) for v in s.basis] for u in s.basis]))
        ),
        None,
    )
    return orthogonal, nondegenerate


@pytest.mark.parametrize("fixture", ["inst_d2", "inst_gf13_d2", "KRAW_GF"])
def test_form_checks_witnesses_match_the_vector_scan(fixture, request):
    # random 0/1 grams break orthogonality and nondegeneracy in varied places
    if fixture == "KRAW_GF":
        ctx = SystemContext(system_from_document(KRAW_GF)[0])
    else:
        ctx = request.getfixturevalue(fixture)[1]
    field, n = ctx.sys.field, ctx.sys.n
    rng = SplitMix64(17)
    seen = set()
    for _ in range(40):
        g = Matrix(field, [[field.from_int(rng.randrange(2)) for _ in range(n)] for _ in range(n)])
        checks = form_checks(g, ctx)
        expected = _form_checks_by_vectors(g, ctx)
        assert tuple(c.witness for c in checks) == expected
        assert [c.status for c in checks] == ["pass" if w is None else "fail" for w in expected]
        seen.update(repr(w) for w in expected)
    assert "None" in seen and len(seen) > 3


ANTI_SYSTEMS = {
    "x1": lambda: builtin_x1().sys,
    "leonard6_q": lambda: _leonard_d6(QQ),
    "n16_gf": _n16_pair,
}


@pytest.mark.parametrize("name", sorted(ANTI_SYSTEMS))
def test_anti_automorphism_forms_five_products_whatever_n(name, matrix_products):
    # G A, A^t G, G A*, A*^t G and G G^-1: no sample of Mat_n
    ctx = SystemContext(ANTI_SYSTEMS[name]())
    gram, _ = invariant_form(ctx)
    matrix_products.clear()
    checks = anti_automorphism(gram, ctx)
    assert len(matrix_products) == 5
    assert all(c.status == "pass" for c in checks)


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "GF"])
def test_fuzz_forms_3044_products(field, matrix_products):
    # 5247 when the anti-automorphism sampled 2d+8 matrices per trial
    assert fuzz_run(RunConfig(seed=7, trials=25, field=field))["checks"][-1]["status"] == "pass"
    assert len(matrix_products) == 3044


@pytest.mark.parametrize("field", [QQ, PrimeField(10007)], ids=["Q", "GF"])
def test_fuzz_forms_satisfy_the_anti_automorphism_in_product_form(field, monkeypatch):
    # anti_automorphism reads identities on G (see its docstring); here the
    # properties they decide are checked through sigma(X) = G^-1 X^t G on
    # every accepted trial of `fuzz --trials 25 --seed 7`: the involution and
    # the trace on A, A*, every idempotent and every product of two of them,
    # anti-multiplicativity on every ordered pair of those factors
    forms = []
    decide = fl.anti_automorphism

    def recording(g, ctx):
        forms.append((g, ctx))
        return decide(g, ctx)

    monkeypatch.setattr(fl, "anti_automorphism", recording)
    assert fuzz_run(RunConfig(seed=7, trials=25, field=field))["checks"][-1]["status"] == "pass"
    assert len(forms) == 25
    for g, ctx in forms:
        factors = [ctx.sys.A, ctx.sys.Astar, *ctx.e_fam.mats, *ctx.estar_fam.mats]
        images = [anti_image(g, x) for x in factors]
        for x, xs in zip(factors, images):
            for y, ys in zip(factors, images):
                xy = x * y
                xys = anti_image(g, xy)
                assert xys == ys * xs
                assert anti_image(g, xys) == xy and trace(xys) == trace(xy)
        for x, xs in zip(factors, images):
            assert anti_image(g, xs) == x and trace(xs) == trace(x)
