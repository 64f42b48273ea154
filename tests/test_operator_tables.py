"""The operator-polynomial tables of the test oracle (oracles.operator_tables):
tau_i(A), tau*_i(A*) and the alternating products, checked against Horner
evaluation and the explicit factor-by-factor products on several systems
and all their relatives.  The explicit alternating products are in turn the
oracle for the split sequence, which applies the same factors to a vector."""

import pytest

from tdlab import d4orbit as d4
from tdlab.appshell import run_identity_suite, system_from_document
from tdlab.matrices import Matrix
from tdlab.polys import Poly, TauEtaFamily
from tdlab.tdcore import SystemContext

from oracles import _linear_products, at_matrix, operator_tables
from test_golden import KRAW_GF, KRAW_Q


@pytest.fixture(params=["x1", "inst_d3", "kraw_q", "kraw_gf"])
def base(request):
    documents = {"kraw_q": KRAW_Q, "kraw_gf": KRAW_GF}
    if request.param in documents:
        sys, _ = system_from_document(documents[request.param])
    else:
        sys, _ = request.getfixturevalue(request.param)
    return SystemContext(sys)


def _relatives(ctx):
    return [d4.relative_context(ctx, g) for g in d4.ALL_ELEMENTS]


def _factor_product(field, n, factors):
    """I (m_1 - v_1 I) (m_2 - v_2 I) ... in the order given."""
    ident = Matrix.identity(field, n)
    out = ident
    for m, v in factors:
        out = out * (m - ident.scale(v))
    return out


def _alternating_factors(sys, i, dual=False):
    """The factors of (B - theta'_1)...(B - theta'_i)(A - theta_{i-1})...(A - theta_0)
    with (A, B) = (A, A*), or (A*, A) for the dual."""
    a, b, th, ths = sys.A, sys.Astar, sys.thetas, sys.thetas_star
    if dual:
        a, b, th, ths = b, a, ths, th
    lowering = [(b, ths[k]) for k in range(1, i + 1)]
    raising = [(a, th[k]) for k in range(i - 1, -1, -1)]
    return lowering + raising


def test_tau_tables_equal_horner_evaluation(base):
    for ctx in _relatives(base):
        sys = ctx.sys
        fam_t = TauEtaFamily(sys.field, sys.thetas)
        fam_s = TauEtaFamily(sys.field, sys.thetas_star)
        tau, tau_star, _, _ = operator_tables(sys)
        assert len(tau) == len(tau_star) == sys.d + 1
        for i in range(sys.d + 1):
            assert tau[i] == at_matrix(fam_t.tau(i), sys.A)
            assert tau_star[i] == at_matrix(fam_s.tau(i), sys.Astar)


def test_alternating_products_equal_explicit_products(base):
    for ctx in _relatives(base):
        sys = ctx.sys
        field, n = sys.field, sys.n
        _, _, alternating, alternating_star = operator_tables(sys)
        for i in range(sys.d + 1):
            assert alternating[i] == _factor_product(field, n, _alternating_factors(sys, i))
            assert alternating_star[i] == _factor_product(field, n, _alternating_factors(sys, i, dual=True))


def test_split_sequence_is_how_the_alternating_tables_act_on_the_split_line(base):
    for ctx in _relatives(base):
        sys = ctx.sys
        v = ctx.decomposition[0].basis[0]
        assert len(ctx.zetas) == sys.d + 1
        for i, zeta in enumerate(ctx.zetas):
            op = _factor_product(sys.field, sys.n, _alternating_factors(sys, i))
            assert op.apply(v) == tuple(zeta * x for x in v)


def test_linear_products_never_multiply_by_the_identity(x1, matrix_products):
    sys, _ = x1
    for values in ((), (sys.thetas[0],), sys.thetas, (*sys.thetas, *sys.thetas_star)):
        before = len(matrix_products)
        table = _linear_products(sys.A, values)
        assert len(table) == len(values) + 1
        assert len(matrix_products) - before == max(len(values) - 1, 0)


@pytest.mark.parametrize("doc", [KRAW_Q, KRAW_GF], ids=["Q", "GF"])
def test_identity_suite_never_evaluates_polynomials_at_matrices(doc):
    # the suite applies its factors to vectors; Horner evaluation at a matrix
    # exists only as the test oracle, not as a Poly method the suite could call
    assert not hasattr(Poly, "at_matrix")
    sys, _ = system_from_document(doc)
    ctx = SystemContext(sys)
    assert ctx.report.passed()
    checks = run_identity_suite(ctx)
    assert all(c.status == "pass" for c in checks), [c for c in checks if c.status != "pass"]
