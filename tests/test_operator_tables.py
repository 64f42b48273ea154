"""The operator-polynomial tables of a SystemContext: tau_i(A), tau*_i(A*)
and the alternating products, checked against Horner evaluation and the
explicit factor-by-factor products on several systems and all their
relatives."""

import pytest

from tdlab import d4orbit as d4
from tdlab.appshell import run_identity_suite, system_from_document
from tdlab.matrices import Matrix
from tdlab.polys import Poly, TauEtaFamily
from tdlab.tdcore import SystemContext, _linear_products

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


def test_tau_tables_equal_horner_evaluation(base):
    for ctx in _relatives(base):
        sys = ctx.sys
        fam_t = TauEtaFamily(sys.field, sys.thetas)
        fam_s = TauEtaFamily(sys.field, sys.thetas_star)
        assert len(ctx.tau) == len(ctx.tau_star) == sys.d + 1
        for i in range(sys.d + 1):
            assert ctx.tau[i] == fam_t.tau(i).at_matrix(sys.A)
            assert ctx.tau_star[i] == fam_s.tau(i).at_matrix(sys.Astar)


def test_alternating_products_equal_explicit_products(base):
    for ctx in _relatives(base):
        sys = ctx.sys
        field, n, a, b = sys.field, sys.n, sys.A, sys.Astar
        th, ths = sys.thetas, sys.thetas_star
        for i in range(sys.d + 1):
            lowering = [(b, ths[k]) for k in range(1, i + 1)]
            raising = [(a, th[k]) for k in range(i - 1, -1, -1)]
            assert ctx.alternating[i] == _factor_product(field, n, lowering + raising)
            lowering = [(a, th[k]) for k in range(1, i + 1)]
            raising = [(b, ths[k]) for k in range(i - 1, -1, -1)]
            assert ctx.alternating_star[i] == _factor_product(field, n, lowering + raising)


def test_linear_products_never_multiply_by_the_identity(monkeypatch, x1):
    sys, _ = x1
    calls = []
    original = Matrix.__mul__

    def counted(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    for values in ((), (sys.thetas[0],), sys.thetas, (*sys.thetas, *sys.thetas_star)):
        before = len(calls)
        table = _linear_products(sys.A, values)
        assert len(table) == len(values) + 1
        assert len(calls) - before == max(len(values) - 1, 0)


@pytest.mark.parametrize("doc", [KRAW_Q, KRAW_GF], ids=["Q", "GF"])
def test_identity_suite_never_evaluates_polynomials_at_matrices(doc, monkeypatch):
    calls = []
    original = Poly.at_matrix

    def counted(self, m):
        calls.append(self)
        return original(self, m)

    monkeypatch.setattr(Poly, "at_matrix", counted)
    sys, _ = system_from_document(doc)
    ctx = SystemContext(sys)
    assert ctx.report.passed()
    checks = run_identity_suite(ctx)
    assert all(c.status == "pass" for c in checks), [c for c in checks if c.status != "pass"]
    assert calls == []
