"""Failing witnesses as the report prints them.

Each test drives checkers into failure (a tampered orbit, mismatched split
sequences, a context whose split sequence is overridden, a repeated
eigenvalue, ...), pushes their checks through the report layer and compares
the result with literal text, over Q and over GF(13).  Checkers hand field
values to their witnesses and only the report layer turns them into text,
so these strings pin what that layer prints for each witness shape.
"""

from fractions import Fraction as F

import pytest

from tdlab import appshell as app
from tdlab import d4orbit as d4
from tdlab import formlab as fl
from tdlab import splitparam as sp
from tdlab.conjlab import field_check, pa_conditions
from tdlab.matrices import Matrix
from tdlab.scalars import PrimeField, RationalField
from tdlab.tdcore import Check, InvariantViolation, SystemContext, TdSystem, validate

QQ = RationalField()
GF13 = PrimeField(13)
e = GF13.from_int


def _rendered(field, checks):
    """The report entries of the checks that failed or carry a witness."""
    return app.checks_to_json(field, [c for c in checks if c.status != "pass" or c.witness])


def _diagonal_system(field, thetas, thetas_star):
    n = len(thetas)
    a = Matrix(field, [[t if i == j else field.zero for j in range(n)] for i, t in enumerate(thetas)])
    return TdSystem(field, n, a, a, thetas, thetas_star)


def _tampered_orbit(sys, last_terms):
    """The orbit of sys with the last split-sequence term of swap, rev_dual,
    rev_primary and rev_dual_rev_primary_swap replaced, in that order."""
    orbit = {name: dict(data) for name, data in d4.compute_orbit(SystemContext(sys)).items()}
    for name, last in zip(("swap", "rev_dual", "rev_primary", "rev_dual_rev_primary_swap"), last_terms):
        orbit[name]["zetas"] = orbit[name]["zetas"][:-1] + (last,)
    return orbit


def _overridden(sys, zetas):
    """A fresh context of sys whose split sequence reads `zetas`."""
    ctx = SystemContext(sys)
    ctx.zetas = zetas
    return ctx


def _relations(sys, last_terms):
    return d4.zeta_relations_check(sys, d4.q_extract(sys), _tampered_orbit(sys, last_terms))


def test_zeta_relations_over_q(x1):
    checks = _relations(x1[0], (F(3), F(5), F(7), F(-1, 2)))
    assert _rendered(QQ, checks) == [
        {"id": "orbit/column_sequences_equal", "status": "fail",
         "witness": {"pair": ["id", "swap"], "first": ["1", "1"], "second": ["1", "3"]}},
        {"id": "orbit/relation_rev_dual", "status": "fail",
         "witness": {"i": 1, "lhs": "5", "rhs": "2", "direction": "forward"}},
        {"id": "orbit/relation_rev_primary", "status": "fail",
         "witness": {"i": 1, "lhs": "7", "rhs": "2", "direction": "forward"}},
        {"id": "orbit/relation_rev_both_from_rev_dual", "status": "fail",
         "witness": {"i": 1, "lhs": "-1", "rhs": "-4", "direction": "forward"}},
        {"id": "orbit/relation_rev_both_from_rev_primary", "status": "fail",
         "witness": {"i": 1, "lhs": "-1", "rhs": "-6", "direction": "forward"}},
        {"id": "orbit/last_term_unchanged_group", "status": "fail",
         "witness": {"relative": "swap", "last_term": "3"}},
        {"id": "orbit/last_term_weighted_group", "status": "fail",
         "witness": {"relative": "rev_dual", "last_term": "5", "weighted_sum": "2"}},
        {"id": "orbit/last_term_cross_consistency", "status": "fail",
         "witness": {"relation_value": "2", "weighted_sum": "2", "last_term": "7"}},
    ]


def test_zeta_relations_over_gf13(inst_gf13_d2):
    checks = _relations(inst_gf13_d2[0], (e(3), e(5), e(9), e(12)))
    assert _rendered(GF13, checks) == [
        {"id": "orbit/column_sequences_equal", "status": "fail",
         "witness": {"pair": ["id", "swap"], "first": ["1", "5", "2"], "second": ["1", "5", "3"]}},
        {"id": "orbit/relation_rev_dual", "status": "fail",
         "witness": {"i": 2, "lhs": "6", "rhs": "11", "direction": "forward"}},
        {"id": "orbit/relation_rev_primary", "status": "fail",
         "witness": {"i": 2, "lhs": "12", "rhs": "5", "direction": "forward"}},
        {"id": "orbit/relation_rev_both_from_rev_dual", "status": "fail",
         "witness": {"i": 2, "lhs": "3", "rhs": "0", "direction": "forward"}},
        {"id": "orbit/relation_rev_both_from_rev_primary", "status": "fail",
         "witness": {"i": 2, "lhs": "9", "rhs": "5", "direction": "forward"}},
        {"id": "orbit/last_term_unchanged_group", "status": "fail",
         "witness": {"relative": "swap", "last_term": "3"}},
        {"id": "orbit/last_term_weighted_group", "status": "fail",
         "witness": {"relative": "rev_dual", "last_term": "5", "weighted_sum": "7"}},
        {"id": "orbit/last_term_cross_consistency", "status": "fail",
         "witness": {"relation_value": "7", "weighted_sum": "7", "last_term": "9"}},
    ]


def test_zeta_star_mismatch():
    q = sp.zeta_star_check((F(1), F(1)), (F(1), F(-2, 3)))
    gf = sp.zeta_star_check((e(1), e(2), e(3)), (e(1), e(2), e(12)))
    assert _rendered(QQ, [q]) + _rendered(GF13, [gf]) == [
        {"id": "split/zeta_star_equal", "status": "fail",
         "witness": {"zeta": ["1", "1"], "zeta_star": ["1", "-2/3"]}},
        {"id": "split/zeta_star_equal", "status": "fail",
         "witness": {"zeta": ["1", "2", "3"], "zeta_star": ["1", "2", "12"]}},
    ]


def test_trace_formulas_and_closed_form_against_overridden_zetas(x1, inst_gf13_d2):
    out = []
    for field, sys, zetas in ((QQ, x1[0], (F(1), F(3, 4))), (GF13, inst_gf13_d2[0], (e(1), e(4), e(9)))):
        ctx = _overridden(sys, zetas)
        out += _rendered(field, sp.trace_zeta(ctx)[1] + [sp.zeta_d_closed_form(ctx)])
    assert out == [
        {"id": "split/trace_formulas", "status": "fail",
         "witness": {"formula": "dual_prefix_times_trace", "got": ["1", "1"], "expected": ["1", "3/4"]}},
        {"id": "split/zeta_last_closed_form", "status": "fail",
         "witness": {"zeta_d": "3/4", "primary_form": "1", "dual_form": "1"}},
        {"id": "split/trace_formulas", "status": "fail",
         "witness": {"formula": "dual_prefix_times_trace", "got": ["1", "5", "2"],
                     "expected": ["1", "4", "9"]}},
        {"id": "split/zeta_last_closed_form", "status": "fail",
         "witness": {"zeta_d": "9", "primary_form": "2", "dual_form": "2"}},
    ]


def test_dual_parameter_array_against_overridden_zetas(x1, inst_gf13_d2):
    q = fl.dual_system(_overridden(x1[0], (F(1), F(5))))[1]
    gf = fl.dual_system(_overridden(inst_gf13_d2[0], (e(1), e(0), e(7))))[1]
    assert _rendered(QQ, q) + _rendered(GF13, gf) == [
        {"id": "dual/parameter_array_equal", "status": "fail",
         "witness": {"zeta": ["1", "5"], "dual_zeta": ["1", "1"]}},
        {"id": "dual/parameter_array_equal", "status": "fail",
         "witness": {"zeta": ["1", "0", "7"], "dual_zeta": ["1", "5", "2"]}},
    ]


def test_form_nondegenerate(x1, inst_gf13_d2, monkeypatch):
    passing = _rendered(QQ, fl.invariant_form(x1[1])[1]) + _rendered(
        GF13, fl.invariant_form(inst_gf13_d2[1])[1]
    )
    assert passing == [
        {"id": "form/solution_dim", "status": "pass", "witness": {"solution_dim": 1}},
        {"id": "form/nondegenerate", "status": "pass", "witness": {"det": "-2"}},
        {"id": "form/solution_dim", "status": "pass", "witness": {"solution_dim": 1}},
        {"id": "form/nondegenerate", "status": "pass", "witness": {"det": "6"}},
    ]
    monkeypatch.setattr(fl.mx, "det", lambda m: m.field.zero)
    assert _rendered(QQ, fl.invariant_form(x1[1])[1])[-1] == {
        "id": "form/nondegenerate", "status": "fail", "witness": {"det": "0"},
    }


def test_repeated_eigenvalue():
    out = []
    for field, thetas, thetas_star in (
        (QQ, (F(1, 2), F(2), F(1, 2)), (F(1), F(2), F(3))),
        (GF13, (e(1), e(2), e(3)), (e(5), e(2), e(18))),
    ):
        out += _rendered(field, validate(_diagonal_system(field, thetas, thetas_star)).checks)
        out += _rendered(field, pa_conditions(field, thetas, thetas_star, (field.one,) * 3))
    assert out == [
        {"id": "eigenvalues/distinct", "status": "fail", "witness": {"indices": [0, 2], "value": "1/2"}},
        {"id": "conj/pa_distinct", "status": "fail", "witness": {"sequence": "theta", "indices": [0, 2]}},
        {"id": "eigenvalues/distinct", "status": "fail", "witness": {"indices": [0, 2], "value": "5"}},
        {"id": "conj/pa_distinct", "status": "fail",
         "witness": {"sequence": "theta_star", "indices": [0, 2]}},
    ]


def test_bracket_expansion_with_a_wrong_q(inst_d3):
    wrong_q = d4.QData("generic", q=F(3), beta=F(13, 3))
    assert _rendered(QQ, [d4.bracket_expansion_check(inst_d3[0], wrong_q)]) == [
        {"id": "poly/eta_bracket_expansion", "status": "fail",
         "witness": {"i": 2, "lhs": ["32", "-12", "1"], "rhs": ["411/13", "-151/13", "1"]}},
    ]


def test_parameter_array_conditions():
    q = pa_conditions(QQ, (F(1), F(2), F(4), F(8)), (F(0), F(1), F(2), F(5)), (F(2, 3), F(1), F(1), F(0)))
    gf = pa_conditions(GF13, (e(1), e(2), e(4), e(8)), (e(0), e(1), e(2), e(5)), (e(4), e(1), e(1), e(1)))
    assert _rendered(QQ, q) + _rendered(GF13, gf) == [
        {"id": "conj/pa_normalization", "status": "fail",
         "witness": [{"clause": "zeta_0", "value": "2/3"}, {"clause": "zeta_d", "value": "0"}]},
        {"id": "conj/pa_ratios", "status": "fail", "witness": {"first": "7/2", "other": "5"}},
        {"id": "conj/pa_normalization", "status": "fail", "witness": [{"clause": "zeta_0", "value": "4"}]},
        {"id": "conj/pa_ratios", "status": "fail", "witness": {"first": "10", "other": "5"}},
    ]


def test_corner_field_rational_root():
    m = Matrix(QQ, [[F(1), F(0), F(0)], [F(0), F(2), F(0)], [F(0), F(0), F(3)]])
    ident = Matrix.identity(QQ, 3)
    corner = [ident, m, m * m]
    assert _rendered(QQ, field_check(QQ, corner, ident, 3)[1]) == [
        {"id": "conj/corner_dim_matches_rank", "status": "pass", "witness": {"corner_dim": 3, "rank": 3}},
        {"id": "conj/corner_field", "status": "fail",
         "witness": {"reason": "minimal polynomial has a rational root", "root": "1"}},
    ]


def test_corner_field_rational_root_zero():
    # minimal polynomial x(x - 1)(x - 2): the zero constant term is the root 0
    m = Matrix(QQ, [[F(0), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(2)]])
    ident = Matrix.identity(QQ, 3)
    assert _rendered(QQ, field_check(QQ, [ident, m, m * m], ident, 3)[1])[1] == {
        "id": "conj/corner_field", "status": "fail",
        "witness": {"reason": "minimal polynomial has a rational root", "root": "0"},
    }


def _raised_witness(field, derive):
    with pytest.raises(InvariantViolation) as err:
        derive()
    return app.to_jsonable(field, err.value.witness)


def test_invariant_violation_witnesses(x1, inst_gf13_d2, monkeypatch):
    out = [
        _raised_witness(QQ, lambda: sp.parameter_array(x1[0], (F(1), F(-1)))),
        _raised_witness(GF13, lambda: sp.parameter_array(inst_gf13_d2[0], (e(1), e(1), e(5)))),
    ]
    for field, thetas in ((QQ, tuple(map(F, (1, 2, 4, 8, 10)))), (GF13, tuple(map(e, (1, 2, 4, 8, 10))))):
        out.append(_raised_witness(field, lambda: d4.q_extract(_diagonal_system(field, thetas, thetas))))
    monkeypatch.setattr(sp, "split_sequence", lambda ctx: (F(1), F(5, 2)))
    out.append(_raised_witness(QQ, lambda: app.gen_leonard_split(QQ, (F(1), F(0)), (F(1), F(0)), (F(1),))))
    assert out == [
        "0",
        "0",
        {"first": "7/2", "other": "2", "position": 1},
        {"first": "10", "other": "2", "position": 1},
        {"zetas": ["1", "5/2"]},
    ]


@pytest.mark.parametrize("value", [1.5, {1, 2}, object()], ids=["float", "set", "object"])
def test_a_witness_without_a_report_form_raises(value):
    # a repr in a report could differ between runs; no report prints one
    check = Check("some/check", "fail", {"value": [value]})
    with pytest.raises(TypeError, match=f"no report form for {type(value).__name__}"):
        app.checks_to_json(QQ, [check])
