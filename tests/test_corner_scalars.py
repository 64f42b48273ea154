"""The split identities read through the rank-one corners, against their
matrix-product forms.

On a sharp system E_0, E_d, E*_0 and E*_d have rank one, so trace_zeta,
vanishing_check, zeta_d_closed_form and the cross-trace table of
problems_report read each corner product as a scalar (splitparam._Corner).
tests/oracles.py keeps the forms that build the n x n operator tables and
multiply them out.  Both must give the same checks (id, status, witness),
the same trace values and the same table: on the golden systems and their
relatives, on the fuzz corpus over both fields and on the n=16 pair; and on
contexts whose eigenvalues or split sequence were made wrong, where every
identity must fail in both forms alike.
"""

import dataclasses

import pytest

from tdlab import d4orbit as d4
from tdlab import splitparam as sp
from tdlab.appshell import system_from_document
from tdlab.tdcore import SystemContext

import oracles
from test_conjlab import _n16_pair
from test_golden import KRAW_GF, KRAW_Q
from test_spin import GF, GOLDEN_SYSTEMS, QQ, _fuzz_corpus

SPLIT_IDS = {
    "split/trace_formulas",
    "split/offdiag_products_vanish",
    "split/prefix_product_reductions",
    "split/diag_products_scale",
    "split/raising_identities",
    "split/zeta_last_closed_form",
}


def _both_forms(ctx):
    """(package, oracle): the trace values and the checks of the three
    identity functions, in report order."""
    out = []
    for module in (sp, oracles):
        values, checks = module.trace_zeta(ctx)
        checks = checks + module.vanishing_check(ctx) + [module.zeta_d_closed_form(ctx)]
        out.append((values, checks))
    return out


def _assert_forms_agree(ctx):
    assert ctx.report.passed() and ctx.report.sharp
    package, oracle = _both_forms(ctx)
    assert package == oracle
    assert all(c.status == "pass" for c in package[1]), package[1]
    assert sp._cross_traces(ctx) == oracles.cross_traces(ctx)


@pytest.mark.parametrize("name", sorted(GOLDEN_SYSTEMS))
def test_corner_scalars_match_the_product_forms_on_golden_systems(name):
    ctx = SystemContext(GOLDEN_SYSTEMS[name]())
    _assert_forms_agree(ctx)
    for g in d4.ALL_ELEMENTS:
        _assert_forms_agree(d4.relative_context(ctx, g))


@pytest.mark.parametrize("field", [QQ, GF], ids=["Q", "GF"])
def test_corner_scalars_match_the_product_forms_on_the_fuzz_corpus(field):
    corpus = _fuzz_corpus(field)
    assert len(corpus) >= 10
    for _, ctx in corpus:
        _assert_forms_agree(ctx)


def test_corner_scalars_match_the_product_forms_on_the_n16_pair():
    ctx = SystemContext(_n16_pair())
    assert ctx.report.shape == (1, 4, 6, 4, 1)
    _assert_forms_agree(ctx)


def _mutants(ctx):
    """Contexts with the base's families and split sequence but one
    eigenvalue moved, and contexts with one term of the split sequence
    moved."""
    sys, one = ctx.sys, ctx.sys.field.one
    out = []
    for attr in ("thetas", "thetas_star"):
        for i in range(sys.d + 1):
            values = list(getattr(sys, attr))
            values[i] = values[i] + one
            mutant = ctx.seeded(dataclasses.replace(sys, **{attr: tuple(values)}), ctx.e_fam, ctx.estar_fam)
            mutant.zetas = ctx.zetas
            out.append(mutant)
    for i in range(sys.d + 1):
        mutant = ctx.seeded(sys, ctx.e_fam, ctx.estar_fam)
        mutant.zetas = tuple(z + one if k == i else z for k, z in enumerate(ctx.zetas))
        out.append(mutant)
    return out


@pytest.mark.parametrize("doc", [KRAW_Q, KRAW_GF], ids=["Q", "GF"])
def test_wrong_eigenvalues_and_split_sequences_fail_alike_in_both_forms(doc):
    sys, _ = system_from_document(doc)
    ctx = SystemContext(sys)
    assert ctx.report.passed()
    failed = set()
    for mutant in _mutants(ctx):
        package, oracle = _both_forms(mutant)
        assert package == oracle
        assert sp._cross_traces(mutant) == oracles.cross_traces(mutant)
        failed |= {c.id for c in package[1] if c.status == "fail"}
    assert failed == SPLIT_IDS


@pytest.mark.parametrize("doc", [KRAW_Q, KRAW_GF], ids=["Q", "GF"])
@pytest.mark.parametrize(
    "read",
    [sp.trace_zeta, sp.vanishing_check, sp.zeta_d_closed_form, sp._cross_traces],
    ids=["trace_zeta", "vanishing_check", "zeta_d_closed_form", "cross_traces"],
)
def test_corner_identities_form_no_matrix_product(doc, read, matrix_products):
    sys, _ = system_from_document(doc)
    ctx = SystemContext(sys)
    assert ctx.report.passed() and ctx.zetas
    matrix_products.clear()
    read(ctx)
    assert len(matrix_products) == 0
