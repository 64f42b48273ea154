"""Which checks each fault fails: one row per check id.

A row names a check id, a fault under which it fails, and the exact set of
ids that fail under that fault.  When the id fails alone under no fault,
the row says why (`never_alone`): the other ids its failure implies.  Every
row runs on the (1,2,1) Krawtchouk pair over Q and over GF(10007).

A fault is a function (context, Gram matrix, monkeypatch) -> (Gram matrix,
context): a wrong G, a patched derivation inside `formlab`, or a seeded
context with a wrong derived object.  The form rows run the checks that take
G, `form_checks` and `anti_automorphism`, on what the fault returns;
form/solution_dim, form/symmetric and form/nondegenerate decide G itself.

Two rows lie outside form/*.  Each patches `d4orbit.compute_orbit` to
double zeta_1 of one relative and runs `relations_stage` on the result.
"""

import dataclasses
from typing import NamedTuple

import pytest

from tdlab import d4orbit as d4
from tdlab import formlab as fl
from tdlab import matrices as mx
from tdlab.appshell import relations_stage, system_from_document
from tdlab.matrices import Matrix, Subspace
from tdlab.tdcore import SystemContext

from test_golden import KRAW_GF, KRAW_Q

FORM_IDS = {
    "form/eigenspaces_orthogonal",
    "form/restrictions_nondegenerate",
    "form/anti_fixes_generators",
    "form/anti_involutive_and_trace",
    "form/anti_multiplicative",
}


def _plus_unit(g, i, j):
    """G with one added at (i, j)."""
    data = [list(row) for row in g.data]
    data[i][j] = data[i][j] + g.field.one
    return Matrix(g.field, data)


def _wrong_inverse(ctx, g, monkeypatch):
    inverse = mx.inverse
    monkeypatch.setattr(fl.mx, "inverse", lambda m: inverse(m).scale(m.field.from_int(2)))
    return g, ctx


def _mixed_basis(count):
    """E_0V's basis vector v_0 becomes v_0 + w_1 + ... + w_count, the w's the
    basis of E_1V; the result is still a direct sum.  On the (1,2,1) pair
    v_0 + w_1 is not G-isotropic, and v_0 + w_1 + w_2 is."""

    def fault(ctx, g, monkeypatch):
        fam, field = ctx.e_fam, ctx.sys.field
        summands = (*fam.eigenspaces[0].basis, *fam.eigenspaces[1].basis[:count])
        mixed = [sum(col, field.zero) for col in zip(*summands)]
        spaces = (Subspace.from_vectors(field, ctx.sys.n, [mixed]), *fam.eigenspaces[1:])
        return g, ctx.seeded(ctx.sys, dataclasses.replace(fam, eigenspaces=spaces), ctx.estar_fam)

    return fault


FAULTS = {
    "symmetric wrong G (one added at (0,0))": lambda ctx, g, _: (_plus_unit(g, 0, 0), ctx),
    "non-symmetric G (one added at (0,1))": lambda ctx, g, _: (_plus_unit(g, 0, 1), ctx),
    "formlab's inverse returns 2 G^-1": _wrong_inverse,
    "E_0V's basis mixed with w_1": _mixed_basis(1),
    "E_0V's basis mixed with w_1 + w_2 (G-isotropic)": _mixed_basis(2),
}


class Row(NamedTuple):
    check_id: str
    fault: str  # a key of FAULTS
    fails: frozenset  # every id that fails under the fault
    never_alone: str | None = None  # why no fault fails check_id alone


ROWS = (
    Row(
        "form/eigenspaces_orthogonal",
        "E_0V's basis mixed with w_1",
        frozenset({"form/eigenspaces_orthogonal"}),
    ),
    Row(
        "form/restrictions_nondegenerate",
        "E_0V's basis mixed with w_1 + w_2 (G-isotropic)",
        frozenset({"form/eigenspaces_orthogonal", "form/restrictions_nondegenerate"}),
        "with det G != 0, G-orthogonal eigenspaces that sum to V restrict G nondegenerately",
    ),
    Row(
        "form/anti_fixes_generators",
        "symmetric wrong G (one added at (0,0))",
        frozenset({"form/anti_fixes_generators", "form/eigenspaces_orthogonal"}),
        "on true eigenspaces G A = A^t G holds iff the E_iV are G-orthogonal, and so for A*",
    ),
    Row(
        "form/anti_involutive_and_trace",
        "non-symmetric G (one added at (0,1))",
        frozenset(
            {
                "form/anti_involutive_and_trace",
                "form/anti_fixes_generators",
                "form/eigenspaces_orthogonal",
            }
        ),
        "the G with G A = A^t G and G A* = A*^t G form a line of symmetric matrices, "
        "and a wrong G^-1 fails form/anti_multiplicative too",
    ),
    Row(
        "form/anti_multiplicative",
        "formlab's inverse returns 2 G^-1",
        frozenset({"form/anti_multiplicative", "form/anti_involutive_and_trace"}),
        "it reads G G^-1 = I, which form/anti_involutive_and_trace reads too",
    ),
)


def _doubled_zeta_1(relative):
    """d4orbit.compute_orbit with zeta_1 of `relative` doubled."""

    def fault(monkeypatch):
        compute_orbit = d4.compute_orbit

        def faulted(ctx):
            orbit = compute_orbit(ctx)
            zetas = orbit[relative]["zetas"]
            orbit[relative]["zetas"] = (zetas[0], zetas[1] + zetas[1], *zetas[2:])
            return orbit

        monkeypatch.setattr(d4, "compute_orbit", faulted)

    return fault


ORBIT_FAULTS = {
    "zeta_1 of swap doubled": _doubled_zeta_1("swap"),
    "zeta_1 of rev_dual_swap doubled": _doubled_zeta_1("rev_dual_swap"),
}

ORBIT_ROWS = (
    Row(
        "split/zeta_star_equal",
        "zeta_1 of swap doubled",
        frozenset({"split/zeta_star_equal", "orbit/column_sequences_equal"}),
        "it compares ctx.zetas with the swap relative's, the (id, swap) pair that "
        "orbit/column_sequences_equal scans first, as orbit['id'] is ctx itself",
    ),
    Row(
        "orbit/column_sequences_equal",
        "zeta_1 of rev_dual_swap doubled",
        frozenset({"orbit/column_sequences_equal"}),
    ),
)


@pytest.fixture(scope="module", params=[KRAW_Q, KRAW_GF], ids=["Q", "GF"])
def pair(request):
    ctx = SystemContext(system_from_document(request.param)[0])
    g, checks = fl.invariant_form(ctx)
    assert all(c.status == "pass" for c in checks)
    return ctx, g


def _failed(pair, fault, monkeypatch):
    """The ids of FORM_IDS that fail under `fault`."""
    ctx, g = pair
    g, ctx = FAULTS[fault](ctx, g, monkeypatch)
    assert mx.det(g) != g.field.zero
    checks = fl.form_checks(g, ctx) + fl.anti_automorphism(g, ctx)
    assert {c.id for c in checks} == FORM_IDS
    return {c.id for c in checks if c.status == "fail"}


def test_the_unfaulted_pair_passes_every_form_check(pair):
    ctx, g = pair
    checks = fl.form_checks(g, ctx) + fl.anti_automorphism(g, ctx)
    assert [c.status for c in checks] == ["pass"] * len(FORM_IDS)


@pytest.mark.parametrize("row", ROWS, ids=[row.check_id for row in ROWS])
def test_each_row_fails_exactly_its_ids(pair, row, monkeypatch):
    assert row.check_id in row.fails
    assert (row.fails == {row.check_id}) == (row.never_alone is None)
    assert _failed(pair, row.fault, monkeypatch) == row.fails


def _failed_relations(ctx):
    return {c.id for c in relations_stage(ctx)[0] if c.status == "fail"}


def test_the_unfaulted_pair_passes_every_relation_check(pair):
    assert _failed_relations(pair[0]) == set()


@pytest.mark.parametrize("row", ORBIT_ROWS, ids=[row.check_id for row in ORBIT_ROWS])
def test_each_orbit_row_fails_exactly_its_ids(pair, row, monkeypatch):
    assert row.check_id in row.fails
    assert (row.fails == {row.check_id}) == (row.never_alone is None)
    ORBIT_FAULTS[row.fault](monkeypatch)
    assert _failed_relations(pair[0]) == row.fails


def test_every_form_id_has_a_row():
    assert {row.check_id for row in ROWS} == FORM_IDS


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_no_fault_fails_a_never_alone_id_alone(pair, fault, monkeypatch):
    never_alone = {row.check_id for row in ROWS if row.never_alone}
    failed = _failed(pair, fault, monkeypatch)
    assert failed
    assert not (len(failed) == 1 and failed <= never_alone)


def test_witnesses_name_the_identity_that_failed(pair, monkeypatch):
    ctx, g = pair
    witnesses = {}
    for fault in ("non-symmetric G (one added at (0,1))", "formlab's inverse returns 2 G^-1"):
        with monkeypatch.context() as patch:
            faulted, _ = FAULTS[fault](ctx, g, patch)
            witnesses[fault] = {c.id: c.witness for c in fl.anti_automorphism(faulted, ctx)}
    assert witnesses == {
        "non-symmetric G (one added at (0,1))": {
            "form/anti_fixes_generators": {"identity": "G A = A^t G"},
            "form/anti_involutive_and_trace": {"identity": "G^t = G or G^t = -G"},
            "form/anti_multiplicative": None,
        },
        "formlab's inverse returns 2 G^-1": {
            "form/anti_fixes_generators": None,
            "form/anti_involutive_and_trace": {"identity": "G G^-1 = I"},
            "form/anti_multiplicative": {"identity": "G G^-1 = I"},
        },
    }
