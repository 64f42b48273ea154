from fractions import Fraction as F

import pytest
from test_golden import KRAW1221_Q, KRAW_GF, KRAW_Q, gf3_pair_without_a_line

from tdlab import conjlab
from tdlab.appshell import conjectures_stage, system_from_document
from tdlab.conjlab import (
    corner_algebra,
    corner_algebra_checks,
    field_check,
    generate_subalgebras,
    pa_conditions,
)
from tdlab.matrices import Matrix, Subspace, rank
from tdlab.rng import SplitMix64
from tdlab.scalars import PrimeField, RationalField
from tdlab.tdcore import InvariantViolation, SystemContext, TdSystem, ValidateOptions
from test_spin import GOLDEN_SYSTEMS, kraw

QQ = RationalField()


def test_x1_subalgebra_dimensions(x1):
    sys, _ = x1
    ctx = SystemContext(sys)
    algs = generate_subalgebras(ctx)
    assert len(algs["D"]) == 2
    assert len(algs["Dstar"]) == 2
    assert algs["T"] is None and len(ctx.closure) == 4  # all of Mat_2


def test_subalgebra_dimension_is_diameter_plus_one(inst_d3):
    sys, _ = inst_d3
    algs = generate_subalgebras(SystemContext(sys))
    assert len(algs["D"]) == sys.d + 1
    assert len(algs["Dstar"]) == sys.d + 1


def test_x1_corner_checks(x1):
    sys, ctx = x1
    corner, checks = corner_algebra_checks(ctx, generate_subalgebras(ctx))
    assert len(corner) == 1
    assert all(c.status == "pass" for c in checks), checks


def test_d0_everything_trivial():
    f = PrimeField(13)
    a = Matrix(f, [[f.from_int(5)]])
    astar = Matrix(f, [[f.from_int(7)]])
    sys = TdSystem(f, 1, a, astar, (f.from_int(5),), (f.from_int(7),))
    ctx = SystemContext(sys)
    assert ctx.report.passed()
    algs = generate_subalgebras(ctx)
    assert len(algs["D"]) == len(algs["Dstar"]) == 1
    assert algs["T"] is None and len(ctx.closure) == 1  # all of Mat_1
    corner, checks = corner_algebra_checks(ctx, algs)
    assert len(corner) == 1
    verdict, fchecks = field_check(f, corner, ctx.estar_fam[0], 1)
    assert verdict == "field"


def _n16_pair():
    a, astar, thetas = kraw.krawtchouk_pair((2, 2, 2, 2), (2, 3, 5, 7))
    return system_from_document(kraw.system_document(a, astar, thetas, kraw.PRIME))[0]


@pytest.mark.parametrize("name", [*sorted(GOLDEN_SYSTEMS), "n16"])
def test_corner_outer_products_match_the_product_form(name):
    sys = _n16_pair() if name == "n16" else GOLDEN_SYSTEMS[name]()
    ctx = SystemContext(sys)
    t_basis = ctx.closure
    assert len(t_basis) == sys.n**2  # the outer-product form applies
    # every idempotent of both families (ranks 1 and 2) cuts the algebra; on
    # the n=16 pair one of rank 1 and one of rank 4 keep the products cheap
    cuts = [*ctx.estar_fam, *ctx.e_fam] if name != "n16" else [ctx.estar_fam[0], ctx.e_fam[1]]
    for e in cuts:
        products = conjlab._span([e * x * e for x in t_basis])
        corner = corner_algebra(ctx, e)
        assert len(corner) == len(products) == rank(e) ** 2
        assert corner == products


def test_x1_field_check(x1):
    sys, ctx = x1
    corner = corner_algebra(ctx, ctx.estar_fam[0])
    verdict, checks = field_check(QQ, corner, ctx.estar_fam[0], 1)
    assert verdict == "field"
    assert any(c.id == "conj/corner_dim_matches_rank" and c.status == "pass" for c in checks)


def test_chain_monotonicity():
    # the scan's bound rests on this: from line to line, each uncapped side
    # of the chain spans at least what it spanned before; on the GF(3) pair
    # the left side grows until line 2, and the chain repeats from line 4
    ctx = _chain_context("gf3_assume", None)
    field, n = ctx.sys.field, ctx.sys.n
    algs = generate_subalgebras(ctx)
    estar0 = ctx.estar_fam[0]
    prefixes = [_chain_prefixes(field, n, algs["D"], algs["Dstar"], estar0, line) for line in range(6)]
    for (left, right), (next_left, next_right) in zip(prefixes, prefixes[1:]):
        assert all(next_left.contains(v) for v in left.basis)
        assert all(next_right.contains(v) for v in right.basis)
    assert [(left.dim, right.dim) for left, right in prefixes] == [(2, 2), (3, 2), (4, 2), (4, 2), (4, 2), (4, 2)]


def _span(field, n, mats):
    return Subspace.from_vectors(field, n * n, [m.vec() for m in mats])


def _times_by_definition(field, n, mats, factors):
    space = _span(field, n, [x * y for x in mats for y in factors])
    return [Matrix.from_vec(field, row, n, n) for row in space.basis]


def _chain_prefixes(field, n, d_mats, dstar_mats, estar0, line):
    # the uncapped sides of a line, built from scratch as n x n spans
    left, right = [estar0], [estar0]
    for k in range(line + 1):
        left = _times_by_definition(field, n, left, d_mats if k % 2 == 0 else dstar_mats)
        if k % 2 == 0:
            right = _times_by_definition(field, n, _times_by_definition(field, n, right, d_mats), [estar0])
    return _span(field, n, left), _span(field, n, right)


def _chain_line(field, n, d_mats, dstar_mats, estar0, e0, line):
    # the line-by-line definition: every line's two words built from scratch
    left, right = (
        [Matrix.from_vec(field, v, n, n) for v in s.basis]
        for s in _chain_prefixes(field, n, d_mats, dstar_mats, estar0, line)
    )
    if line % 2:
        left, right = (_times_by_definition(field, n, m, [e0]) for m in (left, right))
    else:
        left = _times_by_definition(field, n, left, [estar0])
    return _span(field, n, left), _span(field, n, right)


def _chain_by_definition(field, n, d_mats, dstar_mats, estar0, e0, last):
    for line in range(1, last + 1):
        lhs, rhs = _chain_line(field, n, d_mats, dstar_mats, estar0, e0, line)
        if lhs != rhs:
            return {"line": line, "lhs_dim": lhs.dim, "rhs_dim": rhs.dim}
    return None


def _first_failing_line(field, n, case):
    # the scan against the definition on every line it compares, and on
    # lines past the one at which it stops, at least up to line 8
    check = conjlab._chain_check(*case)
    failed = check.status == "fail"
    last = check.witness["line"] if failed else check.witness["lines"]
    first = _chain_by_definition(field, n, *case, max(8, last + 2))
    assert (check.witness if failed else None) == first, case
    return first and first["line"]


def _chain_inputs(ctx):
    assert ctx.report.passed()  # so that a Norton-proved Mat_n is not solved for
    algs = generate_subalgebras(ctx)
    return algs["D"], algs["Dstar"]


def _kraw_context(doc):
    sys, _ = system_from_document(doc)
    return SystemContext(sys)


def _chain_context(name, x1):
    if name == "x1":
        return x1[1]
    if name == "n16":
        return SystemContext(_n16_pair())
    if name == "gf3_assume":
        return SystemContext(gf3_pair_without_a_line(), ValidateOptions(irreducibility="assume"))
    return _kraw_context({"KRAW_Q": KRAW_Q, "KRAW_GF": KRAW_GF, "KRAW1221_Q": KRAW1221_Q}[name])


# the first failing line of each start/cap case, where every start and cap is
# compared: (E*_i, E_j) for all i, j, then (E_i, E*_j); on the GF(3) pair the
# start E*_0 has rank 2
ALL_CASES_FAILING_LINES = {
    "KRAW_Q": [None, 1, None, None, 1, None, None, 1, None, None, 3, None, 2, 2, 2, None, 3, None],
    "KRAW_GF": [None, 1, None, None, 1, None, None, 1, None, None, 3, None, 2, 2, 2, None, 3, None],
    "gf3_assume": [None, None, None, None, 2, 2, 2, 2],
}


@pytest.mark.parametrize("name", ["x1", "KRAW_Q", "KRAW_GF", "KRAW1221_Q", "n16", "gf3_assume"])
def test_chain_matches_line_by_line_definition(name, x1):
    ctx = _chain_context(name, x1)
    field, n = ctx.sys.field, ctx.sys.n
    d_mats, dstar_mats = _chain_inputs(ctx)
    cases = [(d_mats, dstar_mats, ctx.estar_fam[0], ctx.e_fam[0])]
    if name in ALL_CASES_FAILING_LINES:
        # other idempotents as start and cap, so that the witnesses of
        # failing lines are compared too
        cases = [(d_mats, dstar_mats, s, c) for s in ctx.estar_fam for c in ctx.e_fam]
        cases += [(d_mats, dstar_mats, s, c) for s in ctx.e_fam for c in ctx.estar_fam]
    failing_lines = [_first_failing_line(field, n, case) for case in cases]
    assert failing_lines == ALL_CASES_FAILING_LINES.get(name, [None])


def test_chain_stop_rule_on_arbitrary_factors():
    # the stop rule needs no algebra structure: on arbitrary factor sets
    # over GF(3) it agrees with the definition
    f = PrimeField(3)
    rng = SplitMix64(47)
    ident = Matrix.identity(f, 2)

    def rand():
        return Matrix.from_ints(f, [[rng.randrange(3) for _ in range(2)] for _ in range(2)])

    # both prefixes are unchanged from line 0 to line 1, yet line 2 fails:
    # stopping on one repeated line would miss it
    m = Matrix.from_ints(f, [[0, 1], [1, 1]])
    cases = [([ident, m], [ident, m], Matrix.from_ints(f, [[0, 1], [2, 1]]), Matrix.from_ints(f, [[0, 1], [0, 2]]))]
    cases += [([ident, rand()], [ident, rand()], rand(), rand()) for _ in range(60)]
    assert {None, 1, 2} <= {_first_failing_line(f, 2, case) for case in cases}


# the line at which the chain first repeats, where a pass stops
CHAIN_STOP_LINES = {
    "leonard6_q": 2,
    "leonard6_gf": 2,
    "KRAW_Q": 3,
    "KRAW_GF": 3,
    "kraw1331": 4,
    "gf3_assume": 4,
    "n16": 5,
}


@pytest.mark.parametrize("name", sorted(CHAIN_STOP_LINES))
def test_chain_pass_names_the_line_it_stops_at(name):
    if name.startswith("leonard6"):
        ctx = SystemContext(GOLDEN_SYSTEMS[name]())
    elif name == "kraw1331":
        ctx = _kraw_context(kraw.krawtchouk_document((1, 3, 3, 1), (2, 3, 5)))
    else:
        ctx = _chain_context(name, None)
    _, checks = corner_algebra_checks(ctx, generate_subalgebras(ctx))
    chain = next(c for c in checks if c.id == "conj/chain_equalities")
    assert (chain.status, chain.witness) == ("pass", {"lines": CHAIN_STOP_LINES[name]})


def test_a_chain_that_never_repeats_is_a_subalgebras_fail(monkeypatch):
    # with products by a cap spanning nothing, both sides of every line are
    # zero, while each other product spans a new line: the prefixes never
    # repeat, and the scan stops at its bound, line 4 rho_0 n + 2
    ctx = _kraw_context(KRAW_Q)
    field, n = ctx.sys.field, ctx.sys.n
    scales = iter(range(1, 100))

    def never_repeating(basis, factors):
        if len(factors) == 1:
            return []
        return [Matrix.identity(field, n).scale(field.from_int(next(scales)))]

    monkeypatch.setattr(conjlab, "_times", never_repeating)
    d_mats, dstar_mats = _chain_inputs(ctx)
    with pytest.raises(InvariantViolation, match="do not repeat by line 18$"):
        conjlab._chain_check(d_mats, dstar_mats, ctx.estar_fam[0], ctx.e_fam[0])
    checks, extra = conjectures_stage(ctx)
    failed = [(c.id, c.witness) for c in checks if c.status == "fail"]
    assert failed == [("conj/subalgebras", {"error": "the chain prefixes do not repeat by line 18"})]
    assert extra == {}


@pytest.mark.parametrize("name", ["KRAW_Q", "KRAW_GF", "n16", "gf3_assume"])
def test_chain_products_act_on_rho0_rows(name, matrix_products):
    # every span is one of rho_0 x n row blocks, so each product's left
    # operand has rho_0 rows: 1 on the sharp pairs, 2 (not n = 4) on the
    # GF(3) pair
    ctx = _chain_context(name, None)
    d_mats, dstar_mats = _chain_inputs(ctx)
    estar0, e0, rho0 = ctx.estar_fam[0], ctx.e_fam[0], ctx.estar_fam.ranks[0]
    matrix_products.clear()
    assert conjlab._chain_check(d_mats, dstar_mats, estar0, e0).status == "pass"
    assert {rows for rows, _ in matrix_products} == {rho0} == ({2} if name == "gf3_assume" else {1})


def test_a_proper_algebra_not_closed_is_a_subalgebras_fail():
    ctx = _chain_context("gf3_assume", None)
    sys = ctx.sys
    ctx.closure = [Matrix.identity(sys.field, sys.n), sys.A, sys.Astar]
    checks, extra = conjectures_stage(ctx)
    failed = [c for c in checks if c.status == "fail"]
    assert [(c.id, c.witness) for c in failed] == [
        ("conj/subalgebras", {"error": "algebra basis is not multiplication-closed"})
    ]
    assert extra == {}


def _artificial_corner(field, second):
    return [Matrix.identity(field, 2), second]


def test_field_check_exhaustive_finds_zero_divisor():
    # span{I, J} with J^2 = I over GF(3): (I+J)(I-J) = 0
    f = PrimeField(3)
    j = Matrix.from_ints(f, [[0, 1], [1, 0]])
    corner = _artificial_corner(f, j)
    verdict, checks = field_check(f, corner, Matrix.identity(f, 2), 2)
    assert verdict == "not_field"
    witness = next(c for c in checks if c.id == "conj/corner_field").witness
    assert witness["zero_divisor_coeffs"] in ([1, 1], [1, 2], [2, 1], [2, 2])


def test_field_check_exhaustive_confirms_field():
    # span{I, J} with J^2 = -I over GF(3) is the nine-element field
    f = PrimeField(3)
    j = Matrix.from_ints(f, [[0, 1], [-1, 0]])
    corner = _artificial_corner(f, j)
    verdict, _ = field_check(f, corner, Matrix.identity(f, 2), 2)
    assert verdict == "field"


def test_field_check_rational_quadratic_irreducible():
    # generator M with M^2 = 2I: minimal polynomial x^2 - 2, irreducible
    m = Matrix.from_ints(QQ, [[0, 2], [1, 0]])
    corner = _artificial_corner(QQ, m)
    verdict, _ = field_check(QQ, corner, Matrix.identity(QQ, 2), 2)
    assert verdict == "field"


def test_field_check_rational_quadratic_split():
    # M^2 = I splits: (x-1)(x+1)
    m = Matrix.from_ints(QQ, [[0, 1], [1, 0]])
    corner = _artificial_corner(QQ, m)
    verdict, _ = field_check(QQ, corner, Matrix.identity(QQ, 2), 2)
    assert verdict == "not_field"


def test_field_check_noncommutative_rejected():
    f = PrimeField(3)
    a = Matrix.from_ints(f, [[0, 1], [0, 0]])
    b = Matrix.from_ints(f, [[0, 0], [1, 0]])
    corner = [Matrix.identity(f, 2), a, b, a * b]
    verdict, _ = field_check(f, corner, Matrix.identity(f, 2), 4)
    assert verdict == "not_field"


def test_pa_conditions_x1_pass(x1):
    checks = pa_conditions(QQ, (F(1), F(0)), (F(1), F(0)), (F(1), F(1)))
    assert all(c.status == "pass" for c in checks)


def test_pa_conditions_zeta_d_zero():
    checks = pa_conditions(QQ, (F(1), F(0)), (F(1), F(0)), (F(1), F(0)))
    norm = next(c for c in checks if c.id == "conj/pa_normalization")
    assert norm.status == "fail"
    assert any(p["clause"] == "zeta_d" for p in norm.witness)


def test_pa_conditions_duplicate_theta():
    checks = pa_conditions(QQ, (F(1), F(1)), (F(1), F(0)), (F(1), F(1)))
    assert next(c for c in checks if c.id == "conj/pa_distinct").status == "fail"


def test_pa_conditions_zeta0_not_one():
    checks = pa_conditions(QQ, (F(1), F(0)), (F(1), F(0)), (F(2), F(1)))
    norm = next(c for c in checks if c.id == "conj/pa_normalization")
    assert norm.status == "fail"


def test_pa_conditions_ratio_clause():
    good = pa_conditions(
        QQ,
        tuple(F(2) ** i for i in range(4)),
        tuple(F(3) * F(2) ** i for i in range(4)),
        (F(1), F(1), F(1), F(1)),
    )
    assert next(c for c in good if c.id == "conj/pa_ratios").status == "pass"
    bad = pa_conditions(
        QQ,
        (F(1), F(2), F(4), F(8)),
        (F(0), F(1), F(2), F(5)),
        (F(1), F(1), F(1), F(1)),
    )
    assert next(c for c in bad if c.id == "conj/pa_ratios").status == "fail"


def test_pa_conditions_vacuous_ratio_below_d3(x1):
    checks = pa_conditions(QQ, (F(1), F(0)), (F(1), F(0)), (F(1), F(5)))
    assert next(c for c in checks if c.id == "conj/pa_ratios").status == "pass"


def test_emitted_arrays_always_pass(inst_d2, inst_d3, inst_gf13_d2):
    from tdlab.splitparam import split_sequence

    for sys, ctx in (inst_d2, inst_d3, inst_gf13_d2):
        zetas = split_sequence(ctx)
        checks = pa_conditions(sys.field, sys.thetas, sys.thetas_star, zetas)
        assert all(c.status == "pass" for c in checks)
