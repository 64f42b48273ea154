from fractions import Fraction as F

from tdlab.conjlab import (
    SubalgebraBasis,
    corner_algebra,
    corner_algebra_checks,
    field_check,
    generate_subalgebras,
    pa_conditions,
)
from tdlab.matrices import Matrix
from tdlab.scalars import PrimeField, RationalField
from tdlab.tdcore import SystemContext, TdSystem

QQ = RationalField()


def test_x1_subalgebra_dimensions(x1):
    sys, _ = x1
    algs = generate_subalgebras(sys, SystemContext(sys).closure)
    assert algs["D"].dim == 2
    assert algs["Dstar"].dim == 2
    assert algs["T"].dim == 4


def test_subalgebra_dimension_is_diameter_plus_one(inst_d3):
    sys, _ = inst_d3
    algs = generate_subalgebras(sys, SystemContext(sys).closure)
    assert algs["D"].dim == sys.d + 1
    assert algs["Dstar"].dim == sys.d + 1


def test_x1_corner_checks(x1):
    sys, ctx = x1
    algs = generate_subalgebras(sys, SystemContext(sys).closure)
    corner, checks = corner_algebra_checks(
        sys, algs["T"], algs["D"], algs["Dstar"],
        ctx.estar_fam[0], ctx.e_fam[0],
    )
    assert corner.dim == 1
    assert all(c.status == "pass" for c in checks), checks


def test_d0_everything_trivial():
    f = PrimeField(13)
    a = Matrix(f, [[f.from_int(5)]])
    astar = Matrix(f, [[f.from_int(7)]])
    sys = TdSystem(f, 1, a, astar, (f.from_int(5),), (f.from_int(7),))
    ctx = SystemContext(sys)
    assert ctx.report.passed()
    algs = generate_subalgebras(sys, ctx.closure)
    assert algs["D"].dim == algs["Dstar"].dim == algs["T"].dim == 1
    corner, checks = corner_algebra_checks(
        sys, algs["T"], algs["D"], algs["Dstar"],
        ctx.estar_fam[0], ctx.e_fam[0],
    )
    assert corner.dim == 1
    verdict, fchecks = field_check(f, corner, ctx.estar_fam[0], 1)
    assert verdict == "field"


def test_x1_field_check(x1):
    sys, ctx = x1
    algs = generate_subalgebras(sys, SystemContext(sys).closure)
    corner = corner_algebra(sys, algs["T"], ctx.estar_fam[0])
    verdict, checks = field_check(QQ, corner, ctx.estar_fam[0], 1)
    assert verdict == "field"
    assert any(c.id == "conj/corner_dim_matches_rank" and c.status == "pass" for c in checks)


def test_chain_monotonicity(inst_d3):
    sys, ctx = inst_d3
    algs = generate_subalgebras(sys, SystemContext(sys).closure)
    for depth in (1, 2, 3):
        _, checks = corner_algebra_checks(
            sys, algs["T"], algs["D"], algs["Dstar"],
            ctx.estar_fam[0], ctx.e_fam[0], depth=depth,
        )
        chain = next(c for c in checks if c.id == "conj/chain_equalities")
        assert chain.status == "pass", (depth, chain)


def _artificial_corner(field, second):
    ident = Matrix.identity(field, 2)
    return SubalgebraBasis("corner", [ident, second], 2)


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
    corner = SubalgebraBasis("corner", [Matrix.identity(f, 2), a, b, a * b], 4)
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
