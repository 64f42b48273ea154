from fractions import Fraction as F

import pytest

from tdlab.cli import run
from tdlab.matrices import Matrix
from tdlab.scalars import PrimeField, RationalField
from tdlab.tdcore import (
    NotDiagonalizableError,
    SystemContext,
    TdSystem,
    ValidateOptions,
    check_irreducible,
    check_sharp,
    primitive_idempotents,
    validate,
)

from oracles import eigenline_subsets, enumerate_standard_orderings

QQ = RationalField()


def _diag_pair(field=QQ):
    a = Matrix.from_ints(field, [[1, 0], [0, 0]])
    return TdSystem(field, 2, a, a, (field.one, field.zero), (field.one, field.zero))


def test_x1_validates(x1):
    _, ctx = x1
    assert ctx.report.passed()
    assert ctx.report.shape == (1, 1)
    assert ctx.report.sharp is True
    assert {c.id for c in ctx.report.checks} >= {
        "input/dimension",
        "eigenvalues/distinct",
        "diagonalizable/A",
        "idempotents/A",
        "tridiagonal/A_ordering",
        "irreducible",
        "shape",
        "sharp",
    }


def test_x1_idempotents_are_lagrange_products(x1):
    sys, ctx = x1
    e = ctx.e_fam
    assert e[0] == sys.A  # (A - 0I)/(1 - 0)
    assert e[1] == Matrix.identity(QQ, 2) - sys.A
    assert e[0] + e[1] == Matrix.identity(QQ, 2)
    assert (e[0] * e[1]).is_zero()


def test_singleton_system_over_gf13():
    f = PrimeField(13)
    a = Matrix(f, [[f.from_int(5)]])
    astar = Matrix(f, [[f.from_int(7)]])
    sys = TdSystem(f, 1, a, astar, (f.from_int(5),), (f.from_int(7),))
    report = validate(sys)
    assert report.passed()
    assert report.shape == (1,)
    assert report.sharp


def test_reducible_diagonal_pair_rejected():
    sys = _diag_pair()
    report = validate(sys)
    assert report.overall == "fail"
    w = next(c for c in report.checks if c.id == "irreducible").witness["invariant_subspace"]
    assert w is not None and 0 < w.dim < 2
    # re-verify the witness by hand: both operators stabilize it
    for m in (sys.A, sys.Astar):
        for v in w.basis:
            assert w.contains(m.apply(v))


def test_phi_zero_candidate_rejected():
    from tdlab.appshell import gen_leonard_split

    report = gen_leonard_split(QQ, (F(1), F(0)), (F(1), F(0)), (F(0),)).report
    assert report.overall == "fail"
    w = next(c for c in report.checks if c.id == "irreducible").witness["invariant_subspace"]
    assert w is not None
    assert w.contains((F(0), F(1)))


def test_too_many_eigenvalues_rejected():
    a = Matrix.from_ints(QQ, [[1, 0], [0, 0]])
    sys = TdSystem(QQ, 2, a, a, (F(0), F(1), F(2)), (F(0), F(1), F(2)))
    report = validate(sys)
    assert report.checks[0].id == "input/dimension"
    assert report.checks[0].status == "fail"


def test_duplicate_eigenvalues_rejected():
    a = Matrix.from_ints(QQ, [[1, 0], [0, 0]])
    sys = TdSystem(QQ, 2, a, a, (F(1), F(1)), (F(1), F(0)))
    report = validate(sys)
    assert any(c.id == "eigenvalues/distinct" and c.status == "fail" for c in report.checks)


def test_non_diagonalizable_detected():
    nil = Matrix.from_ints(QQ, [[0, 1], [0, 0]])
    with pytest.raises(NotDiagonalizableError):
        primitive_idempotents(nil, (F(0), F(1)))
    sys = TdSystem(QQ, 2, nil, Matrix.identity(QQ, 2), (F(0), F(1)), (F(0), F(1)))
    report = validate(sys)
    assert any(c.id == "diagonalizable/A" and c.status == "fail" for c in report.checks)


def test_repeated_thetas_raise_in_idempotents():
    a = Matrix.from_ints(QQ, [[1, 0], [0, 0]])
    with pytest.raises(ValueError):
        primitive_idempotents(a, (F(1), F(1)))


@pytest.mark.parametrize(
    "shape,expected", [((1, 1), True), ((1, 2, 1), True), ((2, 2), False)]
)
def test_check_sharp(shape, expected):
    assert check_sharp(shape) is expected


def test_exhaustive_gfp_agrees(inst_gf13_d2):
    sys, _ = inst_gf13_d2
    verdict, _, used = check_irreducible(SystemContext(sys), strategy="exhaustive_gfp")
    assert verdict == "irreducible" and used == "exhaustive_gfp"


def test_exhaustive_gfp_finds_witness():
    f = PrimeField(5)
    a = Matrix.from_ints(f, [[1, 0], [0, 0]])
    sys = TdSystem(f, 2, a, a, (f.one, f.zero), (f.one, f.zero))
    verdict, w, _ = check_irreducible(SystemContext(sys), strategy="exhaustive_gfp")
    assert verdict == "reducible"
    assert 0 < w.dim < 2


def test_exhaustive_gfp_rejects_large_spaces():
    f = PrimeField(10007)
    a = Matrix.from_ints(f, [[1, 0], [0, 0]])
    sys = TdSystem(f, 2, a, a, (f.one, f.zero), (f.one, f.zero))
    with pytest.raises(ValueError):
        check_irreducible(SystemContext(sys), strategy="exhaustive_gfp")


def test_assume_strategy_recorded():
    sys = _diag_pair()
    report = validate(sys, ValidateOptions(irreducibility="assume", assume_note="trusted input"))
    irr = next(c for c in report.checks if c.id == "irreducible")
    assert irr.witness["strategy"] == "assume"
    assert irr.status == "pass"
    assert "trusted input" in str(irr.witness)


def test_standard_orderings_x1(x1):
    sys, ctx = x1
    out = enumerate_standard_orderings(sys, ctx.e_fam, ctx.estar_fam)
    assert len(out["A"]) == 2 and len(out["Astar"]) == 2
    assert set(out["A"]) == {(F(1), F(0)), (F(0), F(1))}


def test_standard_orderings_d0():
    f = PrimeField(13)
    a = Matrix(f, [[f.from_int(5)]])
    sys = TdSystem(f, 1, a, a, (f.from_int(5),), (f.from_int(5),))
    ctx = SystemContext(sys)
    assert ctx.report.passed()
    out = enumerate_standard_orderings(sys, ctx.e_fam, ctx.estar_fam)
    assert len(out["A"]) == 1 and len(out["Astar"]) == 1


@pytest.mark.parametrize("fixture", ["inst_d2", "inst_d3"])
def test_standard_orderings_are_exactly_two(fixture, request):
    sys, ctx = request.getfixturevalue(fixture)
    out = enumerate_standard_orderings(sys, ctx.e_fam, ctx.estar_fam)
    assert len(out["A"]) == 2 and len(out["Astar"]) == 2
    assert tuple(sys.thetas) in out["A"]
    assert tuple(reversed(sys.thetas)) in out["A"]


def test_reversed_orderings_revalidate(inst_d2):
    sys, _ = inst_d2
    flipped = TdSystem(
        sys.field,
        sys.n,
        sys.A,
        sys.Astar,
        tuple(reversed(sys.thetas)),
        tuple(reversed(sys.thetas_star)),
    )
    report = validate(flipped)
    assert report.passed()
    assert report.shape == (1, 1, 1)


def test_ordering_enumeration_limited():
    f = PrimeField(10007)
    e = f.from_int
    n = 6
    a = Matrix.identity(f, n)
    sys = TdSystem(f, n, a, a, tuple(e(i) for i in range(6)), tuple(e(i) for i in range(6)))
    with pytest.raises(ValueError):
        enumerate_standard_orderings(sys, None, None)


def test_eigen_subset_needs_line_eigenspaces():
    # identity has a single two-dimensional eigenspace: the eigenline-subset
    # oracle refuses it, and the package no longer takes the strategy name
    ident = Matrix.identity(QQ, 2)
    sys = TdSystem(QQ, 2, ident, ident, (F(1),), (F(1),))
    with pytest.raises(AssertionError):
        eigenline_subsets(sys)
    with pytest.raises(ValueError, match="unknown irreducibility strategy"):
        check_irreducible(SystemContext(sys), strategy="eigen_subset")


def test_norton_needs_a_dual_line():
    # E*_0 is the whole plane, so auto does not run Norton's test and
    # leaves the verdict open
    ident = Matrix.identity(QQ, 2)
    sys = TdSystem(QQ, 2, ident, ident, (F(1),), (F(1),))
    verdict, witness, used = check_irreducible(SystemContext(sys))
    assert (verdict, used) == ("inconclusive", "auto")
    assert witness == {"note": "burnside insufficient and E*_0 is not a line"}
    with pytest.raises(ValueError, match="unknown irreducibility strategy"):
        check_irreducible(SystemContext(sys), strategy="norton")


def test_retired_strategies_are_unknown(x1, capsys):
    # x1's eigenspaces are lines, so only the name is refused: `auto` runs
    # Norton's test whenever E*_0 is a line and is inconclusive elsewhere;
    # the enumeration of eigenline subsets is a test oracle
    # (tests/oracles.py), and fuzz takes no strategy at all
    sys, _ = x1
    for name in ("norton", "eigen_subset", "burnside"):
        with pytest.raises(ValueError, match="unknown irreducibility strategy"):
            check_irreducible(SystemContext(sys), strategy=name)
    with pytest.raises(SystemExit) as exc:
        run(["fuzz", "--trials", "1", "--seed", "1", "--irreducibility", "eigen_subset"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --irreducibility eigen_subset" in capsys.readouterr().err


def test_inconclusive_when_no_complete_strategy_applies():
    # a 3-space pair with a plane eigenspace: E*_0 is not a line
    a = Matrix.from_ints(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    sys = TdSystem(QQ, 3, a, a, (F(1), F(0)), (F(1), F(0)))
    report = validate(sys)
    assert report.overall == "inconclusive"
    irr = next(c for c in report.checks if c.id == "irreducible")
    assert irr.status == "inconclusive"
    assert irr.witness == {"strategy": "auto", "detail": {"note": "burnside insufficient and E*_0 is not a line"}}
