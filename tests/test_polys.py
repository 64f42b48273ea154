from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from tdlab.matrices import Matrix
from tdlab.polys import Poly, TauEtaFamily, char_poly, eta_expansion_check, poly_gcd
from tdlab.rng import SplitMix64
from tdlab.scalars import PrimeField, RationalField

from oracles import at_matrix, trace

QQ = RationalField()


def P(*coeffs):
    return Poly(QQ, [F(c) for c in coeffs])


def test_mul_example():
    assert P(-1, 1) * P(1, 1) == P(-1, 0, 1)


def test_eval_example():
    assert P(-1, 0, 1)(F(2)) == F(3)


def test_add_zero():
    p = P(3, 0, 2)
    assert p + Poly.zero(QQ) == p


def test_degrees():
    assert Poly.zero(QQ).degree == -1
    assert P(5).degree == 0
    assert (P(0, 1) * P(0, 1)).degree == 2


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
)
def test_mul_degree_adds(a, b):
    pa, pb = P(*a), P(*b)
    if pa.is_zero() or pb.is_zero():
        assert (pa * pb).is_zero()
    else:
        assert (pa * pb).degree == pa.degree + pb.degree


def test_divmod_and_gcd():
    a = P(-1, 0, 1)  # x^2 - 1
    b = P(-1, 1)  # x - 1
    q, r = a.divmod(b)
    assert r.is_zero() and q == P(1, 1)
    assert poly_gcd(a, b) == b.monic()
    assert poly_gcd(P(1), P(0, 1)).degree == 0


def test_tau_eta_examples():
    fam = TauEtaFamily(QQ, (F(1), F(0)))
    assert fam.tau(0) == Poly.one(QQ)
    assert fam.tau(1) == P(-1, 1)
    assert fam.eta(1) == P(0, 1)
    assert fam.eta(0) == Poly.one(QQ)


def test_tau_eta_monic_and_vanishing_pattern():
    thetas = tuple(F(v) for v in (2, -1, 5, 7, 0))
    fam = TauEtaFamily(QQ, thetas)
    d = 4
    for i in range(d + 1):
        tau, eta = fam.tau(i), fam.eta(i)
        assert tau.coeffs[-1] == QQ.one
        assert tau.degree == i and eta.degree == i
        for j, t in enumerate(thetas):
            assert (tau(t) == 0) == (j < i)
            assert (eta(t) == 0) == (j > d - i)
        assert fam.tau_at(i, F(9)) == tau(F(9))
        assert fam.eta_at(i, F(9)) == eta(F(9))


def test_tau_eta_rejects_duplicates():
    with pytest.raises(ValueError):
        TauEtaFamily(QQ, (F(1), F(1)))


def test_eval_at_matrix_square():
    m = Matrix.from_ints(QQ, [[1, 2], [3, 4]])
    assert at_matrix(P(0, 0, 1), m) == m * m
    assert at_matrix(P(1), m) == Matrix.identity(QQ, 2)


def test_eval_tau_at_x1_operator():
    a = Matrix.from_ints(QQ, [[1, 0], [1, 0]])
    fam = TauEtaFamily(QQ, (F(1), F(0)))
    assert at_matrix(fam.tau(1), a) == Matrix.from_ints(QQ, [[0, 0], [1, -1]])


def test_eta_expansion_small_cases():
    ok, _ = eta_expansion_check(QQ, (F(1), F(0)), (F(1), F(0)))
    assert ok
    ok, _ = eta_expansion_check(QQ, (F(5),), (F(7),))
    assert ok


def test_eta_expansion_powers_of_two():
    # oracle: expand both sides independently with plain polynomial algebra
    thetas = tuple(F(2) ** i for i in range(5))
    # eta_4 = (x - t4)(x - t3)(x - t2)(x - t1)
    full = Poly.one(QQ)
    for t in thetas[1:]:
        full = full * Poly(QQ, [-t, F(1)])
    rhs = Poly.zero(QQ)
    for i in range(5):
        coeff = F(1)
        for t in thetas[i + 1 :]:
            coeff *= thetas[0] - t
        term = Poly.one(QQ)
        for t in thetas[:i]:
            term = term * Poly(QQ, [-t, F(1)])
        rhs = rhs + term.scale(coeff)
    assert full == rhs
    ok, witness = eta_expansion_check(QQ, thetas, thetas)
    assert ok, witness


def test_eta_expansion_over_gf():
    f = PrimeField(13)
    thetas = tuple(f.from_int(v) for v in (1, 2, 4, 8, 3))
    ok, witness = eta_expansion_check(f, thetas, thetas)
    assert ok, witness


def test_char_poly_diagonal():
    m = Matrix.from_ints(QQ, [[2, 0], [0, 5]])
    assert char_poly(m) == P(-2, 1) * P(-5, 1)


def test_char_poly_companion():
    # companion matrix of x^3 - 2x - 1
    m = Matrix.from_ints(QQ, [[0, 0, 1], [1, 0, 2], [0, 1, 0]])
    assert char_poly(m) == P(-1, -2, 0, 1)


def test_char_poly_trace_det_relation():
    m = Matrix.from_ints(QQ, [[1, 2], [3, 4]])
    p = char_poly(m)
    assert p.coeffs[1] == -trace(m)
    assert p.coeffs[0] == F(4) - F(6)


def _char_poly_by_cofactors(m):
    # independent oracle: det(xI - m) by cofactor expansion along the first
    # row, with polynomial entries; factorial in the size
    field = m.field
    x = Poly(field, [field.zero, field.one])
    grid = [
        [x - Poly(field, [a]) if i == j else Poly(field, [-a]) for j, a in enumerate(row)]
        for i, row in enumerate(m.data)
    ]
    return _poly_det(field, grid)


def _poly_det(field, grid):
    if len(grid) == 1:
        return grid[0][0]
    acc = Poly.zero(field)
    sign = field.one
    for j in range(len(grid)):
        minor = [row[:j] + row[j + 1 :] for row in grid[1:]]
        acc = acc + (grid[0][j] * _poly_det(field, minor)).scale(sign)
        sign = -sign
    return acc


@pytest.mark.parametrize("field", [PrimeField(7), QQ, PrimeField(10007)], ids=["GF7", "Q", "GF10007"])
def test_char_poly_matches_cofactor_expansion(field):
    # sparse entries make the Hessenberg reduction swap rows and skip
    # columns that are already clear
    rng = SplitMix64(41)
    for n in range(1, 9):
        for _ in range(3 if n < 8 else 1):
            rows = [
                [field.from_int(rng.randint(-6, 6)) if rng.randrange(3) else field.zero for _ in range(n)]
                for _ in range(n)
            ]
            m = Matrix(field, rows)
            assert char_poly(m) == _char_poly_by_cofactors(m)
