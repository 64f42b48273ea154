from fractions import Fraction as F
from itertools import accumulate, permutations

import pytest

from tdlab.matrices import (
    Matrix,
    MatrixError,
    SpanBuilder,
    Subspace,
    algebra_closure,
    assert_multiplication_closed,
    det,
    direct_sums,
    image,
    inverse,
    kernel,
    rank,
    rref,
    solve,
    sum_and_meet,
)
from tdlab.rng import SplitMix64
from tdlab.scalars import FieldError, FpElement, PrimeField, RationalField

from oracles import full_subspace, intertwiner_matrices, intertwiner_space, trace

QQ = RationalField()


def M(rows, field=QQ):
    return Matrix.from_ints(field, rows)


def _random_matrix(field, rng, r, c):
    return Matrix(field, [[field.from_int(rng.randint(-9, 9)) for _ in range(c)] for _ in range(r)])


def test_trace_identity():
    assert trace(Matrix.identity(QQ, 3)) == F(3)


def test_mul_identity():
    a = M([[1, 2], [3, 4]])
    assert a * Matrix.identity(QQ, 2) == a


def test_trace_cyclic_on_random_pairs():
    rng = SplitMix64(11)
    for _ in range(20):
        x = _random_matrix(QQ, rng, 4, 4)
        y = _random_matrix(QQ, rng, 4, 4)
        assert trace(x * y) == trace(y * x)


def test_shape_and_field_mismatch():
    with pytest.raises(MatrixError):
        M([[1, 2]]) * M([[1, 2]])
    with pytest.raises(FieldError):
        M([[1]]) + M([[1]], PrimeField(7))
    with pytest.raises(FieldError):
        M([[1]], PrimeField(7)) * M([[1]], PrimeField(11))
    with pytest.raises(FieldError):
        M([[1]], PrimeField(7)) + M([[1]], PrimeField(11))
    eleven = (PrimeField(11).from_int(3),)
    with pytest.raises(FieldError):
        M([[1]], PrimeField(7)).apply(eleven)
    with pytest.raises(FieldError):
        SpanBuilder(PrimeField(7), 1).add(eleven)
    with pytest.raises(FieldError):
        full_subspace(PrimeField(7), 1).contains(eleven)
    seven = (PrimeField(7).from_int(1), PrimeField(7).from_int(2))
    with pytest.raises(FieldError):
        M([[1, 2]]).apply(seven)
    with pytest.raises(FieldError):
        SpanBuilder(QQ, 2).add(seven)
    with pytest.raises(FieldError):
        full_subspace(QQ, 2).contains(seven)


def test_rref_example():
    r, rk, pivots = rref(M([[2, 4], [1, 2]]))
    assert r == M([[1, 2], [0, 0]])
    assert rk == 1 and pivots == [0]


def test_rref_identity_and_idempotence():
    ident = Matrix.identity(QQ, 4)
    r, rk, pivots = rref(ident)
    assert r == ident and rk == 4 and pivots == [0, 1, 2, 3]
    rng = SplitMix64(3)
    for _ in range(10):
        m = _random_matrix(QQ, rng, 4, 5)
        r, _, _ = rref(m)
        assert rref(r)[0] == r


def test_rank_equals_transpose_rank():
    rng = SplitMix64(17)
    for _ in range(15):
        m = _random_matrix(QQ, rng, 5, 3)
        assert rank(m) == rank(m.transpose())


def test_kernel_examples():
    assert kernel(Matrix.zeros(QQ, 2, 2)).is_full()
    assert kernel(Matrix.identity(QQ, 3)).is_zero()
    k = kernel(M([[1, -1], [0, 0]]))
    assert k == Subspace.from_vectors(QQ, 2, [(F(1), F(1))])


def test_kernel_dimension_theorem():
    rng = SplitMix64(23)
    for _ in range(15):
        m = _random_matrix(QQ, rng, 4, 6)
        assert kernel(m).dim + rank(m) == 6
        for row in kernel(m).basis:
            assert all(v == 0 for v in m.apply(row))


def test_subspace_ops():
    e0 = Subspace.from_vectors(QQ, 2, [(F(1), F(0))])
    e1 = Subspace.from_vectors(QQ, 2, [(F(0), F(1))])
    assert sum_and_meet(e0, e1)[0].is_full()
    assert sum_and_meet(e0, e1)[1].is_zero()
    assert sum_and_meet(e0, e0)[1] == e0
    with pytest.raises(MatrixError):
        sum_and_meet(e0, Subspace.from_vectors(QQ, 3, [(F(1), F(0), F(0))]))
    # the ambient check comes before the shortcut for a zero operand
    with pytest.raises(MatrixError):
        sum_and_meet(e0, Subspace.zero(QQ, 3))
    with pytest.raises(MatrixError):
        sum_and_meet(Subspace.zero(QQ, 2), Subspace.zero(PrimeField(13), 2))


@pytest.mark.parametrize("field", [QQ, PrimeField(13)])
def test_sum_and_meet_with_a_zero_operand(field):
    zero = Subspace.zero(field, 3)
    s = Subspace.from_vectors(field, 3, [(field.one, field.one, field.zero)])
    for a, b in ((zero, s), (s, zero)):
        assert sum_and_meet(a, b) == (s, zero)
    assert sum_and_meet(zero, zero) == (zero, zero)


def _meet_by_annihilators(s, t):
    """S ∩ T as (S^⊥ + T^⊥)^⊥, with ⊥ the right kernel under the dot product."""
    field, n = s.field, s.ambient

    def perp(x):
        return kernel(Matrix(field, x.basis or [[field.zero] * n])).basis

    perps = perp(s) + perp(t)
    return kernel(Matrix(field, perps)) if perps else full_subspace(field, n)


@pytest.mark.parametrize("field", [QQ, PrimeField(13)])
def test_sum_and_meet_with_a_full_or_zero_operand_matches_two_eliminations(field):
    rng = SplitMix64(37)
    full, zero = full_subspace(field, 4), Subspace.zero(field, 4)
    others = [full, zero] + [
        Subspace.from_vectors(field, 4, _random_matrix(field, rng, k, 4).data) for k in (1, 2, 3)
    ]
    for bound in (full, zero):
        for other in others:
            for s, t in ((bound, other), (other, bound)):
                total = Subspace.from_vectors(field, 4, s.basis + t.basis)
                assert sum_and_meet(s, t) == (total, _meet_by_annihilators(s, t))


def _direct_chain(field, rng, n):
    """Subspaces spanned by consecutive runs, some empty, of the rows of a
    random invertible matrix; the last row may be left out, so the chain need
    not fill the space."""
    while True:
        m = _random_matrix(field, rng, n, n)
        if rank(m) == n:
            break
    cuts = sorted(rng.randint(0, n) for _ in range(3))
    rows = m.data[: n - rng.randint(0, 1)]
    return [Subspace.from_vectors(field, n, rows[a:b]) for a, b in zip([0] + cuts, cuts + [len(rows)])]


@pytest.mark.parametrize("field", [QQ, PrimeField(13)])
def test_direct_sums_equal_the_sum_and_meet_fold(field):
    rng = SplitMix64(41)
    for _ in range(20):
        chain = _direct_chain(field, rng, 5)
        fold = list(accumulate(chain, lambda s, t: sum_and_meet(s, t)[0]))
        assert list(direct_sums(chain)) == fold
        assert all(sum_and_meet(s, t)[1].is_zero() for s, t in zip(fold, chain[1:]))


@pytest.mark.parametrize("field", [QQ, PrimeField(13)])
def test_direct_sums_raise_at_the_first_summand_that_meets_the_earlier_ones(field):
    e = Matrix.identity(field, 4).data

    def span(*vectors):
        return Subspace.from_vectors(field, 4, vectors)

    e01 = tuple(a + b for a, b in zip(e[0], e[1]))
    sums = direct_sums([span(e[0]), span(e[1]), span(e01, e[3]), span(e[2])])
    assert [next(sums), next(sums)] == [span(e[0]), span(e[0], e[1])]
    with pytest.raises(MatrixError, match="summand 2 meets"):
        next(sums)
    # the summand's first basis vector e0 raises the dimension, its second does not
    with pytest.raises(MatrixError, match="summand 1 meets"):
        list(direct_sums([span(e[1]), span(e[0], e[1])]))
    with pytest.raises(MatrixError, match="different ambient"):
        list(direct_sums([span(e[0]), Subspace.zero(field, 3)]))


def test_modular_law_on_random_subspaces():
    rng = SplitMix64(29)
    for _ in range(20):
        s = Subspace.from_vectors(QQ, 5, [_random_matrix(QQ, rng, 1, 5).data[0] for _ in range(2)])
        t = Subspace.from_vectors(QQ, 5, [_random_matrix(QQ, rng, 1, 5).data[0] for _ in range(3)])
        total, meet = sum_and_meet(s, t)
        assert s.dim + t.dim == total.dim + meet.dim
        for outer, inner in ((total, s), (total, t), (s, meet), (t, meet)):
            assert all(outer.contains(row) for row in inner.basis)


def test_solve_and_inverse():
    rng = SplitMix64(31)
    for _ in range(10):
        m = _random_matrix(QQ, rng, 4, 4)
        if det(m) == 0:
            continue
        inv = inverse(m)
        assert m * inv == Matrix.identity(QQ, 4)
        rhs = tuple(F(k + 1) for k in range(4))
        x = solve(m, rhs)
        assert m.apply(x) == rhs
    assert solve(M([[1, 0], [1, 0]]), (F(0), F(1))) is None


def _det_by_permutations(m):
    # independent oracle: Leibniz expansion over all permutations
    n = m.rows
    total = F(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = F(1)
        for i in range(n):
            term *= m.data[i][perm[i]]
        total += sign * term
    return total


def test_det_against_permutation_expansion():
    rng = SplitMix64(37)
    for _ in range(15):
        m = _random_matrix(QQ, rng, 3, 3)
        assert det(m) == _det_by_permutations(m)


def test_algebra_closure_identity_only():
    basis = algebra_closure([Matrix.identity(QQ, 3)])
    assert len(basis) == 1
    assert basis[0] == Matrix.identity(QQ, 3)


def test_algebra_closure_diagonal():
    basis = algebra_closure([M([[1, 0], [0, 0]])])
    assert len(basis) == 2
    assert_multiplication_closed(basis)


def test_x1_closure_dimension_four():
    a = M([[1, 0], [1, 0]])
    astar = M([[1, 1], [0, 0]])
    # independent oracle: I, A, A*, AA* vectorize to rows whose integer
    # determinant is -2, so they are linearly independent
    rows = [
        [1, 0, 0, 1],  # I
        [1, 0, 1, 0],  # A
        [1, 1, 0, 0],  # A*
        [1, 1, 1, 1],  # A*A applied after A: (AA*)
    ]
    oracle = _det_by_permutations(Matrix.from_ints(QQ, rows))
    assert oracle == F(-2)
    basis = algebra_closure([a, astar])
    assert len(basis) == 4


def test_closure_is_reproducible():
    a = M([[1, 0], [1, 0]])
    astar = M([[1, 1], [0, 0]])
    b1 = algebra_closure([a, astar])
    b2 = algebra_closure([a, astar])
    assert b1 == b2


def test_intertwiner_contains_identity():
    a = M([[1, 0], [1, 0]])
    astar = M([[1, 1], [0, 0]])
    mats = intertwiner_matrices(a, astar, a, astar)
    span = Subspace.from_vectors(QQ, 4, [m.vec() for m in mats])
    assert span.contains(Matrix.identity(QQ, 2).vec())


def test_intertwiner_finds_conjugator():
    a = M([[1, 0], [1, 0]])
    astar = M([[1, 1], [0, 0]])
    p = M([[1, 1], [0, 1]])
    pinv = inverse(p)
    b, bstar = p * a * pinv, p * astar * pinv
    # direct substitution: p intertwines the two pairs
    assert p * a == b * p and p * astar == bstar * p
    space = intertwiner_space(a, astar, b, bstar)
    assert space.dim >= 1
    assert space.contains(p.vec())
    for row in space.basis:
        g = Matrix.from_vec(QQ, row, 2, 2)
        assert g * a == b * g and g * astar == bstar * g


def test_image_matches_column_space():
    m = M([[1, 2], [2, 4]])
    assert image(m) == Subspace.from_vectors(QQ, 2, [(F(1), F(2))])


def test_vec_round_trip():
    m = M([[1, 2, 3], [4, 5, 6]])
    assert Matrix.from_vec(QQ, m.vec(), 2, 3) == m


def _gauss_jordan(m):
    # independent oracle: textbook Gauss-Jordan, pivoting on the first
    # nonzero entry down each column and clearing the whole column
    grid = [list(row) for row in m.data]
    zero, one = m.field.zero, m.field.one
    pivots = []
    r = 0
    for c in range(m.cols):
        pr = next((i for i in range(r, m.rows) if grid[i][c] != zero), None)
        if pr is None:
            continue
        grid[r], grid[pr] = grid[pr], grid[r]
        inv = grid[r][c]
        if inv != one:
            grid[r] = [a / inv for a in grid[r]]
        for i in range(m.rows):
            if i != r and grid[i][c] != zero:
                f = grid[i][c]
                grid[i] = [a - f * b for a, b in zip(grid[i], grid[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Matrix(m.field, grid), len(pivots), pivots


def _leibniz_det(m):
    # independent oracle: the permutation expansion over any field
    total = m.field.zero
    for perm in permutations(range(m.rows)):
        inversions = sum(perm[i] > perm[j] for i in range(m.rows) for j in range(i + 1, m.rows))
        term = m.field.one
        for i in range(m.rows):
            term = term * m.data[i][perm[i]]
        total = total - term if inversions % 2 else total + term
    return total


def _random_of_rank(field, rng, rows, cols, k):
    # a product through K^k: rank at most k, usually exactly k
    left = Matrix(field, [[field.from_int(rng.randint(-4, 4)) for _ in range(k)] for _ in range(rows)])
    right = Matrix(field, [[field.from_int(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(k)])
    return left * right


def _oracle_cases(field, seed):
    rng = SplitMix64(seed)
    for rows, cols in ((4, 4), (5, 5), (3, 6), (6, 3), (2, 7), (7, 2)):
        for k in range(1, min(rows, cols) + 1):
            yield _random_of_rank(field, rng, rows, cols, k)
            yield _random_matrix(field, rng, rows, cols)


def _assert_elimination_matches_gauss_jordan(m, oracle_m):
    # rref, rank, kernel, solve, det and inverse of m against the oracles
    # run on oracle_m, the same matrix with every entry a field value
    field = m.field
    r, rk, pivots = _gauss_jordan(oracle_m)
    assert rref(m) == (r, rk, pivots)
    assert rank(m) == rk
    zero, one = field.zero, field.one
    free = [c for c in range(m.cols) if c not in pivots]
    oracle_kernel = []
    for f in free:
        v = [zero] * m.cols
        v[f] = one
        for k, c in enumerate(pivots):
            v[c] = -r.data[k][f]
        oracle_kernel.append(v)
    if oracle_kernel:
        kr, krk, _ = _gauss_jordan(Matrix(field, oracle_kernel))
        assert kernel(m).basis == kr.data[:krk]
    else:
        assert kernel(m).is_zero()
    rhs = tuple(field.from_int(k + 1) for k in range(m.rows))
    aug_r, _, aug_pivots = _gauss_jordan(Matrix(field, [list(row) + [b] for row, b in zip(oracle_m.data, rhs)]))
    if m.cols in aug_pivots:
        assert solve(m, rhs) is None
    else:
        x = [zero] * m.cols
        for k, c in enumerate(aug_pivots):
            x[c] = aug_r.data[k][m.cols]
        assert solve(m, rhs) == tuple(x)
    if m.is_square():
        assert det(m) == _leibniz_det(oracle_m)
        if rk < m.rows:
            with pytest.raises(MatrixError):
                inverse(m)
        else:
            ident = Matrix.identity(field, m.rows)
            aug = _gauss_jordan(Matrix(field, [list(a) + list(b) for a, b in zip(oracle_m.data, ident.data)]))[0]
            assert inverse(m) == Matrix(field, [row[m.cols :] for row in aug.data])


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(7), PrimeField(10007)], ids=["Q", "GF7", "GF10007"]
)
def test_elimination_matches_gauss_jordan(field):
    for m in _oracle_cases(field, 41):
        _assert_elimination_matches_gauss_jordan(m, m)


def test_det_sign_follows_row_order():
    for field in (QQ, PrimeField(7)):
        rng = SplitMix64(43)
        m = _random_matrix(field, rng, 4, 4)
        for perm in permutations(range(4)):
            permuted = Matrix(field, [m.data[i] for i in perm])
            assert det(permuted) == _leibniz_det(permuted)


def _extreme_matrix(field, rng, rows, cols):
    # entries 0, 1 and p-1, with one zero row and one zero column
    zero_row, zero_col = rng.randrange(rows), rng.randrange(cols)
    choices = (0, 1, field.p - 1)
    return Matrix(
        field,
        [
            [field.from_int(0 if i == zero_row or j == zero_col else choices[rng.randrange(3)]) for j in range(cols)]
            for i in range(rows)
        ],
    )


def _schoolbook_product(a, b):
    # independent oracle: one field product and sum per term
    return Matrix(
        a.field,
        [
            [sum((a.data[i][k] * b.data[k][j] for k in range(a.cols)), a.field.zero) for j in range(b.cols)]
            for i in range(a.rows)
        ],
    )


@pytest.mark.parametrize("p", [7, 10007])
def test_gfp_kernels_match_schoolbook_arithmetic(p):
    # products, sums, scaling and apply against FpElement arithmetic, and
    # span membership against a Gauss-Jordan rank count
    field = PrimeField(p)
    rng = SplitMix64(p)
    outcomes = set()
    for rows, inner, cols in ((1, 1, 1), (2, 3, 1), (3, 4, 2), (5, 5, 5), (6, 3, 7), (8, 8, 8)):
        for _ in range(4):
            a, b = _extreme_matrix(field, rng, rows, inner), _extreme_matrix(field, rng, inner, cols)
            product = a * b
            assert product == _schoolbook_product(a, b)
            c, minus_one = _extreme_matrix(field, rng, rows, inner), field.from_int(p - 1)
            assert a + c == Matrix(field, [[x + y for x, y in zip(r, s)] for r, s in zip(a.data, c.data)])
            assert a - c == Matrix(field, [[x - y for x, y in zip(r, s)] for r, s in zip(a.data, c.data)])
            assert a.scale(minus_one) == Matrix(field, [[minus_one * x for x in r] for r in a.data])
            assert all(type(x) is FpElement and 0 <= x.value < p for row in product.data for x in row)
            column = tuple(row[0] for row in b.data)
            assert a.apply(column) == tuple(row[0] for row in _schoolbook_product(a, b).data)
            # membership in the row space of b, against the rank of b with
            # the vector appended; product rows always lie in it
            span = SpanBuilder(field, cols)
            for row in b.data:
                span.add(row)
            space = Subspace.from_vectors(field, cols, b.data)
            base = _gauss_jordan(b)[1]
            vectors = [*product.data, *_extreme_matrix(field, rng, 3, cols).data, *b.data]
            vectors.append(tuple(field.from_int(rng.randrange(p)) for _ in range(cols)))
            for v in vectors:
                expected = _gauss_jordan(Matrix(field, [*b.data, v]))[1] == base
                assert span.contains(v) == space.contains(v) == expected
                outcomes.add(expected)
    assert outcomes == {True, False}


def _rational_matrix(rng, rows, cols, zero_lines):
    # entries p/q with |p| up to 10^6 and q up to 10^3, a quarter of them
    # plain ints; with zero_lines, one zero row and one zero column
    zero_row, zero_col = (rng.randrange(rows), rng.randrange(cols)) if zero_lines else (-1, -1)

    def entry(i, j):
        if i == zero_row or j == zero_col:
            return 0 if rng.randrange(2) else F(0)
        num = rng.randint(-(10**6), 10**6)
        return num if rng.randrange(4) == 0 else F(num, rng.randint(1, 1000))

    return Matrix(QQ, [[entry(i, j) for j in range(cols)] for i in range(rows)])


def _as_fractions(m):
    return Matrix(QQ, [[F(a) for a in row] for row in m.data])


def test_q_kernels_match_fraction_arithmetic():
    # the integer kernels against Fraction arithmetic, on entries with real
    # denominators: products and apply against the schoolbook product, the
    # elimination against Gauss-Jordan and Leibniz, membership against a
    # Gauss-Jordan rank count
    rng = SplitMix64(97)
    ranks, outcomes = set(), set()
    for rows, cols in ((4, 4), (5, 5), (3, 6), (6, 3), (2, 7), (7, 2)):
        cases = [_rational_matrix(rng, rows, cols, False), _rational_matrix(rng, rows, cols, True)]
        for k in range(1, min(rows, cols)):
            left, right = _rational_matrix(rng, rows, k, False), _rational_matrix(rng, k, cols, False)
            cases.append(_schoolbook_product(_as_fractions(left), _as_fractions(right)))
        for m in cases:
            exact = _as_fractions(m)
            _assert_elimination_matches_gauss_jordan(m, exact)
            rk = _gauss_jordan(exact)[1]
            ranks.add(rk == min(rows, cols))
            other = _rational_matrix(rng, cols, 3, rng.randrange(2) == 0)
            product = m * other
            assert product == _schoolbook_product(exact, _as_fractions(other))
            assert all(type(x) is F for row in product.data for x in row)
            column = tuple(row[1] for row in other.data)
            assert m.apply(column) == tuple(row[1] for row in product.data)
            span = SpanBuilder(QQ, cols)
            for row in m.data:
                span.add(row)
            space = Subspace.from_vectors(QQ, cols, m.data)
            combos = _rational_matrix(rng, 2, rows, False) * m
            vectors = [*combos.data, *_rational_matrix(rng, 2, cols, True).data, (F(0),) * cols]
            for v in vectors:
                expected = _gauss_jordan(Matrix(QQ, [*exact.data, [F(a) for a in v]]))[1] == rk
                assert span.contains(v) == space.contains(v) == expected
                outcomes.add(expected)
    assert ranks == outcomes == {True, False}
