"""Krawtchouk-type sharp tridiagonal pairs as tdlab/1 system documents.

A pair comes from a tensor product of sl2 modules of dimensions m_1..m_k
(Ito-Terwilliger, "Tridiagonal pairs of Krawtchouk type", LAA 2007):

    A  = sum_i (e_i + f_i)
    A* = sum_i (a_i e_i + a_i^-1 f_i)

where e_i, f_i act on factor i.  Both operators have eigenvalues
-N, -N+2, ..., N with N = sum (m_i - 1); the eigenspace dimensions are the
coefficients of prod_i (1 + x + ... + x^(m_i - 1)), so factors (2, 2) give
shape (1,2,1), (2, 3) give (1,2,2,1) and (2, 2, 2) give (1,3,3,1).

Scalars are built here with plain integers and Fractions, independently of
tdlab's field classes, and written as tdlab/1 strings.
"""

from __future__ import annotations

from fractions import Fraction

PRIME = 10007

# factor dimensions of each benchmarked shape
SHAPES = {
    (1, 2, 1): (2, 2),
    (1, 2, 2, 1): (2, 3),
    (1, 3, 3, 1): (2, 2, 2),
}


def shape_of(dims) -> tuple:
    """Eigenspace dimensions of the tensor product of modules of dims."""
    coeffs = [1]
    for m in dims:
        out = [0] * (len(coeffs) + m - 1)
        for i, c in enumerate(coeffs):
            for j in range(m):
                out[i + j] += c
        coeffs = out
    return tuple(coeffs)


def _raise_lower(m: int):
    """e and f on the m-dimensional sl2 module: e v_j = (m-j) v_(j-1), f v_j = (j+1) v_(j+1)."""
    e = [[0] * m for _ in range(m)]
    f = [[0] * m for _ in range(m)]
    for j in range(m):
        if j > 0:
            e[j - 1][j] = m - j
        if j + 1 < m:
            f[j + 1][j] = j + 1
    return e, f


def _kron(x, y):
    return [[a * b for a in xrow for b in yrow] for xrow in x for yrow in y]


def _identity(m: int):
    return [[1 if i == j else 0 for j in range(m)] for i in range(m)]


def _on_factor(dims, i: int, op):
    """op acting on tensor factor i, identity on the others."""
    out = [[1]]
    for k, m in enumerate(dims):
        out = _kron(out, op if k == i else _identity(m))
    return out


def _add(x, y, cx=1, cy=1):
    return [[cx * a + cy * b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def krawtchouk_pair(dims, params):
    """(A, A*, thetas) with Fraction entries; thetas serve both operators."""
    if len(dims) != len(params):
        raise ValueError("one evaluation parameter per factor")
    n = 1
    for m in dims:
        n *= m
    a = [[Fraction(0)] * n for _ in range(n)]
    astar = [[Fraction(0)] * n for _ in range(n)]
    for i, (m, p) in enumerate(zip(dims, params)):
        e, f = _raise_lower(m)
        ei, fi = _on_factor(dims, i, e), _on_factor(dims, i, f)
        a = _add(a, _add(ei, fi))
        astar = _add(astar, _add(ei, fi, Fraction(p), 1 / Fraction(p)))
    big_n = sum(m - 1 for m in dims)
    thetas = tuple(Fraction(-big_n + 2 * i) for i in range(big_n + 1))
    return a, astar, thetas


def _fmt(x: Fraction, prime: int | None) -> str:
    if prime is None:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return str(x.numerator * pow(x.denominator, -1, prime) % prime)


def system_document(a, astar, thetas, prime: int | None = None) -> dict:
    """A tdlab/1 document over Q (prime None) or GF(prime)."""
    field = {"kind": "rational"} if prime is None else {"kind": "prime", "modulus": prime}
    return {
        "format": "tdlab/1",
        "field": field,
        "dimension": len(a),
        "A": [[_fmt(x, prime) for x in row] for row in a],
        "Astar": [[_fmt(x, prime) for x in row] for row in astar],
        "theta": [_fmt(t, prime) for t in thetas],
        "theta_star": [_fmt(t, prime) for t in thetas],
    }


def krawtchouk_document(shape, params, prime: int | None = None) -> dict:
    dims = SHAPES[tuple(shape)]
    a, astar, thetas = krawtchouk_pair(dims, params)
    return system_document(a, astar, thetas, prime)


# The split-form Leonard system at d=6: theta_i = theta*_i = i,
# phi_i = 2 i (i - d - 1), generated through `tdlab gen leonard`.
LEONARD_D = 6


def leonard_gen_args(prime: int | None = None) -> list:
    d = LEONARD_D
    thetas = ",".join(str(i) for i in range(d + 1))
    phis = ",".join(str(2 * i * (i - d - 1)) for i in range(1, d + 1))
    field = "rational" if prime is None else f"p={prime}"
    return ["gen", "leonard", f"--theta={thetas}", f"--theta-star={thetas}", f"--phi={phis}", f"--field={field}"]
