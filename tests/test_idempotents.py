"""The primitive idempotents against the Lagrange products they replace.

`primitive_idempotents` reads each E_i off the eigenspace decomposition with
`tdcore.projections`; tests/oracles.py builds the same family as Lagrange
products in the operator.  The inputs are every golden document, the
candidates of `fuzz --trials 25 --seed 7` over both fields, the benchmark's
Krawtchouk pairs over both fields, and A = I with an eigenvalue that has no
eigenvector, whose zero idempotent `verify` fails as `idempotents/A`; two
more such documents pin that verdict.  A family costs one matrix product
per nonzero eigenspace: its two asserted identities (the sum to the
identity and the eigen-relation on eigenvectors) form none, and each still
catches the fault it guards.
"""

import json

import pytest

from tdlab import matrices as mx
from tdlab.appshell import RunConfig, _random_candidate, system_from_document
from tdlab.cli import run
from tdlab.matrices import Matrix, MatrixError, Subspace
from tdlab.rng import SplitMix64, trial_seed
from tdlab.scalars import PrimeField, RationalField
from tdlab.tdcore import InvariantViolation, primitive_idempotents, projections

from oracles import lagrange_idempotents
from test_conjlab import _n16_pair
from test_spin import GOLDEN_SYSTEMS, _leonard_d6, kraw

QQ = RationalField()
GF = PrimeField(10007)

IDENTITY = {
    "format": "tdlab/1",
    "field": {"kind": "rational"},
    "dimension": 2,
    "A": [["1", "0"], ["0", "1"]],
    "Astar": [["1", "0"], ["0", "1"]],
    "theta": ["1", "2"],
    "theta_star": ["1", "2"],
}


def assert_matches_lagrange(sys):
    for m, thetas in ((sys.A, sys.thetas), (sys.Astar, sys.thetas_star)):
        fam = primitive_idempotents(m, thetas)
        assert list(fam.mats) == lagrange_idempotents(m, thetas)
        assert list(fam.ranks) == [mx.rank(e) for e in fam.mats]


@pytest.mark.parametrize("name", sorted(GOLDEN_SYSTEMS))
def test_idempotents_match_lagrange_on_golden_documents(name):
    assert_matches_lagrange(GOLDEN_SYSTEMS[name]())


@pytest.mark.parametrize("field", [QQ, GF], ids=["Q", "GF"])
def test_idempotents_match_lagrange_on_the_fuzz_candidates(field):
    # every candidate, accepted or not: each operator is bidiagonal with
    # distinct eigenvalues on its diagonal, so it is diagonalizable
    config = RunConfig(seed=7, trials=25, field=field)
    for index in range(config.trials):
        rng = SplitMix64(trial_seed(config.seed, index))
        assert_matches_lagrange(_random_candidate(config, rng, rng.randint(1, config.d_max)).sys)


@pytest.mark.parametrize("prime", [None, kraw.PRIME], ids=["Q", "GF"])
@pytest.mark.parametrize("shape", sorted(kraw.SHAPES))
def test_idempotents_match_lagrange_on_krawtchouk_pairs(shape, prime):
    params = (2, 3, 5)[: len(kraw.SHAPES[shape])]
    sys, _ = system_from_document(kraw.krawtchouk_document(shape, params, prime))
    assert_matches_lagrange(sys)
    assert primitive_idempotents(sys.A, sys.thetas).ranks == shape


def test_an_eigenvalue_without_eigenvectors_gets_the_zero_idempotent(tmp_path, capsys):
    sys, _ = system_from_document(IDENTITY)
    assert_matches_lagrange(sys)
    fam = primitive_idempotents(sys.A, sys.thetas)
    assert fam.mats == (Matrix.identity(QQ, 2), Matrix.zeros(QQ, 2, 2))
    assert fam.ranks == (2, 0)
    # the ordering is one of eigenspaces, so validation stops at A's family
    assert _verify(IDENTITY, tmp_path, capsys) == (
        1, {"id": "idempotents/A", "status": "fail", "witness": {"ranks": [2, 0]}}
    )


def _verify(doc, tmp_path, capsys):
    """The exit code of `verify --json` on `doc` and its last check."""
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = run(["verify", "--json", str(path)])
    return code, json.loads(capsys.readouterr().out)["checks"][-1]


def _diagonal_document(a_diag, astar_diag, theta, theta_star):
    n = len(a_diag)

    def diag(values):
        return [[str(v) if r == c else "0" for c, v in enumerate(values)] for r in range(n)]

    return {
        "format": "tdlab/1",
        "field": {"kind": "rational"},
        "dimension": n,
        "A": diag(a_diag),
        "Astar": diag(astar_diag),
        "theta": list(map(str, theta)),
        "theta_star": list(map(str, theta_star)),
    }


# documents that list an eigenvalue without an eigenvector, with the operator
# whose family fails and its ranks; n3 is no tridiagonal pair, yet no
# irreducibility strategy could show it
NO_EIGENVECTOR = {
    "identity": (IDENTITY, "A", [2, 0]),
    "n2": (_diagonal_document([1, 2], [6, 6], [1, 2], [5, 6]), "Astar", [0, 2]),
    "n3": (_diagonal_document([1, 2, 2], [6, 6, 6], [1, 2], [5, 6]), "Astar", [0, 3]),
}


@pytest.mark.parametrize("field", [{"kind": "rational"}, {"kind": "prime", "modulus": 10007}], ids=["Q", "GF"])
@pytest.mark.parametrize("name", sorted(NO_EIGENVECTOR))
def test_a_listed_eigenvalue_without_eigenvectors_fails_its_family(name, field, tmp_path, capsys):
    doc, operator, ranks = NO_EIGENVECTOR[name]
    assert _verify({**doc, "field": field}, tmp_path, capsys) == (
        1, {"id": f"idempotents/{operator}", "status": "fail", "witness": {"ranks": ranks}}
    )


def test_projections_assert_the_sum_to_the_identity(monkeypatch):
    # a wrong inverse whose blocks still give idempotents that fix their lines
    lines = [Subspace.from_vectors(QQ, 2, [row]) for row in Matrix.identity(QQ, 2).data]
    units = [Matrix.from_ints(QQ, [[1, 0], [0, 0]]), Matrix.from_ints(QQ, [[0, 0], [0, 1]])]
    assert projections(QQ, 2, lines) == units
    monkeypatch.setattr(mx, "inverse", lambda m: Matrix.from_ints(QQ, [[1, 0], [1, 1]]))
    with pytest.raises(InvariantViolation, match="do not sum to the identity"):
        projections(QQ, 2, lines)


def test_projections_need_a_direct_sum():
    line = Subspace.from_vectors(QQ, 2, [(QQ.one, QQ.one)])
    with pytest.raises(MatrixError):
        projections(QQ, 2, [line, line])
    with pytest.raises(MatrixError):
        projections(QQ, 2, [line, Subspace.zero(QQ, 2)])


FAMILY_SYSTEMS = {
    "n16_gf": _n16_pair,
    "leonard6_q": lambda: _leonard_d6(QQ),
    "leonard6_gf": lambda: _leonard_d6(GF),
    "identity": lambda: system_from_document(IDENTITY)[0],
}


@pytest.mark.parametrize("name", sorted(FAMILY_SYSTEMS))
def test_a_family_forms_one_product_per_nonzero_eigenspace(name, matrix_products):
    # E_i = C_i R_i, an n x rank by rank x n product; the identity's second
    # eigenspace is zero and forms none
    sys = FAMILY_SYSTEMS[name]()
    for m, thetas in ((sys.A, sys.thetas), (sys.Astar, sys.thetas_star)):
        matrix_products.clear()
        fam = primitive_idempotents(m, thetas)
        shapes = [(rows, right.rows, right.cols) for rows, right in matrix_products]
        assert shapes == [(sys.n, rank, sys.n) for rank in fam.ranks if rank]


def test_verify_on_the_cli_kraw_documents_forms_72_products(tmp_path, matrix_products, capsys):
    # the eight documents of the cli-kraw benchmark; each family forms one
    # product per eigenspace: 2 * (3 + 4 + 4 + 7) = 36 per field
    paths = []
    for prime in (None, kraw.PRIME):
        for shape, dims in sorted(kraw.SHAPES.items()):
            paths.append(tmp_path / f"kraw{''.join(map(str, shape))}-{prime}.json")
            doc = kraw.krawtchouk_document(shape, (2, 3, 5)[: len(dims)], prime)
            paths[-1].write_text(json.dumps(doc), encoding="utf-8")
        paths.append(tmp_path / f"leonard-{prime}.json")
        assert run([*kraw.leonard_gen_args(prime), "-o", str(paths[-1])]) == 0
    matrix_products.clear()
    assert [run(["verify", str(path)]) for path in paths] == [0] * 8
    capsys.readouterr()
    assert len(matrix_products) == 72


@pytest.mark.parametrize("field", [QQ, GF], ids=["Q", "GF"])
def test_a_kernel_vector_that_is_no_eigenvector_fails_the_eigen_relation(field, monkeypatch):
    # E_1V's basis vector v_1 becomes v_0 + v_1: still a direct sum, so the
    # projections sum to the identity, but (A - theta_1) v no longer vanishes
    sys = _leonard_d6(field)
    kernel, spaces = mx.kernel, []

    def perturbed(m):
        spaces.append(kernel(m))
        if len(spaces) == 2:
            v0, v1 = spaces[0].basis[0], spaces[1].basis[0]
            return Subspace.from_vectors(field, sys.n, [tuple(a + b for a, b in zip(v0, v1))])
        return spaces[-1]

    monkeypatch.setattr(mx, "kernel", perturbed)
    with pytest.raises(InvariantViolation, match="eigen-relation"):
        primitive_idempotents(sys.A, sys.thetas)
