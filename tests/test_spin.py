"""The spin algorithms against the solves they replace.

Norton's irreducibility test is compared with the enumeration of eigenline
sums, and the spin invariant form and isomorphism test with the
n^2-unknown intertwiner solve (tests/oracles.py).  On each pair that
Norton's test proves absolutely irreducible, the closure
`matrices.algebra_closure` solves on a fresh context is the n^2 matrix
units: all of Mat_n, which is why the corner algebra never solves it there.  The inputs are x1,
every golden document, the n=16 Krawtchouk pair of shape (1,4,6,4,1), the
fuzz corpus of `fuzz --trials 25 --seed 7` over both fields, and two
reducible systems.  Norton's verdict matches the enumeration on every
candidate, accepted or not, of that run and of
`fuzz --trials 100 --seed 1 --field p=5 --d-max 1`.
"""

import json
import sys as _sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from tdlab import d4orbit as d4
from tdlab import formlab as fl
from tdlab import matrices as mx
from tdlab.appshell import (
    RunConfig,
    _random_candidate,
    _sample_superdiagonal,
    _bidiagonal_system,
    document_from_system,
    gen_leonard_split,
    system_from_document,
)
from tdlab.cli import run
from tdlab.matrices import Matrix
from tdlab.rng import SplitMix64, trial_seed
from tdlab.scalars import PrimeField, RationalField
from tdlab.tdcore import (
    InvariantViolation,
    SystemContext,
    TdSystem,
    ValidateOptions,
    _spin,
    _verify_invariant_subspace,
    check_irreducible,
)

from oracles import eigenline_subsets, intertwiner_matrices
from test_golden import DOCUMENTS, LEONARD_D6, gf3_pair_without_a_line

# the n=16 pair comes from the benchmark's own generator, which is not a package
_sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import kraw  # noqa: E402

QQ = RationalField()
GF = PrimeField(10007)
ASSUMED = ValidateOptions(irreducibility="assume", assume_note="known reducible")


def oracle_isomorphism(ctx1, ctx2):
    """The isomorphism verdict from the full intertwiner space."""
    sys1, sys2 = ctx1.sys, ctx2.sys
    if tuple(sys1.thetas) != tuple(sys2.thetas) or tuple(sys1.thetas_star) != tuple(
        sys2.thetas_star
    ):
        return "not_isomorphic", None
    basis = intertwiner_matrices(sys1.A, sys1.Astar, sys2.A, sys2.Astar)
    assert len(basis) <= 1  # Schur, both systems being validated
    return ("isomorphic", basis[0]) if basis else ("not_isomorphic", None)


def _matrix_units(field, n):
    """The rref basis of Mat_n: the n^2 matrix units, in row-major order."""
    return [Matrix.from_vec(field, row, n, n) for row in Matrix.identity(field, n * n).data]


def assert_spin_matches_oracles(sys, conjugate_seed=1):
    """Norton's proof against the solved closure, which must be the matrix
    units, the spin form against the solved one, and spin isomorphism against
    the solved one on a conjugate, the dual and the reversed relatives."""
    n = sys.n
    ctx = SystemContext(sys)
    verdict, detail, used = check_irreducible(ctx)
    assert (verdict, used) == ("irreducible", "norton")
    assert detail == {"line": "Estar_0", "spin_dim": n, "dual_spin_dim": n}
    assert ctx.report.absolutely_irreducible
    assert SystemContext(sys).closure == _matrix_units(sys.field, n)  # rref-canonical

    gram, checks = fl.invariant_form(ctx)
    solved = intertwiner_matrices(sys.A, sys.Astar, sys.A.transpose(), sys.Astar.transpose())
    assert len(solved) == 1
    assert checks[0].witness == {"solution_dim": 1}
    assert gram == solved[0]

    p = _invertible(sys.field, SplitMix64(conjugate_seed), n)
    p_inv = mx.inverse(p)
    conj = TdSystem(sys.field, n, p * sys.A * p_inv, p * sys.Astar * p_inv, sys.thetas, sys.thetas_star)
    others = [SystemContext(conj), fl.dual_system(ctx)[0]]
    others += [d4.relative_context(ctx, g) for g in (d4.REV_PRIMARY, d4.REV_DUAL)]
    for other in others:
        verdict, payload = fl.isomorphism_test(ctx, other)
        expected, gamma = oracle_isomorphism(ctx, other)
        assert verdict == expected
        if gamma is not None:
            assert payload == {"gamma": gamma, "intertwiner_dim": 1}


def _invertible(field, rng, n):
    while True:
        m = Matrix(field, [[field.from_int(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)])
        if mx.det(m) != field.zero:
            return m


def _leonard_d6(field):
    args = {a.split("=")[0]: a.split("=")[1] for a in LEONARD_D6[2:]}
    values = [[field.parse(x) for x in args[k].split(",")] for k in ("--theta", "--theta-star", "--phi")]
    return gen_leonard_split(field, *values).sys


GOLDEN_SYSTEMS = {name: lambda doc=doc: system_from_document(doc)[0] for name, doc in DOCUMENTS.items()}
GOLDEN_SYSTEMS["leonard6_q"] = lambda: _leonard_d6(QQ)
GOLDEN_SYSTEMS["leonard6_gf"] = lambda: _leonard_d6(GF)


@pytest.mark.parametrize("name", sorted(GOLDEN_SYSTEMS))
def test_spin_matches_oracles_on_golden_documents(name):
    assert_spin_matches_oracles(GOLDEN_SYSTEMS[name]())


def test_spin_matches_oracles_on_the_n16_pair():
    # shape (1,4,6,4,1); the two solves take most of this test's time
    a, astar, thetas = kraw.krawtchouk_pair((2, 2, 2, 2), (2, 3, 5, 7))
    sys, _ = system_from_document(kraw.system_document(a, astar, thetas, kraw.PRIME))
    n = sys.n
    ctx = SystemContext(sys)
    assert ctx.report.passed() and ctx.report.shape == (1, 4, 6, 4, 1)
    irreducible = next(c for c in ctx.report.checks if c.id == "irreducible")
    assert irreducible.witness == {
        "strategy": "norton",
        "detail": {"line": "Estar_0", "spin_dim": n, "dual_spin_dim": n},
    }
    assert SystemContext(sys).closure == _matrix_units(sys.field, n)
    gram, _ = fl.invariant_form(ctx)
    solved = intertwiner_matrices(sys.A, sys.Astar, sys.A.transpose(), sys.Astar.transpose())
    assert [gram] == solved


def _fuzz_corpus(field):
    """The accepted candidates of `fuzz --trials 25 --seed 7` over `field`."""
    config = RunConfig(seed=7, trials=25, field=field)
    out = []
    for index in range(config.trials):
        rng = SplitMix64(trial_seed(config.seed, index))
        ctx = _random_candidate(config, rng, rng.randint(1, config.d_max))
        if ctx.report.passed() and ctx.report.sharp:
            out.append((index, ctx))
    return out


@pytest.mark.parametrize("field", [QQ, GF], ids=["Q", "GF"])
def test_spin_matches_oracles_on_the_fuzz_corpus(field):
    corpus = _fuzz_corpus(field)
    assert len(corpus) >= 10
    for index, ctx in corpus:
        assert next(c for c in ctx.report.checks if c.id == "irreducible").witness["strategy"] == "norton"
        assert ctx.report.absolutely_irreducible
        assert_spin_matches_oracles(ctx.sys, conjugate_seed=index)


# fuzz runs, with how many of their candidates are reducible
FUZZ_RUNS = {
    "seed7-Q": (RunConfig(seed=7, trials=25, field=QQ), 0),
    "seed7-GF": (RunConfig(seed=7, trials=25, field=GF), 0),
    "seed1-p5-d1": (RunConfig(seed=1, trials=100, field=PrimeField(5), d_max=1), 31),
}


@pytest.mark.parametrize("name", sorted(FUZZ_RUNS))
def test_norton_agrees_with_the_eigenline_subsets(name):
    # every candidate, accepted or not: each operator is bidiagonal with
    # distinct eigenvalues on its diagonal, so every eigenspace is a line
    config, reducible = FUZZ_RUNS[name]
    verdicts = []
    for index in range(config.trials):
        rng = SplitMix64(trial_seed(config.seed, index))
        sys = _random_candidate(config, rng, rng.randint(1, config.d_max)).sys
        verdict, witness, used = check_irreducible(SystemContext(sys))
        assert used == "norton"
        assert verdict == eigenline_subsets(sys)[0]
        if verdict == "reducible":
            assert 0 < witness.dim < sys.n
            assert all(witness.contains(m.apply(v)) for m in (sys.A, sys.Astar) for v in witness.basis)
        verdicts.append(verdict)
    assert verdicts.count("reducible") == reducible


@pytest.mark.parametrize("field", [QQ, GF], ids=["Q", "GF"])
def test_spin_isomorphism_on_equal_eigenvalues(field):
    # a second point of each corpus instance's superdiagonal line has the
    # same eigenvalue sequences; whether the two are isomorphic is decided
    # by the split sequence, and the spin must agree with the solve
    verdicts = set()
    for index, ctx in _fuzz_corpus(field):
        sys = ctx.sys
        phis, _ = _sample_superdiagonal(field, SplitMix64(index), sys.thetas, sys.thetas_star)
        other = SystemContext(_bidiagonal_system(field, sys.thetas, sys.thetas_star, phis))
        if not (other.report.passed() and other.report.sharp):
            continue
        verdict, _ = fl.isomorphism_test(ctx, other)
        assert verdict == oracle_isomorphism(ctx, other)[0]
        assert (verdict == "isomorphic") == (ctx.zetas == other.zetas)
        verdicts.add(verdict)
    assert "not_isomorphic" in verdicts


# ---------------------------------------------------------------------------
# reducible inputs


def _non_split():
    """A = [[1,1],[0,0]], A* = diag(2,3): span(e_1) is invariant with no
    invariant complement.  With theta*_0 = 3, v0 = e_2 spins to V (A e_2 =
    e_1), while u0 = e_2 spins only to its own line."""
    a = Matrix(QQ, [[F(1), F(1)], [F(0), F(0)]])
    astar = Matrix(QQ, [[F(2), F(0)], [F(0), F(3)]])
    return TdSystem(QQ, 2, a, astar, (F(1), F(0)), (F(3), F(2)))


def _leonard_plus_line():
    """The d=2 Leonard system of conftest.inst_d2 plus a 1-dim summand on
    which A and A* act as theta_1 and theta*_1: shape (1,2,1), reducible."""
    thetas, thetas_star = (F(0), F(1), F(3)), (F(2), F(-1), F(5))
    leonard = _bidiagonal_system(QQ, thetas, thetas_star, (F(16), F(1)))

    def plus(m, value):
        rows = [list(row) + [F(0)] for row in m.data] + [[F(0)] * 3 + [value]]
        return Matrix(QQ, rows)

    return TdSystem(QQ, 4, plus(leonard.A, thetas[1]), plus(leonard.Astar, thetas_star[1]), thetas, thetas_star)


def _write(tmp_path, sys, assume=None):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(document_from_system(sys, assume)), encoding="utf-8")
    return str(path)


def _irreducible_check(capsys):
    doc = json.loads(capsys.readouterr().out)
    return next(c for c in doc["checks"] if c["id"] == "irreducible")


def test_non_split_extension_fails_on_the_dual_spin(tmp_path, capsys):
    sys = _non_split()
    ctx = SystemContext(sys)
    v0 = ctx.estar_fam.eigenspaces[0].basis[0]
    assert _spin((sys.A, sys.Astar), v0)[0].dim == 2
    assert _spin((sys.A.transpose(), sys.Astar.transpose()), (F(0), F(1)))[0].dim == 1

    verdict, witness, used = check_irreducible(ctx)
    assert (verdict, used) == ("reducible", "norton")
    assert witness.basis == ((F(1), F(0)),)
    assert _verify_invariant_subspace(sys, witness)

    assert run(["verify", _write(tmp_path, sys), "--json"]) == 1
    check = _irreducible_check(capsys)
    assert check["status"] == "fail"
    assert check["witness"] == {
        "strategy": "norton",
        "invariant_subspace": {"ambient": 2, "basis": [["1", "0"]]},
    }


def test_leonard_plus_line_is_reducible(tmp_path, capsys):
    sys = _leonard_plus_line()
    verdict, witness, used = check_irreducible(SystemContext(sys))
    assert (verdict, used) == ("reducible", "norton")
    assert witness.dim == 3 and _verify_invariant_subspace(sys, witness)
    assert run(["verify", _write(tmp_path, sys), "--json"]) == 1
    assert _irreducible_check(capsys)["status"] == "fail"


def test_leonard_plus_line_form_verdict_matches_the_oracle(tmp_path, capsys):
    sys = _leonard_plus_line()
    ctx = SystemContext(sys, ASSUMED)
    assert ctx.report.passed() and ctx.report.sharp
    solved = intertwiner_matrices(sys.A, sys.Astar, sys.A.transpose(), sys.Astar.transpose())
    assert len(solved) == 2
    form, checks = fl.invariant_form(ctx)
    assert form is None
    assert [(c.id, c.status, c.witness) for c in checks] == [
        ("form/solution_dim", "fail", {"spin_dim": 3})
    ]
    with pytest.raises(InvariantViolation):
        fl.isomorphism_test(ctx, SystemContext(sys, ASSUMED))

    assert run(["form", _write(tmp_path, sys, {"assume": True, "note": "known reducible"})]) == 1
    doc = json.loads(capsys.readouterr().out)
    solution = next(c for c in doc["checks"] if c["id"] == "form/solution_dim")
    assert solution == {"id": "form/solution_dim", "status": "fail", "witness": {"spin_dim": 3}}


def test_no_shortcut_without_a_line():
    # irreducible over GF(3), yet the operators generate only M_2(GF(9)) and
    # no eigenspace is a line, so the closure must be solved for
    sys = gf3_pair_without_a_line()
    ctx = SystemContext(sys, ValidateOptions(irreducibility="exhaustive_gfp"))
    irreducible = next(c for c in ctx.report.checks if c.id == "irreducible")
    assert irreducible.status == "pass"
    assert not ctx.report.absolutely_irreducible
    assert len(ctx.closure) == 8 == len(mx.algebra_closure([sys.A, sys.Astar]))
