"""Block-tridiagonality read on eigenspaces, against its product form.

`tdcore.band_blocks` applies E_i M to a basis of E_jV for every |i - j| > 1.
Validation's two tridiagonal checks and the fuzz sampler's superdiagonal
system both read it.  tests/oracles.py keeps the definition's form, the
products E_i M E_j, and the sampler's first system of n^2 rows per pair.
Pinned here: the first failing (i, j) of permuted eigenvalue orders, on the
d=6 Leonard system over Q and GF(10007) and on the (1,2,1) Krawtchouk pair,
whose middle eigenspace is a plane; agreement with the product form on
every order of the small golden systems; no matrix product in either
reader; and the sampler's system solving exactly as the n^2-row one.
"""

from itertools import permutations

import pytest

from tdlab import appshell as app
from tdlab import matrices as mx
from tdlab import tdcore as td
from tdlab.appshell import RunConfig, _random_candidate, _sample_superdiagonal, system_from_document
from tdlab.rng import SplitMix64, trial_seed
from tdlab.tdcore import FAIL, PASS, Check, IdempotentFamily, SystemContext, TdSystem, validate

import oracles
from test_conjlab import _n16_pair
from test_golden import KRAW_GF, KRAW_Q
from test_spin import GF, GOLDEN_SYSTEMS, QQ, _fuzz_corpus, _leonard_d6

PINNED_SYSTEMS = {
    "leonard6_q": lambda: _leonard_d6(QQ),
    "leonard6_gf": lambda: _leonard_d6(GF),
    "kraw121_q": lambda: system_from_document(KRAW_Q)[0],
    "kraw121_gf": lambda: system_from_document(KRAW_GF)[0],
}

# (system, permuted list, order, first failing pair)
PINNED = [
    ("leonard6_q", "A", (0, 1, 2, 3, 5, 4, 6), {"i": 3, "j": 5}),
    ("leonard6_q", "Astar", (1, 0, 2, 3, 4, 5, 6), {"i": 0, "j": 2}),
    ("leonard6_gf", "A", (0, 4, 2, 3, 1, 5, 6), {"i": 0, "j": 4}),
    ("leonard6_gf", "Astar", (6, 5, 3, 4, 2, 1, 0), {"i": 1, "j": 3}),
    ("kraw121_q", "A", (1, 0, 2), {"i": 0, "j": 2}),
    ("kraw121_q", "Astar", (2, 0, 1), {"i": 0, "j": 2}),
    ("kraw121_gf", "A", (0, 2, 1), {"i": 0, "j": 2}),
    ("kraw121_gf", "Astar", (1, 2, 0), {"i": 0, "j": 2}),
]


@pytest.mark.parametrize("name, which, order, witness", PINNED, ids=[f"{c[0]}-{c[1]}" for c in PINNED])
def test_a_permuted_order_fails_at_the_pinned_pair(name, which, order, witness):
    sys = PINNED_SYSTEMS[name]()
    thetas, thetas_star = sys.thetas, sys.thetas_star
    if which == "A":
        thetas = tuple(thetas[k] for k in order)
    else:
        thetas_star = tuple(thetas_star[k] for k in order)
    report = validate(TdSystem(sys.field, sys.n, sys.A, sys.Astar, thetas, thetas_star))
    failed = Check(f"tridiagonal/{which}_ordering", FAIL, witness)
    other = Check(f"tridiagonal/{'Astar' if which == 'A' else 'A'}_ordering", PASS)
    assert report.checks[-2:] == ([failed, other] if which == "A" else [other, failed])
    assert report.overall == FAIL


def _permuted(fam, order):
    return IdempotentFamily(*(tuple(seq[k] for k in order) for seq in (fam.mats, fam.eigenspaces, fam.ranks)))


@pytest.mark.parametrize("name", ["x1", "no_q", "kraw121_q", "kraw121_gf"])
def test_band_blocks_vanish_where_the_products_do_on_every_order(name):
    sys = GOLDEN_SYSTEMS[name]() if name in GOLDEN_SYSTEMS else PINNED_SYSTEMS[name]()
    ctx = SystemContext(sys)
    failures = 0
    for order in permutations(range(sys.d + 1)):
        e_fam, estar_fam = _permuted(ctx.e_fam, order), _permuted(ctx.estar_fam, order)
        for fam, m in ((e_fam, sys.Astar), (estar_fam, sys.A)):
            blocks = td.band_blocks(fam, m)
            assert [(i, j) for i, j, _ in blocks] == [
                (i, j) for i in range(sys.d + 1) for j in range(sys.d + 1) if abs(i - j) > 1
            ]
            for i, j, block in blocks:
                assert len(block) == fam.ranks[j]
                assert (not any(map(any, block))) == (fam[i] * m * fam[j]).is_zero()
        checks = td.check_tridiagonal(sys, e_fam, estar_fam)
        assert [c.witness for c in checks] == [
            oracles.off_band_pair(e_fam.mats, sys.Astar),
            oracles.off_band_pair(estar_fam.mats, sys.A),
        ]
        failures += any(c.status == FAIL for c in checks)
    assert failures == (0 if sys.d < 2 else len(list(permutations(range(sys.d + 1)))) - 2)


def test_check_tridiagonal_forms_no_matrix_product_on_the_n16_pair(matrix_products):
    sys = _n16_pair()
    ctx = SystemContext(sys)
    e_fam, estar_fam = ctx.e_fam, ctx.estar_fam
    matrix_products.clear()
    checks = td.check_tridiagonal(sys, e_fam, estar_fam)
    assert [c.status for c in checks] == [PASS, PASS]
    assert len(matrix_products) == 0


@pytest.mark.parametrize("field", [QQ, GF], ids=["Q", "GF"])
def test_the_sampler_forms_no_matrix_product_beyond_the_family(field, monkeypatch, matrix_products):
    config = RunConfig(seed=7, trials=1, field=field)
    ctx = _random_candidate(config, SplitMix64(5), 5)
    sys = ctx.sys
    e_fam = td.primitive_idempotents(sys.A, sys.thetas)
    monkeypatch.setattr(td, "primitive_idempotents", lambda m, thetas: e_fam)
    matrix_products.clear()
    phis, fam = _sample_superdiagonal(field, SplitMix64(5), sys.thetas, sys.thetas_star)
    assert fam is e_fam and len(phis) == 5
    assert len(matrix_products) == 0


@pytest.mark.parametrize("field", [QQ, GF], ids=["Q", "GF"])
def test_the_sampler_solves_as_the_n2_row_system(field, monkeypatch):
    # every candidate of `fuzz --trials 25 --seed 7`, accepted or not
    solve, kernel_vectors, sampler = mx.solve, mx.kernel_vectors, app._sample_superdiagonal
    calls, cases = [], []

    def recording(fn):
        def wrapper(m, *rest):
            calls.append((m.cols, fn(m, *rest)))
            return calls[-1][1]

        return wrapper

    def sampled(field, rng, thetas, thetas_star):
        start = len(calls)
        out = sampler(field, rng, thetas, thetas_star)
        # the system has one column per superdiagonal entry; the family's
        # eigenspaces are kernels of n x n matrices
        cases.append((thetas, thetas_star, [r for cols, r in calls[start:] if cols == len(thetas) - 1]))
        return out

    monkeypatch.setattr(mx, "solve", recording(solve))
    monkeypatch.setattr(mx, "kernel_vectors", recording(kernel_vectors))
    monkeypatch.setattr(app, "_sample_superdiagonal", sampled)
    _fuzz_corpus(field)
    solved = 0
    for thetas, thetas_star, got in cases:
        if len(thetas) == 2:
            assert got == []
            continue
        system, rhs = oracles.superdiagonal_system(field, thetas, thetas_star)
        particular = solve(system, rhs)
        assert got == ([particular] if particular is None else [particular, kernel_vectors(system)])
        solved += particular is not None
    assert len(cases) == 25 and solved >= 15


def test_verdict_draws_no_failure_past_the_first():
    drawn = []

    def failures():
        for k in range(3):
            drawn.append(k)
            yield {"k": k}

    assert td.verdict("some/check", failures()) == Check("some/check", FAIL, {"k": 0})
    assert drawn == [0]
    assert td.verdict("some/check", iter(())) == Check("some/check", PASS)
