"""The per-system derivation context: each derived object is built once,
the families a relative or the dual takes from its base system equal the
ones a fresh derivation would build, and the report of a relative or the
dual, which it takes from its base system, is the one a fresh validation
would give."""

import json
from itertools import combinations

import pytest

from tdlab import conjlab as cj
from tdlab import d4orbit as d4
from tdlab import formlab as fl
from tdlab import matrices as mx
from tdlab import splitparam as sp
from tdlab import tdcore as td
from tdlab.appshell import (
    RunConfig,
    conjectures_stage,
    document_from_system,
    fuzz_run,
    run_identity_suite,
    system_from_document,
)
from tdlab.cli import run
from tdlab.matrices import Matrix
from tdlab.scalars import PrimeField, RationalField
from tdlab.tdcore import SystemContext

from test_conjlab import _n16_pair
from test_golden import KRAW_GF, KRAW_Q, gf3_pair_without_a_line
from test_spin import GOLDEN_SYSTEMS, _fuzz_corpus


def _count_calls(monkeypatch, module, name, counted=lambda *args, **kwargs: True):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        if counted(*args, **kwargs):
            calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _write(tmp_path, doc):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("field", [RationalField(), PrimeField(10007)], ids=["Q", "GF"])
def test_fuzz_trial_derives_at_most_six_families(field, monkeypatch):
    # two for the candidate (the superdiagonal sampler derives the primary
    # one), two for each of the two conjugated copies in the isomorphism stage
    calls = _count_calls(monkeypatch, td, "primitive_idempotents")
    accepted = 0
    for seed in range(4):
        before = len(calls)
        doc = fuzz_run(RunConfig(seed=seed, trials=1, d_max=3, field=field))
        if doc["checks"][-1]["witness"]["accepted"]:
            accepted += 1
            assert len(calls) - before <= 6
    assert accepted >= 2


@pytest.mark.parametrize("doc", [KRAW_Q, KRAW_GF], ids=["Q", "GF"])
def test_orbit_request_derives_two_families(doc, tmp_path, monkeypatch, capsys):
    calls = _count_calls(monkeypatch, td, "primitive_idempotents")
    assert run(["orbit", _write(tmp_path, doc)]) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("doc", [KRAW_Q, KRAW_GF], ids=["Q", "GF"])
def test_orbit_request_validates_once_and_builds_no_operator_table(doc, tmp_path, monkeypatch, capsys):
    # the relatives take the base's report, and their split sequences apply
    # the factors to a vector; a context has no operator table to build
    validations = _count_calls(monkeypatch, td, "validate")
    assert run(["orbit", _write(tmp_path, doc)]) == 0
    assert len(validations) == 1
    for name in ("tau", "tau_star", "alternating", "alternating_star"):
        assert not hasattr(SystemContext, name)


@pytest.mark.parametrize("doc", [KRAW_Q, KRAW_GF], ids=["Q", "GF"])
def test_orbit_request_builds_no_split_projections(doc, tmp_path, monkeypatch, capsys):
    # only the two idempotent families call projections; the split
    # projections are read by problems_report alone
    idempotent = _count_calls(monkeypatch, td, "projections")
    split = _count_calls(monkeypatch, sp, "projections")
    assert run(["orbit", _write(tmp_path, doc)]) == 0
    assert len(idempotent) == 2
    assert len(split) == 0


@pytest.mark.parametrize("doc", [KRAW_Q, KRAW_GF], ids=["Q", "GF"])
def test_orbit_request_builds_four_split_decompositions(doc, tmp_path, monkeypatch, capsys):
    # a relative and its complement, all three letters flipped, share one
    calls = _count_calls(monkeypatch, sp, "split_decomposition")
    assert run(["orbit", _write(tmp_path, doc)]) == 0
    assert len(calls) == 4


@pytest.mark.parametrize("doc", [KRAW_Q, KRAW_GF], ids=["Q", "GF"])
def test_orbit_request_sums_each_eigenspace_chain_once(doc, tmp_path, monkeypatch, capsys):
    # the prefix and suffix sums of the base's two families; the reversed
    # families of the relatives read them
    chains = _count_calls(monkeypatch, td, "_running_sums")
    assert run(["orbit", _write(tmp_path, doc)]) == 0
    assert len(chains) == 4
    assert all(a != b for a, b in combinations(chains, 2))


def _with_a_full_operand(s, t):
    return s.is_full() or t.is_full()


@pytest.mark.parametrize("doc", [KRAW_Q, KRAW_GF], ids=["Q", "GF"])
def test_orbit_request_solves_only_the_split_meets(doc, tmp_path, monkeypatch, capsys):
    # four d=2 decompositions, one meet per summand; U_0 and U_d are meets
    # with V, and the eigenspace chains are direct sums that solve no meet
    meets = _count_calls(monkeypatch, mx, "sum_and_meet")
    full = _count_calls(monkeypatch, mx, "sum_and_meet", _with_a_full_operand)
    running_sums, in_chains = td._running_sums, []

    def counted(spaces):
        before = len(meets)
        sums = running_sums(spaces)
        in_chains.append(len(meets) - before)
        return sums

    monkeypatch.setattr(td, "_running_sums", counted)
    assert run(["orbit", _write(tmp_path, doc)]) == 0
    assert (len(meets), len(full)) == (12, 8)
    assert in_chains == [0, 0, 0, 0]


@pytest.mark.parametrize("field", [RationalField(), PrimeField(10007)], ids=["Q", "GF"])
def test_fuzz_trial_solves_only_the_split_meets(field, monkeypatch):
    # seed 7 draws d=1: five decompositions of two summands, U_0 = E*_0V ∩ V
    # and U_1 = V ∩ E_1V
    meets = _count_calls(monkeypatch, mx, "sum_and_meet")
    full = _count_calls(monkeypatch, mx, "sum_and_meet", _with_a_full_operand)
    doc = fuzz_run(RunConfig(seed=7, trials=1, d_max=3, field=field))
    assert doc["checks"][0]["witness"]["accepted"]
    assert (len(meets), len(full)) == (10, 10)


@pytest.mark.parametrize("field", [RationalField(), PrimeField(10007)], ids=["Q", "GF"])
def test_fuzz_trial_builds_five_split_decompositions(field, monkeypatch):
    # the base, three relatives whose complements take their summands, and the dual
    calls = _count_calls(monkeypatch, sp, "split_decomposition")
    doc = fuzz_run(RunConfig(seed=7, trials=1, d_max=3, field=field))
    assert doc["checks"][0]["witness"]["accepted"]
    assert len(calls) == 5


@pytest.mark.parametrize("field", [RationalField(), PrimeField(10007)], ids=["Q", "GF"])
def test_fuzz_trial_validates_only_the_candidate(field, monkeypatch):
    # the relatives and the dual take the candidate's report
    validations = _count_calls(monkeypatch, td, "validate")
    doc = fuzz_run(RunConfig(seed=7, trials=1, d_max=3, field=field))
    assert doc["checks"][0]["witness"]["accepted"]
    assert len(validations) == 1


@pytest.mark.parametrize("field", [RationalField(), PrimeField(10007)], ids=["Q", "GF"])
def test_fuzz_trial_builds_split_projections_once(field, monkeypatch):
    split = _count_calls(monkeypatch, sp, "projections")
    doc = fuzz_run(RunConfig(seed=7, trials=1, d_max=3, field=field))
    assert doc["checks"][0]["witness"]["accepted"]
    assert len(split) == 1


def _of_the_pair(gens, unit=None):
    return len(gens) == 2 and unit is None


@pytest.mark.parametrize("doc", [KRAW_Q, KRAW_GF], ids=["Q", "GF"])
def test_conjectures_request_builds_one_generated_algebra(doc, tmp_path, monkeypatch, capsys):
    calls = _count_calls(monkeypatch, mx, "algebra_closure", _of_the_pair)
    assert run(["conjectures", _write(tmp_path, doc)]) == 0
    # Norton proved the pair absolutely irreducible, so the generated
    # algebra is Mat_n, known by its dimension and never solved for
    assert len(calls) == 0


@pytest.mark.parametrize("name", ["KRAW_Q", "KRAW_GF", "n16"])
def test_a_norton_proved_pair_never_writes_down_its_generated_algebra(name, monkeypatch):
    docs = {"KRAW_Q": KRAW_Q, "KRAW_GF": KRAW_GF}
    sys = _n16_pair() if name == "n16" else system_from_document(docs[name])[0]
    n = sys.n
    units = _count_calls(monkeypatch, Matrix, "identity", lambda field, size: size == n * n)
    ctx = SystemContext(sys)
    irreducible = next(c for c in ctx.report.checks if c.id == "irreducible")
    assert irreducible.witness["strategy"] == "norton"
    conjectures_stage(ctx)
    assert "closure" not in vars(ctx)
    run_identity_suite(ctx)
    assert "closure" not in vars(ctx)
    assert units == []  # no n^2 matrix units either


def test_an_unvalidated_context_knows_mat_n_without_a_solve(monkeypatch):
    # "T = Mat_n" is read from the validation report, which the first read
    # derives, so no call order decides whether the closure is solved
    sys = _n16_pair()
    validated = SystemContext(sys)
    assert validated.report.passed()
    expected = cj.generate_subalgebras(validated)
    assert expected["T"] is None
    calls = _count_calls(monkeypatch, mx, "algebra_closure")
    assert cj.generate_subalgebras(SystemContext(sys)) == expected
    assert calls == []


def test_identity_suite_factors_each_line_once(monkeypatch):
    # E_0, E_d, E*_0 and E*_d; the relatives' reversed families read their
    # original's factors
    factored = _count_calls(monkeypatch, td, "_line_factors")
    ctx = SystemContext(_n16_pair())
    assert ctx.report.passed() and ctx.report.sharp
    run_identity_suite(ctx)
    d = ctx.sys.d
    expected = [(fam, i) for fam in (ctx.e_fam, ctx.estar_fam) for i in (0, d)]
    assert sorted((id(fam), i) for fam, i in factored) == sorted((id(fam), i) for fam, i in expected)


def test_auto_leaves_a_pair_without_a_line_open_without_a_solve(monkeypatch):
    # E*_0 is a plane, and a closure of dimension n^2 would make the pair
    # sharp, so `auto` reports inconclusive without solving the closure
    calls = _count_calls(monkeypatch, mx, "algebra_closure")
    ctx = SystemContext(gf3_pair_without_a_line())
    irreducible = next(c for c in ctx.report.checks if c.id == "irreducible")
    assert (irreducible.status, irreducible.witness) == (
        "inconclusive",
        {"strategy": "auto", "detail": {"note": "burnside insufficient and E*_0 is not a line"}},
    )
    assert calls == []


def test_conjectures_request_solves_a_proper_closure_once(tmp_path, monkeypatch, capsys):
    doc = document_from_system(gf3_pair_without_a_line(), {"assume": True, "note": "proved exhaustively"})
    calls = _count_calls(monkeypatch, mx, "algebra_closure", _of_the_pair)
    assert run(["conjectures", _write(tmp_path, doc)]) == 3  # not sharp: a skip
    out = json.loads(capsys.readouterr().out)
    assert out["subalgebra_dims"] == {"D": 2, "Dstar": 2, "T": 8, "corner": 2}
    assert len(calls) == 1


@pytest.mark.parametrize("doc", [KRAW_Q, KRAW_GF], ids=["Q", "GF"])
def test_relative_and_dual_families_equal_fresh_ones(doc):
    sys, _ = system_from_document(doc)
    ctx = SystemContext(sys)
    derived = [d4.relative_context(ctx, g) for g in d4.ALL_ELEMENTS]
    derived.append(fl.dual_system(ctx)[0])
    for rel in derived:
        fresh = SystemContext(rel.sys)
        assert rel.e_fam == fresh.e_fam
        assert rel.estar_fam == fresh.estar_fam
        assert fresh.report.passed() and fresh.report.shape == (1, 2, 1)


def _assert_orbit_decompositions_equal_fresh_ones(ctx, monkeypatch):
    """Each relative's summands, as compute_orbit derives them, equal those of
    a fresh context with fresh families and sums, and its complement's
    reversed."""
    relatives = {d4.IDENTITY: ctx}
    derive = d4.relative_context

    def recording(base, g):
        relatives[g] = derive(base, g)
        return relatives[g]

    with monkeypatch.context() as patch:
        patch.setattr(d4, "relative_context", recording)
        d4.compute_orbit(ctx)
    assert len(relatives) == 8
    for g, rel in relatives.items():
        assert rel.decomposition == sp.split_decomposition(SystemContext(rel.sys))
        complement = d4.D4Element(not g.rev_dual, not g.rev_primary, not g.swap)
        assert rel.decomposition == relatives[complement].decomposition[::-1]


@pytest.mark.parametrize("name", [*sorted(GOLDEN_SYSTEMS), "n16"])
def test_orbit_decompositions_equal_fresh_ones(name, monkeypatch):
    sys = _n16_pair() if name == "n16" else GOLDEN_SYSTEMS[name]()
    _assert_orbit_decompositions_equal_fresh_ones(SystemContext(sys), monkeypatch)


@pytest.mark.parametrize("field", [RationalField(), PrimeField(10007)], ids=["Q", "GF"])
def test_orbit_decompositions_equal_fresh_ones_on_the_fuzz_corpus(field, monkeypatch):
    corpus = _fuzz_corpus(field)
    assert len(corpus) >= 10
    for _, ctx in corpus:
        _assert_orbit_decompositions_equal_fresh_ones(ctx, monkeypatch)


def _assert_relatives_and_dual_validate_from_scratch(ctx):
    """Fresh families and `auto` irreducibility: each relative and the dual
    passes validation with the base's shape."""
    assert ctx.report.passed()
    derived = [d4.relative_context(ctx, g) for g in d4.ALL_ELEMENTS]
    derived.append(fl.dual_system(ctx)[0])
    for rel in derived:
        fresh = SystemContext(rel.sys)
        assert fresh.report.passed(), (rel.sys, fresh.report.checks)
        assert fresh.report.shape == ctx.report.shape


@pytest.mark.parametrize("name", sorted(GOLDEN_SYSTEMS))
def test_relatives_and_dual_validate_from_scratch_on_golden_systems(name):
    _assert_relatives_and_dual_validate_from_scratch(SystemContext(GOLDEN_SYSTEMS[name]()))


@pytest.mark.parametrize("field", [RationalField(), PrimeField(10007)], ids=["Q", "GF"])
def test_relatives_and_dual_validate_from_scratch_on_the_fuzz_corpus(field):
    corpus = _fuzz_corpus(field)
    assert len(corpus) >= 10
    for _, ctx in corpus:
        _assert_relatives_and_dual_validate_from_scratch(ctx)


def test_context_derives_each_object_once(x1, monkeypatch):
    sys, _ = x1
    families = _count_calls(monkeypatch, td, "primitive_idempotents")
    closures = _count_calls(monkeypatch, mx, "algebra_closure")
    ctx = SystemContext(sys)
    for _ in range(2):
        assert ctx.report.passed()
        assert ctx.zetas is ctx.zetas
        assert ctx.closure is ctx.closure
    assert len(families) == 2
    assert len(closures) == 1  # one solve across the two reads
