"""Acceptance gate: one test per release criterion, each printing its own
pass/fail line.  Everything here is exact arithmetic, so every comparison is
equality with zero tolerance."""

import json
import time
from fractions import Fraction as F

from tdlab import d4orbit as d4
from tdlab import formlab as fl
from tdlab import splitparam as sp
from tdlab import tdcore as td
from tdlab.appshell import (
    RunConfig,
    run_trial,
    _random_candidate,
)
from tdlab.cli import run
from tdlab.matrices import Matrix, det, inverse
from tdlab.rng import SplitMix64, trial_seed
from tdlab.scalars import PrimeField, RationalField

from oracles import (
    anti_image,
    builtin_x1,
    conjecture_crosscheck,
    enumerate_standard_orderings,
    trace,
)

QQ = RationalField()
GFBIG = PrimeField(10007)

REQUIRED_SUITE_IDS = {
    "tridiagonal/A_ordering",
    "tridiagonal/Astar_ordering",
    "split/decomposition",
    "split/sequence",
    "split/bijections",
    "split/trace_nonzero",
    "split/offdiag_products_vanish",
    "split/prefix_product_reductions",
    "split/diag_products_scale",
    "split/raising_identities",
    "split/zeta_star_equal",
    "split/trace_formulas",
    "split/zeta_last_closed_form",
    "split/parameter_array",
    "poly/eta_expansion",
    "poly/eta_bracket_expansion",
    "orbit/column_sequences_equal",
    "orbit/relation_rev_dual",
    "orbit/relation_rev_primary",
    "orbit/relation_rev_both_from_rev_dual",
    "orbit/relation_rev_both_from_rev_primary",
    "orbit/last_term_unchanged_group",
    "orbit/last_term_weighted_group",
    "orbit/last_term_cross_consistency",
    "form/solution_dim",
    "form/symmetric",
    "form/nondegenerate",
    "form/eigenspaces_orthogonal",
    "form/restrictions_nondegenerate",
    "dual/validates",
    "dual/parameter_array_equal",
    "conj/corner_cut_commutes",
    "conj/chain_equalities",
    "conj/corner_generated_by_cut",
    "conj/corner_commutative",
    "conj/pa_distinct",
    "conj/pa_normalization",
    "conj/pa_ratios",
}


def _report(line: str):
    print(line)


def test_criterion_1_golden_instance():
    start = time.monotonic()
    ctx = builtin_x1()
    sys, report = ctx.sys, ctx.report
    assert report.passed() and report.shape == (1, 1) and report.sharp

    e, es = ctx.e_fam, ctx.estar_fam
    assert e[0] == sys.A  # E_0 = A

    zetas = sp.split_sequence(ctx)
    assert zetas == (F(1), F(1))
    values, checks = sp.trace_zeta(ctx)
    assert all(c.status == "pass" for c in checks)
    for name in (
        "dual_prefix_times_trace",
        "primary_prefix_times_trace",
        "corner_trace_ratio",
        "corner_trace_ratio_dual",
    ):
        assert values[name] == [F(1), F(1)]

    array = sp.parameter_array(sys, zetas)
    assert (array.thetas, array.thetas_star, array.zetas) == (
        (F(1), F(0)),
        (F(1), F(0)),
        (F(1), F(1)),
    )

    table = sp.problems_report(ctx)["cross_traces"]
    assert table["tr_Ei_Estar0"] == [F(2), F(-1)]
    assert table["tr_Ei_Estard"] == [F(-1), F(2)]

    assert sp.zeta_d_closed_form(ctx).status == "pass"
    fam_t = __import__("tdlab.polys", fromlist=["TauEtaFamily"]).TauEtaFamily
    f1 = fam_t(QQ, sys.thetas)
    f2 = fam_t(QQ, sys.thetas_star)
    assert f2.eta_at(1, sys.thetas_star[0]) * f1.tau_at(1, sys.thetas[1]) * trace(
        e[1] * es[0]
    ) == F(1)

    orbit = d4.compute_orbit(ctx)
    assert orbit["rev_primary"]["zetas"] == (F(1), F(2))
    assert sp.weighted_zeta_sum(QQ, sys.thetas, sys.thetas_star, zetas) == F(2)
    for c in d4.zeta_relations_check(sys, d4.q_extract(sys), orbit):
        assert c.status == "pass", c

    gram, fchecks = fl.invariant_form(ctx)
    assert all(c.status == "pass" for c in fchecks)
    solution = next(c for c in fchecks if c.id == "form/solution_dim").witness
    assert solution["solution_dim"] == 1
    assert gram == Matrix.from_ints(QQ, [[1, 1], [1, -1]])
    assert det(gram) == F(-2)
    achecks = fl.anti_automorphism(gram, ctx)
    assert all(c.status == "pass" for c in achecks)
    assert anti_image(gram, sys.A) == sys.A and anti_image(gram, sys.Astar) == sys.Astar

    from tdlab.conjlab import corner_algebra

    corner = corner_algebra(ctx, es[0])
    assert len(corner) == 1

    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"golden instance took {elapsed:.3f}s"
    _report(f"ACCEPTANCE 1 (golden instance, {elapsed:.3f}s): PASS")


def test_criterion_2_fuzz_corpus():
    start = time.monotonic()
    accepted = 0
    coverage = set()
    for field in (QQ, GFBIG):
        config = RunConfig(seed=20260810, trials=110, d_max=5, field=field)
        for index in range(config.trials):
            result = run_trial(config, index)
            if not result.accepted:
                continue
            statuses = {c.status for c in result.checks}
            assert statuses == {"pass"}, [
                (c.id, c.status, c.witness) for c in result.checks if c.status != "pass"
            ]
            ids = {c.id for c in result.checks}
            assert REQUIRED_SUITE_IDS <= ids, REQUIRED_SUITE_IDS - ids
            accepted += 1
            coverage.add((field.kind, result.d))
    elapsed = time.monotonic() - start
    assert accepted >= 200, f"only {accepted} accepted instances"
    for field_kind in ("rational", "prime"):
        for d in range(1, 6):
            assert (field_kind, d) in coverage, f"no coverage for {field_kind} d={d}"
    assert elapsed < 300, f"fuzz corpus took {elapsed:.1f}s"
    _report(
        f"ACCEPTANCE 2 (fuzz corpus, {accepted} instances, {elapsed:.1f}s): PASS"
    )


def test_criterion_3_bracket_properties():
    start = time.monotonic()
    assert d4.bracket(QQ, 1, 1, 1, d4.QData("generic", q=F(2))) == F(9, 7)
    no_q = d4.QData("undetermined")
    for r in range(7):
        for s in range(7):
            assert d4.bracket(QQ, r, s, 0, no_q) == F(1)

    for field in (QQ, GFBIG):
        rng = SplitMix64(33)
        tested = 0
        while tested < 50:
            if field is QQ:
                q = F(rng.randint(-12, 12), rng.randint(1, 4))
                if q in (F(0), F(1), F(-1)):
                    continue
            else:
                q = field.from_int(2 + rng.randrange(field.p - 3))
            qd = d4.QData("generic", q=q)
            qd_inv = d4.QData("generic", q=field.one / q)
            for r in range(7):
                for s in range(r, 7):
                    for t in range(s, 7):
                        v = d4.bracket(field, r, s, t, qd)
                        for perm in ((r, t, s), (s, r, t), (t, s, r), (s, t, r), (t, r, s)):
                            assert d4.bracket(field, *perm, qd) == v
                        assert d4.bracket(field, r, s, t, qd_inv) == v
            tested += 1
    elapsed = time.monotonic() - start
    _report(f"ACCEPTANCE 3 (bracket properties, {elapsed:.1f}s): PASS")


def test_criterion_4_standard_ordering_enumeration():
    found = 0
    index = 0
    while found < 20 and index < 400:
        rng = SplitMix64(trial_seed(4242, index))
        index += 1
        d = 2 + rng.randrange(2)  # d in {2, 3}
        field = QQ if rng.randrange(2) else GFBIG
        config = RunConfig(seed=4242, trials=1, d_max=5, field=field)
        ctx = _random_candidate(config, rng, d)
        sys, report = ctx.sys, ctx.report
        if not (report.passed() and report.sharp):
            continue
        orderings = enumerate_standard_orderings(sys, ctx.e_fam, ctx.estar_fam)
        assert len(orderings["A"]) == 2, orderings["A"]
        assert len(orderings["Astar"]) == 2
        assert tuple(sys.thetas) in orderings["A"]
        assert tuple(reversed(sys.thetas)) in orderings["A"]
        found += 1
    assert found == 20
    _report("ACCEPTANCE 4 (standard orderings on 20 instances): PASS")


def test_criterion_5_isomorphism_suite():
    disagreements = 0
    corpus = []
    for field in (QQ, GFBIG):
        config = RunConfig(seed=555, trials=8, d_max=4, field=field)
        for index in range(config.trials):
            result = run_trial(config, index)
            if result.accepted and not result.failed_identity:
                corpus.append(result)
    assert len(corpus) >= 10

    for result in corpus:
        ctx = result.context
        sys = ctx.sys
        field = sys.field
        array = sp.ParameterArray(sys.thetas, sys.thetas_star, ctx.zetas)
        rng = SplitMix64(trial_seed(result.seed, 5))
        for _ in range(10):
            p = _seeded_invertible(field, rng, sys.n)
            pinv = inverse(p)
            conj = td.TdSystem(
                field, sys.n, p * sys.A * pinv, p * sys.Astar * pinv,
                sys.thetas, sys.thetas_star,
            )
            verdict, payload = fl.isomorphism_test(ctx, td.SystemContext(conj))
            assert verdict == "isomorphic"
            gamma = payload["gamma"]
            assert gamma * sys.A == conj.A * gamma
            assert gamma * sys.Astar == conj.Astar * gamma
            assert det(gamma) != field.zero
            conj_ctx = td.SystemContext(
                conj,
                td.ValidateOptions(
                    irreducibility="assume",
                    assume_note="conjugate of a validated system",
                ),
            )
            assert conj_ctx.report.passed()
            conj_array = sp.ParameterArray(
                conj.thetas, conj.thetas_star, sp.split_sequence(conj_ctx)
            )
            if conjecture_crosscheck(verdict, array, conj_array).status != "pass":
                disagreements += 1

        rev = d4.apply_relative(sys, d4.REV_PRIMARY)
        if tuple(rev.thetas) != tuple(sys.thetas):
            verdict, _ = fl.isomorphism_test(ctx, d4.relative_context(ctx, d4.REV_PRIMARY))
            assert verdict == "not_isomorphic"
            rev_orbit_zetas = d4.compute_orbit(ctx)["rev_primary"]["zetas"]
            rev_array = sp.ParameterArray(rev.thetas, rev.thetas_star, rev_orbit_zetas)
            if conjecture_crosscheck(verdict, array, rev_array).status != "pass":
                disagreements += 1

    assert disagreements == 0
    _report(
        f"ACCEPTANCE 5 (isomorphism suite on {len(corpus)} instances, "
        f"0 disagreements): PASS"
    )


def _seeded_invertible(field, rng, n):
    while True:
        if field is QQ:
            rows = [[field.from_int(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        else:
            rows = [[field.from_int(rng.randrange(field.p)) for _ in range(n)] for _ in range(n)]
        m = Matrix(field, rows)
        if det(m) != field.zero:
            return m


def test_criterion_6_negative_instances():
    diag = Matrix.from_ints(QQ, [[1, 0], [0, 0]])
    sys = td.TdSystem(QQ, 2, diag, diag, (F(1), F(0)), (F(1), F(0)))
    report = td.validate(sys)
    assert report.overall == "fail"
    w = next(c for c in report.checks if c.id == "irreducible").witness["invariant_subspace"]
    assert w is not None and 0 < w.dim < 2
    for m in (sys.A, sys.Astar):
        for v in w.basis:
            assert w.contains(m.apply(v))

    from tdlab.appshell import gen_leonard_split

    ctx2 = gen_leonard_split(QQ, (F(1), F(0)), (F(1), F(0)), (F(0),))
    sys2, report2 = ctx2.sys, ctx2.report
    assert report2.overall == "fail"
    w2 = next(c for c in report2.checks if c.id == "irreducible").witness["invariant_subspace"]
    assert w2 is not None and w2.contains((F(0), F(1)))
    for m in (sys2.A, sys2.Astar):
        for v in w2.basis:
            assert w2.contains(m.apply(v))
    _report("ACCEPTANCE 6 (negative instances with verified witnesses): PASS")


def test_criterion_7_fuzz_determinism(capsys):
    args = ["fuzz", "--trials", "25", "--seed", "7"]
    code1 = run(args)
    out1 = capsys.readouterr().out
    code2 = run(args)
    out2 = capsys.readouterr().out
    assert code1 == code2
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["checks"][-1]["id"] == "fuzz/summary"
    assert doc["checks"][-1]["status"] == "pass"
    with capsys.disabled():
        _report("ACCEPTANCE 7 (byte-identical fuzz reports): PASS")
