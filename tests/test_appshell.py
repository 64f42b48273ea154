import concurrent.futures
import dataclasses
import json
from fractions import Fraction as F

import pytest

from tdlab.appshell import (
    FORMAT_REPORT,
    FORMAT_SYSTEM,
    InputError,
    RunConfig,
    _isomorphism_stage,
    conjectures_stage,
    document_from_system,
    dumps_document,
    exit_code_from_checks,
    fuzz_run,
    gen_leonard_split,
    load_system,
    run_identity_suite,
    run_trial,
    system_from_document,
)
from tdlab import appshell
from tdlab import d4orbit as d4
from tdlab import formlab as fl
from tdlab import splitparam as sp
from tdlab.rng import MASK64, SplitMix64, trial_seed
from tdlab.scalars import PrimeField, RationalField
from tdlab.tdcore import InvariantViolation, SystemContext

from oracles import builtin_x1

QQ = RationalField()


def test_splitmix_against_reference_algorithm():
    # independent oracle: the published finalizer, re-implemented inline
    def ref_next(state):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return state, z ^ (z >> 31)

    rng = SplitMix64(1234567)
    state = 1234567
    for _ in range(16):
        state, expected = ref_next(state)
        assert rng.next_u64() == expected


def test_trial_seed_is_stream_output():
    root = 99
    rng = SplitMix64(root)
    expected = [rng.next_u64() for _ in range(5)]
    assert [trial_seed(root, i) for i in range(5)] == expected


def test_randrange_bounds_and_determinism():
    rng = SplitMix64(5)
    vals = [rng.randrange(13) for _ in range(200)]
    assert all(0 <= v < 13 for v in vals)
    rng2 = SplitMix64(5)
    assert vals == [rng2.randrange(13) for _ in range(200)]
    with pytest.raises(ValueError):
        rng.randrange(0)


def test_document_round_trip(x1):
    sys, _ = x1
    doc = document_from_system(sys)
    text = dumps_document(doc)
    reloaded, assume = system_from_document(json.loads(text))
    assert assume is None
    assert document_from_system(reloaded) == doc
    assert dumps_document(document_from_system(reloaded)) == text


def test_non_canonical_scalars_canonicalize_on_load(x1, tmp_path):
    sys, _ = x1
    doc = document_from_system(sys)
    doc["theta"] = ["2/2", "0/5"]
    path = tmp_path / "x1.json"
    path.write_text(dumps_document(doc), encoding="utf-8")
    loaded, _ = load_system(str(path))
    out = document_from_system(loaded)
    assert out["theta"] == ["1", "0"]
    # canonical documents are fixed points of load/save
    path.write_text(dumps_document(out), encoding="utf-8")
    again, _ = load_system(str(path))
    assert dumps_document(document_from_system(again)) == dumps_document(out)


def test_builtin_x1_matches_spec_matrices():
    ctx = builtin_x1()
    sys = ctx.sys
    assert ctx.report.passed()
    assert document_from_system(sys)["A"] == [["1", "0"], ["1", "0"]]
    assert document_from_system(sys)["Astar"] == [["1", "1"], ["0", "0"]]


def test_gen_d0_over_gf13():
    f = PrimeField(13)
    report = gen_leonard_split(f, (f.from_int(5),), (f.from_int(7),), ()).report
    assert report.passed()
    assert report.shape == (1,)


def test_gen_rejects_bad_lengths():
    with pytest.raises(InputError):
        gen_leonard_split(QQ, (F(1), F(0)), (F(1),), (F(1),))
    with pytest.raises(InputError):
        gen_leonard_split(QQ, (F(1), F(0)), (F(1), F(0)), ())


def test_zeta_equals_cumulative_phi_products(inst_d3):
    _, ctx = inst_d3
    from tdlab.splitparam import split_sequence

    zetas = split_sequence(ctx)
    phis = (F(59), F(342, 7), F(-4))
    acc = F(1)
    expected = [F(1)]
    for p in phis:
        acc *= p
        expected.append(acc)
    assert list(zetas) == expected


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(format="nope/9"),
        lambda d: d.update(field={"kind": "complex"}),
        lambda d: d.update(dimension=-1),
        lambda d: d.update(A=[["1", "0"]]),
        lambda d: d.update(theta=["1", "1/0"]),
        lambda d: d.update(theta=["1"]),
        lambda d: d.pop("Astar"),
        lambda d: d.update(irreducibility={"assume": False}),
        lambda d: d.update(dimension=True),
        lambda d: d.update(q="0"),
        lambda d: d.update(theta="10"),
        lambda d: d.update(theta_star="10"),
    ],
)
def test_malformed_documents_rejected(mutate, x1):
    sys, _ = x1
    doc = document_from_system(sys)
    mutate(doc)
    with pytest.raises(InputError):
        system_from_document(doc)


def test_assume_block_round_trips(x1):
    sys, _ = x1
    doc = document_from_system(sys, assume={"assume": True, "note": "certified elsewhere"})
    loaded, note = system_from_document(doc)
    assert note == "certified elsewhere"


def test_run_trial_deterministic():
    cfg = RunConfig(seed=11, trials=4, d_max=3, field=PrimeField(10007))
    r1 = run_trial(cfg, 2)
    r2 = run_trial(cfg, 2)
    assert r1.doc == r2.doc
    assert [c.id for c in r1.checks] == [c.id for c in r2.checks]
    assert r1.seed == r2.seed == trial_seed(11, 2)


def test_identity_suite_payload(x1):
    sys, _ = x1
    ctx = SystemContext(sys)
    checks = run_identity_suite(ctx)
    assert all(c.status == "pass" for c in checks), [c for c in checks if c.status != "pass"]
    assert ctx.zetas == (F(1), F(1))
    _, payload = conjectures_stage(ctx)
    assert payload["subalgebra_dims"] == {"D": 2, "Dstar": 2, "T": 4, "corner": 1}


def test_fuzz_run_deterministic_bytes():
    cfg = RunConfig(seed=7, trials=5, d_max=3, field=PrimeField(10007))
    d1 = fuzz_run(cfg)
    d2 = fuzz_run(cfg)
    assert dumps_document(d1) == dumps_document(d2)
    assert d1["format"] == FORMAT_REPORT
    assert d1["checks"][-1]["id"] == "fuzz/summary"


def test_fuzz_writes_artifacts(tmp_path):
    cfg = RunConfig(seed=3, trials=3, d_max=2, field=PrimeField(10007))
    doc = fuzz_run(cfg, out_dir=str(tmp_path))
    files = sorted(p.name for p in tmp_path.iterdir())
    assert "fuzz-report.json" in files
    instances = [f for f in files if f.startswith("instance-")]
    assert len(instances) == doc["checks"][-1]["witness"]["accepted"]
    loaded, _ = load_system(str(tmp_path / instances[0]))
    assert loaded.field == cfg.field


def test_isomorphism_disagreement_artifacts_name_the_failed_checks(tmp_path, monkeypatch):
    cfg = RunConfig(seed=3, trials=3, d_max=2, field=PrimeField(10007))
    monkeypatch.setattr(fl, "isomorphism_test", lambda a, b: ("not_isomorphic", {}))
    doc = fuzz_run(cfg, out_dir=str(tmp_path))
    assert doc["checks"][-1]["witness"]["identity_counterexamples"] == 0
    failed = [c for c in doc["checks"] if c["id"].startswith("isomorphism/") and c["status"] == "fail"]
    accepted = [c["id"][6:10] for c in doc["checks"] if c["id"].endswith("/generated") and c["witness"]["accepted"]]
    assert accepted and failed
    for index in accepted:
        blob = json.loads((tmp_path / f"counterexample-{index}.json").read_text(encoding="utf-8"))
        mine = [
            c for c in failed
            if c["id"].startswith((f"isomorphism/trial_{index}/", f"isomorphism/equal_array_pair/{index}_"))
        ]
        # every conjugate is declared not isomorphic; the reversed relative rightly is
        assert [c["id"] for c in mine[:2]] == [f"isomorphism/trial_{index}/conjugate_{k}" for k in range(2)]
        assert mine[0]["witness"] == {"verdict": "not_isomorphic", "detail": None}
        assert blob["checks"] == mine
        assert blob["disagreements"][0] == "conjugate"
        assert set(blob["disagreements"]) <= {"conjugate", "equal-array pair"}
    assert (tmp_path / "fuzz-report.json").read_text(encoding="utf-8") == dumps_document(doc)


def test_exit_code_mapping():
    assert exit_code_from_checks([{"id": "a", "status": "pass"}]) == 0
    assert exit_code_from_checks([{"id": "a", "status": "fail"}]) == 1
    assert exit_code_from_checks(
        [{"id": "a", "status": "pass"}, {"id": "b", "status": "skip"}]
    ) == 3
    assert exit_code_from_checks(
        [{"id": "a", "status": "inconclusive"}, {"id": "b", "status": "fail"}]
    ) == 1


def test_load_missing_file_is_input_error(tmp_path):
    with pytest.raises(InputError):
        load_system(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(InputError):
        load_system(str(bad))


def test_format_tag_constant():
    assert FORMAT_SYSTEM == "tdlab/1"


def test_fuzz_jobs_do_not_change_bytes():
    base = RunConfig(seed=7, trials=4, d_max=3, field=PrimeField(10007), jobs=1)
    parallel = RunConfig(seed=7, trials=4, d_max=3, field=PrimeField(10007), jobs=2)
    d1 = fuzz_run(base)
    d2 = fuzz_run(parallel)
    d1["config"].pop("jobs")
    d2["config"].pop("jobs")
    assert dumps_document(d1) == dumps_document(d2)


@pytest.mark.parametrize(
    "cpus, requested", [(64, [3]), (2, [2]), (1, [])], ids=["cpus64", "cpus2", "cpus1"]
)
def test_fuzz_jobs_start_at_most_one_worker_per_trial_and_cpu(monkeypatch, cpus, requested):
    # the pool starts every worker at once; this fake starts none
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # the pool branch imports its executor from concurrent.futures when it runs
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(appshell.os, "cpu_count", lambda: cpus)
    config = RunConfig(seed=7, trials=3, d_max=2, field=PrimeField(10007), jobs=10**6)
    doc = fuzz_run(config)
    assert pools == requested
    assert doc["config"]["jobs"] == 10**6
    serial = fuzz_run(dataclasses.replace(config, jobs=1))
    assert doc["checks"] == serial["checks"]


def _raise_invariant(*args, **kwargs):
    raise InvariantViolation("injected failure")


@pytest.mark.parametrize(
    "module, name, gate",
    [
        (d4, "compute_orbit", "orbit/relatives_validate"),
        (d4, "q_extract", "orbit/q_extract"),
        (sp, "parameter_array", "split/parameter_array"),
    ],
)
def test_failed_gate_stops_the_suite(x1, monkeypatch, module, name, gate):
    sys, _ = x1
    full = [c.id for c in run_identity_suite(SystemContext(sys))]
    monkeypatch.setattr(module, name, _raise_invariant)
    checks = run_identity_suite(SystemContext(sys))
    assert [c.id for c in checks] == full[: full.index(gate) + 1]
    assert checks[-1].status == "fail"
    assert checks[-1].witness == {"error": "injected failure"}


def _equal_array_pair():
    """One accepted trial and a copy of it under another index: two accepted
    results sharing one parameter array."""
    cfg = RunConfig(seed=1, trials=2, d_max=1, field=PrimeField(10007))
    first = run_trial(cfg, 0)
    assert first.accepted and not first.failed_identity
    return cfg, [first, dataclasses.replace(first, index=1)]


def test_isomorphism_stage_runs_every_case_kind():
    cfg, results = _equal_array_pair()
    checks, disagreements = _isomorphism_stage(cfg, results)
    per_trial = ["conjugate_0", "conjugate_1", "reversed_relative"]
    assert [c.id for c in checks] == [
        *(f"trial_0000/{k}" for k in per_trial),
        *(f"trial_0001/{k}" for k in per_trial),
        "equal_array_pair/0000_0001",
    ]
    assert all(c.status == "pass" and c.witness is None for c in checks)
    assert disagreements == []


def test_isomorphism_stage_flags_an_equal_array_pair_judged_not_isomorphic(monkeypatch):
    cfg, results = _equal_array_pair()
    monkeypatch.setattr(fl, "isomorphism_test", lambda a, b: ("not_isomorphic", {}))
    checks, disagreements = _isomorphism_stage(cfg, results)
    pair = checks[-1]
    assert pair.id == "equal_array_pair/0000_0001"
    assert pair.status == "fail" and pair.witness == {"verdict": "not_isomorphic"}
    assert [(r.index, kind, c.id) for r, kind, c in disagreements] == [
        (0, "conjugate", "trial_0000/conjugate_0"),
        (0, "conjugate", "trial_0000/conjugate_1"),
        (1, "conjugate", "trial_0001/conjugate_0"),
        (1, "conjugate", "trial_0001/conjugate_1"),
        (0, "equal-array pair", "equal_array_pair/0000_0001"),
    ]


def test_isomorphism_stage_maps_an_invariant_violation_to_the_error_verdict(monkeypatch):
    cfg, results = _equal_array_pair()

    def boom(a, b):
        raise InvariantViolation("boom")

    monkeypatch.setattr(fl, "isomorphism_test", boom)
    checks, disagreements = _isomorphism_stage(cfg, results)
    assert all(c.status == "fail" for c in checks)
    for c in checks:
        if "/conjugate_" in c.id:
            assert c.witness == {"verdict": "error", "detail": "boom"}
        else:
            assert c.witness == {"verdict": "error"}
    assert [kind for _, kind, _ in disagreements] == [
        "conjugate", "conjugate", "reversed", "conjugate", "conjugate", "reversed", "equal-array pair",
    ]
