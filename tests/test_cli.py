import argparse
import json
import os
import subprocess
import sys as _sys
from pathlib import Path

import pytest
from oracles import builtin_x1
from test_golden import KRAW_GF, KRAW_Q, X1

import tdlab
from tdlab import appshell as app
from tdlab import d4orbit as d4
from tdlab import splitparam as sp
from tdlab.appshell import document_from_system, dumps_document
from tdlab.cli import build_parser, run
from tdlab.tdcore import InvariantViolation, SystemContext


def _write_x1(tmp_path, **extra):
    sys = builtin_x1().sys
    doc = document_from_system(sys)
    doc.update(extra)
    path = tmp_path / "x1.json"
    path.write_text(dumps_document(doc), encoding="utf-8")
    return str(path)


def _write_reducible(tmp_path):
    doc = {
        "format": "tdlab/1",
        "field": {"kind": "rational"},
        "dimension": 2,
        "A": [["1", "0"], ["0", "0"]],
        "Astar": [["1", "0"], ["0", "0"]],
        "theta": ["1", "0"],
        "theta_star": ["1", "0"],
    }
    path = tmp_path / "reducible.json"
    path.write_text(dumps_document(doc), encoding="utf-8")
    return str(path)


def test_verify_x1(tmp_path, capsys):
    path = _write_x1(tmp_path)
    assert run(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    assert "sharp: True" in out


def test_verify_json_output(tmp_path, capsys):
    path = _write_x1(tmp_path)
    assert run(["verify", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "tdlab-report/1"
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_reducible_exits_one(tmp_path, capsys):
    path = _write_reducible(tmp_path)
    assert run(["verify", path, "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    statuses = {c["id"]: c["status"] for c in doc["checks"]}
    assert statuses["irreducible"] == "fail"


def test_params_x1(tmp_path, capsys):
    path = _write_x1(tmp_path)
    assert run(["params", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["parameter_array"] == {
        "theta": ["1", "0"],
        "theta_star": ["1", "0"],
        "zeta": ["1", "1"],
    }


def test_params_reducible_exits_one_with_witness(tmp_path, capsys):
    path = _write_reducible(tmp_path)
    assert run(["params", path]) == 1
    doc = json.loads(capsys.readouterr().out)
    irr = next(c for c in doc["checks"] if c["id"] == "irreducible")
    assert "invariant_subspace" in irr["witness"]


def test_orbit_x1(tmp_path, capsys):
    path = _write_x1(tmp_path)
    assert run(["orbit", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["orbit"]) == 8
    by_name = {e["relative"]: e for e in doc["orbit"]}
    assert by_name["rev_primary"]["zeta"] == ["1", "2"]


def test_form_x1(tmp_path, capsys):
    path = _write_x1(tmp_path)
    assert run(["form", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gram"] == [["1", "1"], ["1", "-1"]]


def test_conjectures_x1(tmp_path, capsys):
    path = _write_x1(tmp_path)
    assert run(["conjectures", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["subalgebra_dims"] == {"D": 2, "Dstar": 2, "T": 4, "corner": 1}
    assert doc["corner_field_verdict"] == "field"


def test_verify_assume_strategy(tmp_path, capsys):
    path = _write_x1(tmp_path, irreducibility={"assume": True, "note": "external certificate"})
    assert run(["verify", path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    irr = next(c for c in doc["checks"] if c["id"] == "irreducible")
    assert irr["witness"]["strategy"] == "assume"


def test_gen_leonard_writes_document(tmp_path, capsys):
    out = tmp_path / "gen.json"
    code = run(
        [
            "gen",
            "leonard",
            "--theta=1,0",
            "--theta-star=1,0",
            "--phi=1",
            "--field=rational",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["A"] == [["1", "0"], ["1", "0"]]
    report = json.loads(capsys.readouterr().out)
    assert all(c["status"] == "pass" for c in report["checks"])


def test_gen_rejected_candidate_exits_one(tmp_path, capsys):
    code = run(["gen", "leonard", "--theta=1,0", "--theta-star=1,0", "--phi=0"])
    assert code == 1


@pytest.mark.parametrize(
    "lengths, message",
    [
        (["--theta=1,0", "--theta-star=1", "--phi=1"], "theta and theta_star must have equal length"),
        (["--theta=1,0", "--theta-star=1,0", "--phi=1,2"], "phi must have length d"),
    ],
)
def test_gen_rejects_mismatched_lengths(lengths, message, capsys):
    assert run(["gen", "leonard", *lengths]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_gen_over_prime_field(tmp_path, capsys):
    out = tmp_path / "p.json"
    code = run(
        ["gen", "leonard", "--theta=5,6", "--theta-star=7,8", "--phi=2", "--field=p=13", "-o", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["field"] == {"kind": "prime", "modulus": 13}


def test_malformed_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "wrong"}', encoding="utf-8")
    assert run(["verify", str(bad)]) == 2
    assert run(["verify", str(tmp_path / "missing.json")]) == 2


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    assert run(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the decoder's own message is the interpreter's, so only tdlab's prefix
    # and the single line are pinned
    lines = captured.err.splitlines()
    assert len(lines) == 1 and captured.err.endswith("\n")
    assert lines[0].startswith(f"error: invalid JSON in {path}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{dir}"],
        ["verify", "{dir}/latin1.json"],
        ["gen", "leonard", "--theta=1,0", "--theta-star=1,0", "--phi=1", "-o", "{dir}/no/such/x.json"],
        ["fuzz", "--trials", "1", "--seed", "1", "--d-max", "1", "--field", "p=10007", "-o", "{dir}/latin1.json"],
    ],
    ids=["directory", "not-utf8", "gen-output-dir-missing", "fuzz-output-is-a-file"],
)
def test_unusable_files_exit_two(argv, tmp_path, capsys):
    (tmp_path / "latin1.json").write_bytes('{"format": "tdlab/1", "note": "\xe9"}'.encode("latin-1"))
    assert run([a.format(dir=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("target", ["file", "file/sub"], ids=["existing-file", "under-a-file"])
def test_fuzz_unusable_output_fails_before_any_trial(target, tmp_path, capsys, monkeypatch):
    (tmp_path / "file").write_text("not a directory", encoding="utf-8")

    def no_trial(*args):
        raise AssertionError("a trial ran before the output directory was checked")

    monkeypatch.setattr(app, "run_trial", no_trial)
    argv = ["fuzz", "--trials", "2", "--seed", "1", "--field", "p=10007", "-o", str(tmp_path / target)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write to ") and captured.err.count("\n") == 1


def test_bad_field_spec_exits_two(tmp_path):
    assert run(["gen", "leonard", "--theta=1,0", "--theta-star=1,0", "--phi=1", "--field=p=6"]) == 2


def test_fuzz_deterministic_bytes(capsys):
    args = ["fuzz", "--trials", "5", "--seed", "7", "--field", "p=10007", "--d-max", "3"]
    code1 = run(args)
    out1 = capsys.readouterr().out
    code2 = run(args)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["checks"][-1]["witness"]["accepted"] >= 1


def test_skip_statuses_exit_three(tmp_path, capsys):
    # a valid d=3 instance whose ratio quadratic has no rational root:
    # bracket-dependent orbit checks are skipped, so exit code 3
    doc = {
        "format": "tdlab/1",
        "field": {"kind": "rational"},
        "dimension": 4,
        "A": [
            ["0", "0", "0", "0"],
            ["1", "1", "0", "0"],
            ["0", "1", "3", "0"],
            ["0", "0", "1", "2"],
        ],
        "Astar": [
            ["0", "-1", "0", "0"],
            ["0", "1", "-1", "0"],
            ["0", "0", "3", "3"],
            ["0", "0", "0", "2"],
        ],
        "theta": ["0", "1", "3", "2"],
        "theta_star": ["0", "1", "3", "2"],
    }
    path = tmp_path / "noq.json"
    path.write_text(dumps_document(doc), encoding="utf-8")
    assert run(["orbit", str(path)]) == 3
    out = json.loads(capsys.readouterr().out)
    statuses = {c["status"] for c in out["checks"]}
    assert statuses == {"pass", "skip"}


def test_verify_exhaustive_strategy(tmp_path, capsys):
    doc = {
        "format": "tdlab/1",
        "field": {"kind": "prime", "modulus": 13},
        "dimension": 3,
        "A": [["0", "0", "0"], ["1", "1", "0"], ["0", "1", "3"]],
        "Astar": [["2", "5", "0"], ["0", "12", "3"], ["0", "0", "5"]],
        "theta": ["0", "1", "3"],
        "theta_star": ["2", "12", "5"],
    }
    path = tmp_path / "gf13.json"
    path.write_text(dumps_document(doc), encoding="utf-8")
    assert run(["verify", str(path), "--irreducibility=exhaustive", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    irr = next(c for c in out["checks"] if c["id"] == "irreducible")
    assert irr["witness"]["strategy"] == "exhaustive_gfp"


@pytest.mark.parametrize(
    "doc, message",
    [
        (X1, "exhaustive strategy needs a prime field"),
        (KRAW_GF, "exhaustive strategy infeasible: 10007^4 exceeds 1000000"),
    ],
    ids=["rational", "too_large"],
)
def test_verify_names_the_strategy_as_typed(doc, message, tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(dumps_document(doc), encoding="utf-8")
    assert run(["verify", str(path), "--irreducibility", "exhaustive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_zero_q_hint_exits_two(tmp_path, capsys):
    path = _write_x1(tmp_path, q="0")
    assert run(["orbit", path]) == 2
    assert "q must be nonzero" in capsys.readouterr().err


def test_deep_chain_on_a_sharp_pair(tmp_path, capsys):
    # the scan runs until the chain repeats: on the (1,2,1) pair from line 3
    path = tmp_path / "kraw121.json"
    path.write_text(json.dumps(KRAW_Q), encoding="utf-8")
    assert run(["conjectures", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    chain = next(c for c in out["checks"] if c["id"] == "conj/chain_equalities")
    assert chain == {"id": "conj/chain_equalities", "status": "pass", "witness": {"lines": 3}}


def test_boolean_dimension_exits_two(tmp_path, capsys):
    path = _write_x1(tmp_path, dimension=True)
    assert run(["verify", path]) == 2
    assert "dimension must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--field", "p=2"],
        ["--field", "p=3"],
        ["--d-max", "0"],
        ["--d-max", "-1"],
        ["--trials", "0"],
        ["--jobs", "0"],
        ["--jobs", "-3"],
    ],
)
def test_fuzz_rejects_unusable_arguments(flags, capsys):
    assert run(["fuzz", "--trials", "2", "--seed", "2", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("flag, message", [("--d-max", "d-max must be at least 1")])
def test_fuzz_names_the_flag_it_rejects(flag, message, capsys):
    assert run(["fuzz", "--trials", "2", "--seed", "2", flag, "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_removed_options_exit_two(tmp_path, capsys):
    # fuzz validates with `auto`; the chain scan runs until the chain
    # repeats, so neither fuzz nor conjectures takes a depth; verify has no
    # burnside strategy, which on a tridiagonal pair proves irreducibility
    # only where E*_0 is a line and Norton's test decides
    path = _write_x1(tmp_path)
    fuzz = ["fuzz", "--trials", "2", "--seed", "2"]
    for argv in (
        [*fuzz, "--irreducibility", "auto"],
        [*fuzz, "--chain-depth", "3"],
        ["conjectures", path, "--chain-depth", "3"],
        ["verify", path, "--irreducibility", "burnside"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


# Each subcommand's options and their choices (None where any value parses)
OPTION_SURFACE = {
    "verify": {"file": None, "--irreducibility": ["auto", "exhaustive", "assume"], "--json": None},
    "params": {"file": None},
    "orbit": {"file": None},
    "form": {"file": None},
    "conjectures": {"file": None},
    "gen": {
        "kind": ["leonard"],
        "--theta": None,
        "--theta-star": None,
        "--phi": None,
        "--field": None,
        "-o --output": None,
    },
    "fuzz": {
        "--trials": None,
        "--seed": None,
        "--d-max": None,
        "--field": None,
        "--jobs": None,
        "-o --output": None,
    },
}


def test_option_surface():
    (subcommands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: {
            " ".join(a.option_strings) or a.dest: a.choices
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, parser in subcommands.choices.items()
    }
    assert surface == OPTION_SURFACE


def _raise_invariant(*args, **kwargs):
    raise InvariantViolation("injected failure")


@pytest.mark.parametrize(
    "command, module, name, gate",
    [
        ("orbit", d4, "compute_orbit", "orbit/relatives_validate"),
        ("orbit", d4, "q_extract", "orbit/q_extract"),
        ("params", sp, "parameter_array", "split/parameter_array"),
    ],
)
def test_failed_gate_fails_the_request(tmp_path, capsys, monkeypatch, command, module, name, gate):
    path = _write_x1(tmp_path)
    monkeypatch.setattr(module, name, _raise_invariant)
    assert run([command, path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["checks"][-1] == {"id": gate, "status": "fail", "witness": {"error": "injected failure"}}
    assert [c["id"] for c in out["checks"]].count(gate) == 1


@pytest.mark.parametrize("doc", [KRAW_Q, KRAW_GF], ids=["Q", "GF"])
def test_views_run_the_identity_stages(doc, tmp_path, capsys):
    # every view prints, after validation, the checks of one stage of the
    # fuzz suite, and no check id comes from two stages
    sys, _ = app.system_from_document(doc)
    ctx = SystemContext(sys)
    validation = app.checks_to_json(sys.field, ctx.report.checks)
    stages = [app.checks_to_json(sys.field, stage(ctx)[0]) for stage in app.IDENTITY_STAGES]
    ids = [c["id"] for checks in stages for c in checks]
    assert len(set(ids)) == len(ids) == 47
    path = tmp_path / "kraw121.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for view in ("params", "orbit", "form", "conjectures"):
        assert run([view, str(path)]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert checks[: len(validation)] == validation
        assert checks[len(validation) :] in stages, view


def test_internal_error_exits_four_without_traceback(tmp_path, capsys, monkeypatch):
    def boom(ctx):
        raise RuntimeError("injected internal error")

    monkeypatch.setattr(app, "params_stage", boom)
    assert run(["params", _write_x1(tmp_path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: injected internal error\n"
    assert "Traceback" not in captured.err


def test_fuzz_over_a_large_prime_field(capsys):
    assert run(["fuzz", "--trials", "1", "--seed", "1", "--field", f"p={2**61 - 1}"]) == 0
    assert run(["fuzz", "--trials", "1", "--seed", "1", "--field", f"p={2**89 - 1}"]) == 2
    assert "too large" in capsys.readouterr().err


def _fresh_interpreter(*args):
    """Run `python *args` in a new interpreter that imports tdlab from this tree."""
    src = str(Path(tdlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [_sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


# what `cli.run(argv)` leaves in sys.modules: its exit code, the tdlab
# modules, and the process-pool modules
_LOADED = """
import contextlib, io, json, sys
from tdlab import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(sys.argv[1:])
tdlab = sorted(m for m in sys.modules if m == "tdlab" or m.startswith("tdlab."))
pool = [m for m in ("concurrent.futures.process", "multiprocessing") if m in sys.modules]
print(json.dumps([code, tdlab, pool]))
"""

_ALWAYS_LOADED = ("cli", "appshell", "matrices", "scalars", "tdcore", "rng")


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["verify"], ()),
        (["params"], ("polys", "splitparam")),
        (["orbit"], ("polys", "splitparam", "d4orbit")),
        (["form"], ("formlab",)),
        (["conjectures"], ("conjlab", "splitparam", "polys")),
        # gen asserts the split sequence of the instance it built
        (["gen", "leonard", "--theta", "1,0", "--theta-star", "1,0", "--phi", "1"], ("polys", "splitparam")),
    ],
    ids=["verify", "params", "orbit", "form", "conjectures", "gen"],
)
def test_a_request_loads_only_the_modules_it_runs(argv, extra, tmp_path):
    # every request but gen reads the (1,2,1) pair over GF(10007)
    if argv[0] != "gen":
        path = tmp_path / "kraw121_gf.json"
        path.write_text(json.dumps(KRAW_GF), encoding="utf-8")
        argv = [*argv, str(path)]
    proc = _fresh_interpreter("-c", _LOADED, *argv)
    assert proc.returncode == 0, proc.stderr
    code, loaded, pool = json.loads(proc.stdout)
    assert code == 0, proc.stderr
    assert loaded == sorted(["tdlab", *(f"tdlab.{m}" for m in (*_ALWAYS_LOADED, *extra))])
    assert pool == []


def test_fuzz_jobs_in_a_fresh_interpreter():
    # the pool branch imports its executor only when it runs; with at least
    # two CPUs, --jobs 2 starts two workers
    reports = []
    for jobs in ("1", "2"):
        argv = ["fuzz", "--trials", "3", "--seed", "7", "--field", "p=10007", "--jobs", jobs]
        proc = _fresh_interpreter("-m", "tdlab.cli", *argv)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["config"].pop("jobs") == int(jobs)
        reports.append(dumps_document(doc))
    assert reports[0] == reports[1]
