import json

import pytest

from tdlab import d4orbit as d4
from tdlab import splitparam as sp
from tdlab.appshell import document_from_system, dumps_document, builtin_x1
from tdlab.cli import run
from tdlab.tdcore import InvariantViolation


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


def test_zero_q_hint_exits_two(tmp_path, capsys):
    path = _write_x1(tmp_path, q="0")
    assert run(["orbit", path]) == 2
    assert "q must be nonzero" in capsys.readouterr().err


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
        ["--chain-depth", "0"],
        ["--chain-depth", "-4"],
    ],
)
def test_fuzz_rejects_unusable_arguments(flags, capsys):
    assert run(["fuzz", "--trials", "2", "--seed", "2", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("depth", ["0", "-4"])
def test_conjectures_rejects_chain_depth_below_one(depth, tmp_path, capsys):
    assert run(["conjectures", _write_x1(tmp_path), "--chain-depth", depth]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: chain-depth must be at least 1\n"


def _raise_invariant(*args, **kwargs):
    raise InvariantViolation("injected failure")


@pytest.mark.parametrize(
    "command, module, name, gate",
    [
        ("orbit", d4, "compute_orbit", "orbit/relatives_validate"),
        ("orbit", d4, "q_extract", "orbit/relatives_validate"),
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


def test_fuzz_over_a_large_prime_field(capsys):
    assert run(["fuzz", "--trials", "1", "--seed", "1", "--field", f"p={2**61 - 1}"]) == 0
    assert run(["fuzz", "--trials", "1", "--seed", "1", "--field", f"p={2**89 - 1}"]) == 2
    assert "too large" in capsys.readouterr().err
