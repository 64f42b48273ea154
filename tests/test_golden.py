"""Golden report digests: the sha256 of each subcommand's default stdout on
fixed documents, plus the exit code.  Any change to report bytes shows up
here; an intended change must update the digest and say why."""

import hashlib
import json

import pytest

from tdlab.cli import run

X1 = {
    "format": "tdlab/1",
    "field": {"kind": "rational"},
    "dimension": 2,
    "A": [["1", "0"], ["1", "0"]],
    "Astar": [["1", "1"], ["0", "0"]],
    "theta": ["1", "0"],
    "theta_star": ["1", "0"],
}

# d=3, ratio quadratic without a rational root: bracket checks are skipped
NO_Q = {
    "format": "tdlab/1",
    "field": {"kind": "rational"},
    "dimension": 4,
    "A": [["0", "0", "0", "0"], ["1", "1", "0", "0"], ["0", "1", "3", "0"], ["0", "0", "1", "2"]],
    "Astar": [["0", "-1", "0", "0"], ["0", "1", "-1", "0"], ["0", "0", "3", "3"], ["0", "0", "0", "2"]],
    "theta": ["0", "1", "3", "2"],
    "theta_star": ["0", "1", "3", "2"],
}

# Krawtchouk-type sharp pair of shape (1,2,1): the tensor square of the
# two-dimensional sl2 module with evaluation parameters 2 and 3
KRAW_Q = {
    "format": "tdlab/1",
    "field": {"kind": "rational"},
    "dimension": 4,
    "A": [["0", "1", "1", "0"], ["1", "0", "0", "1"], ["1", "0", "0", "1"], ["0", "1", "1", "0"]],
    "Astar": [["0", "3", "2", "0"], ["1/3", "0", "0", "2"], ["1/2", "0", "0", "3"], ["0", "1/2", "1/3", "0"]],
    "theta": ["-2", "0", "2"],
    "theta_star": ["-2", "0", "2"],
}

# Krawtchouk-type sharp pair of shape (1,2,2,1): the tensor product of the
# sl2 modules of dimensions 2 and 3 with evaluation parameters 2 and 3
KRAW1221_Q = {
    "format": "tdlab/1",
    "field": {"kind": "rational"},
    "dimension": 6,
    "A": [
        ["0", "2", "0", "1", "0", "0"],
        ["1", "0", "1", "0", "1", "0"],
        ["0", "2", "0", "0", "0", "1"],
        ["1", "0", "0", "0", "2", "0"],
        ["0", "1", "0", "1", "0", "1"],
        ["0", "0", "1", "0", "2", "0"],
    ],
    "Astar": [
        ["0", "6", "0", "2", "0", "0"],
        ["1/3", "0", "3", "0", "2", "0"],
        ["0", "2/3", "0", "0", "0", "2"],
        ["1/2", "0", "0", "0", "6", "0"],
        ["0", "1/2", "0", "1/3", "0", "3"],
        ["0", "0", "1/2", "0", "2/3", "0"],
    ],
    "theta": ["-3", "-1", "1", "3"],
    "theta_star": ["-3", "-1", "1", "3"],
}

KRAW_GF = {
    "format": "tdlab/1",
    "field": {"kind": "prime", "modulus": 10007},
    "dimension": 4,
    "A": [["0", "1", "1", "0"], ["1", "0", "0", "1"], ["1", "0", "0", "1"], ["0", "1", "1", "0"]],
    "Astar": [["0", "3", "2", "0"], ["3336", "0", "0", "2"], ["5004", "0", "0", "3"], ["0", "5004", "3336", "0"]],
    "theta": ["10005", "0", "2"],
    "theta_star": ["10005", "0", "2"],
}

DOCUMENTS = {
    "x1": X1,
    "no_q": NO_Q,
    "kraw121_q": KRAW_Q,
    "kraw121_gf": KRAW_GF,
    "kraw1221_q": KRAW1221_Q,
}
SUBCOMMANDS = {
    "verify": ["verify", "--json"],
    "params": ["params"],
    "orbit": ["orbit"],
    "form": ["form"],
    "conjectures": ["conjectures"],
}

GOLDEN = {
    ("kraw121_gf", "conjectures"): (0, "1c2781e3d4ec08ef2c5f751e0fbe2921957c1aca071eefc4b197ef29a50ecaa7"),
    ("kraw121_gf", "form"): (0, "27dab0328068b65921d47a54d99a18a8244dd4be2fa18b783c729a7bf2a3c7e6"),
    ("kraw121_gf", "orbit"): (0, "e91b9b65dddf8011c5ba6080923b8051a4c7208061c612011d16ec98c3712af9"),
    ("kraw121_gf", "params"): (0, "1a23f36ec3e20f0ab3217a9cdf3519619072e8b2bffb260279923256e4bedd7d"),
    ("kraw121_gf", "verify"): (0, "b612658d518ef5269039f53796b7f5e6d411fb70f0dbc83e4ff0ba56d5fd5dd1"),
    ("kraw1221_q", "conjectures"): (0, "ef463b1f7ebeda2d1e06d0097accaabf1e2387c90a5638b4a6e3012e297f6de7"),
    ("kraw1221_q", "form"): (0, "4f6db68bb86a219a6891ea04b2ac0d1ef66857b503708b8b7c2c686f510fbcb2"),
    ("kraw1221_q", "orbit"): (0, "843077a1932fc760b50473a13683f372d20830e2e08f258ac75036f1f9d905d5"),
    ("kraw1221_q", "params"): (0, "779ae7bbed1e6ed2a116d7355005993664ac74447d71ef2b01150743c3d0ed7b"),
    ("kraw1221_q", "verify"): (0, "41ff6686174630cb984390e4695ad437c143984eb93c4884f739d32f443bf1d8"),
    ("kraw121_q", "conjectures"): (0, "1c2781e3d4ec08ef2c5f751e0fbe2921957c1aca071eefc4b197ef29a50ecaa7"),
    ("kraw121_q", "form"): (0, "27dab0328068b65921d47a54d99a18a8244dd4be2fa18b783c729a7bf2a3c7e6"),
    ("kraw121_q", "orbit"): (0, "2edcb93f5f6629b780d186b84e06b7ac8275dc4e665e74d9014eb07c722a0e57"),
    ("kraw121_q", "params"): (0, "62f92c3f365be3749f38a2ec5b992e27d697d9bb30fc1cb22a914d3bab7e61d1"),
    ("kraw121_q", "verify"): (0, "b612658d518ef5269039f53796b7f5e6d411fb70f0dbc83e4ff0ba56d5fd5dd1"),
    ("no_q", "conjectures"): (0, "3d7a79cc2d19778ed98aaa9f6ac04b772b93157de34e3ed9773a14845e7dc477"),
    ("no_q", "form"): (0, "32b19c84840b41c9457de0691755828a796ce9ddeb685a0128a3a581e9df3820"),
    ("no_q", "orbit"): (3, "b13328e2c8e5e34a51d5eb5126ae93d38b3517b93f4224567e68d47996793d36"),
    ("no_q", "params"): (0, "ee0dca0bd826c07439f8621f947f901b1bdffacd498b646465078b5d3760fa28"),
    ("no_q", "verify"): (0, "8ce86090cd8d0da15071baa69ba28bf8f976fc9878830d46571168c638fde9b8"),
    ("x1", "conjectures"): (0, "a240e2ca831443b27b7723ff0e3f0546a05d10618e44b98134e6633b03e1bde5"),
    ("x1", "form"): (0, "f446d467841a2ece08299a09eab54412b09b790c9d2872cc6eaa8a48742259cd"),
    ("x1", "orbit"): (0, "9235cbde2dc83d9f1fb523f4011fb7536e13e6e0fbc17f88d1ec726a2a3d9f5f"),
    ("x1", "params"): (0, "afffba465a3a006beeea9120c687e77edc22e31138a8a8cae969f92acd684f48"),
    ("x1", "verify"): (0, "abf7a10aa757397b475121203840d24a890ed4fc91165d5bebb54fe08ffb9036"),
}

# The split-form Leonard system at d=6 (theta_i = theta*_i = i,
# phi_i = 2i(i-7)), built with `gen leonard` over each field
LEONARD_D6 = [
    "gen",
    "leonard",
    "--theta=0,1,2,3,4,5,6",
    "--theta-star=0,1,2,3,4,5,6",
    "--phi=-12,-20,-24,-24,-20,-12",
]

GOLDEN_LEONARD_D6 = {
    ("p=10007", "conjectures"): (0, "d690cb83f7a0e5178deece315deeb2d7a0578038ab995873a9560f52d67e0c91"),
    ("p=10007", "form"): (0, "2ab6628dad13dc9cea1a0637d833414c7bb0a85698b2a6fac367d6a5fd369866"),
    ("p=10007", "orbit"): (0, "4c976d1dd1eb11599c80bf84a1632228c3a9bb56783dc9c5abfaa87cb58228ec"),
    ("p=10007", "params"): (0, "7720936ee586b6571d03e217fcd77d1f524865e93a98c55881c1d499b2a9ae1c"),
    ("p=10007", "verify"): (0, "3bcfc9c93264ead94ff5707caf81ff8058cea93686affba8e87fca468be642ea"),
    ("rational", "conjectures"): (0, "d690cb83f7a0e5178deece315deeb2d7a0578038ab995873a9560f52d67e0c91"),
    ("rational", "form"): (0, "6392ee56f78aa4fc7c633ee16172e91060a0216f6857cefb8cb896c43e5c8416"),
    ("rational", "orbit"): (0, "12a4ee7522f12212ee03520f7576b3ce8a449eee87c18ef746ad1d38cf1d8382"),
    ("rational", "params"): (0, "28846fd4d16488476feff660c756a4e452c114706ed05250a2719a682b4fae9e"),
    ("rational", "verify"): (0, "3bcfc9c93264ead94ff5707caf81ff8058cea93686affba8e87fca468be642ea"),
}

GOLDEN_FUZZ = {
    "p=10007": (0, "625bfef1597a8164d8c21e4d0aaf76ca75b88f71f80fe327eb8833ec11065ee5"),
    "rational": (0, "cb046861a1156e9a023e6f2d74a5e31af3cde8ee2877c3ac3bcd4ba9bcb97cc3"),
}


def _digest(argv, capsys):
    code = run(argv)
    return code, hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("doc_name", sorted(DOCUMENTS))
@pytest.mark.parametrize("sub", sorted(SUBCOMMANDS))
def test_report_digest(doc_name, sub, tmp_path, capsys):
    path = tmp_path / f"{doc_name}.json"
    path.write_text(json.dumps(DOCUMENTS[doc_name], indent=2) + "\n", encoding="utf-8")
    head, *flags = SUBCOMMANDS[sub]
    assert _digest([head, str(path), *flags], capsys) == GOLDEN[(doc_name, sub)]


@pytest.fixture(scope="module", params=["p=10007", "rational"])
def leonard_d6(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("leonard") / "leonard6.json"
    assert run([*LEONARD_D6, f"--field={request.param}", "-o", str(path)]) == 0
    return request.param, path


@pytest.mark.parametrize("sub", sorted(SUBCOMMANDS))
def test_leonard_d6_report_digest(leonard_d6, sub, capsys):
    field, path = leonard_d6
    capsys.readouterr()
    head, *flags = SUBCOMMANDS[sub]
    assert _digest([head, str(path), *flags], capsys) == GOLDEN_LEONARD_D6[(field, sub)]


@pytest.mark.parametrize("field", sorted(GOLDEN_FUZZ))
def test_fuzz_digest(field, capsys):
    argv = ["fuzz", "--trials", "3", "--seed", "7", "--field", field]
    assert _digest(argv, capsys) == GOLDEN_FUZZ[field]
