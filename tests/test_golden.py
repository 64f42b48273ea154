"""Golden report digests: the sha256 of each subcommand's default stdout on
fixed documents, plus the exit code.  Any change to report bytes shows up
here; an intended change must update the digest and say why.

GOLDEN and GOLDEN_LEONARD_D6 pin the reports as they were when the
`irreducible` check of a sharp system came from the Burnside closure.  Norton's
test now decides it, so each report is checked twice: as printed, against
NORTON and NORTON_LEONARD_D6, and with the Norton witness written back in the
Burnside form, against the older digests.  The second digest matching shows
that the witness is the only change.

The `orbit` view runs the suite's relations stage, so since that merge its
report carries five ids after validation that the earlier orbit reports did
not (RELATIONS_IDS); PRINTED_ORBIT pins the orbit reports as printed.  Each
orbit report is checked against NORTON and GOLDEN with those five ids
dropped, which shows that they are the only change.

GOLDEN_FUZZ pins the fuzz reports as they were when fuzz validated with the
enumeration of eigenline sums (`eigen_subset`).  It now runs `auto`, which
decides every candidate with Norton's test, and its config no longer names
the strategy or the chain depth, which it always ran at `auto` and 3.  So
each fuzz report is checked three times: against PRINTED_FUZZ as printed;
against NORTON_FUZZ with those two config keys put back where they stood;
and against GOLDEN_FUZZ with, in addition, each trial's `irreducible`
witness and the configured strategy written back in the eigen_subset form."""

import hashlib
import json
import sys as _sys
from pathlib import Path

import pytest

from tdlab import matrices as mx
from tdlab.appshell import (
    checks_to_json,
    conjectures_stage,
    dumps_document,
    run_identity_suite,
    system_from_document,
    to_jsonable,
)
from tdlab.cli import run
from tdlab.matrices import Matrix
from tdlab.scalars import PrimeField
from tdlab.tdcore import SystemContext, TdSystem, ValidateOptions

# the n=16 pair comes from the benchmark's own generator, which is not a package
_sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import kraw  # noqa: E402

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

# The reports as printed, with the Norton `irreducible` witness
NORTON = {
    ("kraw121_gf", "conjectures"): (0, "67e3ea5ba800b1675d05ff92f2edf8b226d8f4c5a40a110878ea8a92f26a55a8"),
    ("kraw121_gf", "form"): (0, "48575e1d7610cf5081ecea7711502530fe74be7ff05b9e833553dcaa1225aeb7"),
    ("kraw121_gf", "orbit"): (0, "b9fa6a26c25287cc80feb0bede5d0a2415956d54ab7193305fa0f9f15d5d1b3c"),
    ("kraw121_gf", "params"): (0, "30b47b5ab660e033f0050a1cd5eed9741ec161d741867127a7b548016dcc3ce4"),
    ("kraw121_gf", "verify"): (0, "5676a121ce8e5cf53607260459b3e5e8dc1df480fa13cb836993869d3afd9e65"),
    ("kraw121_q", "conjectures"): (0, "67e3ea5ba800b1675d05ff92f2edf8b226d8f4c5a40a110878ea8a92f26a55a8"),
    ("kraw121_q", "form"): (0, "48575e1d7610cf5081ecea7711502530fe74be7ff05b9e833553dcaa1225aeb7"),
    ("kraw121_q", "orbit"): (0, "a57a49052bf5f5452864fdec5f06fafc1b26381d61c218fe56239cbc9fcf3468"),
    ("kraw121_q", "params"): (0, "89e1d5049091e1f1dd1ef521510ed64ed640f777d92aad03c2ab04b6571b1626"),
    ("kraw121_q", "verify"): (0, "5676a121ce8e5cf53607260459b3e5e8dc1df480fa13cb836993869d3afd9e65"),
    ("kraw1221_q", "conjectures"): (0, "838255476d4c61b0997a916177bb8fdc1ca7619332670a0cd935f378733206d3"),
    ("kraw1221_q", "form"): (0, "932ff22111a85f6aeb5fb1e1e0081cca9b40833c5aef1425d5719d2011baf92e"),
    ("kraw1221_q", "orbit"): (0, "44706485305ac80d4dcd5fdffd2dc85c313d76e4892799f6b0a1a4975dc94641"),
    ("kraw1221_q", "params"): (0, "c10c1c8578f25e23ee361fd98d12ea3d94feda1dba53ab9f3591dc7f81fd1a27"),
    ("kraw1221_q", "verify"): (0, "7080f6b62f8d3263cb13a06b290d09ceca0767ef6279ec07d5c91d4311754de0"),
    ("no_q", "conjectures"): (0, "c64afcf4291d703e3fce0c40ffc26db5cd5e7a094570df9c8c2e22004b2bb8c2"),
    ("no_q", "form"): (0, "6cd2d18e37751d612f6c0189c5a4033aebe31b49b8e4f8716ed359cdc3f11bfa"),
    ("no_q", "orbit"): (3, "2fb82ab48917701a144b5a4baed5294c4661d4dbc8e1ccf6287793ea96693eb1"),
    ("no_q", "params"): (0, "ef9287ca9f7d9d6ec89fc3f7f846be10fbde5227e557730c409cff19abf4c52c"),
    ("no_q", "verify"): (0, "c10a085f14eb5bc48be7a5ea33c09b79b9208b0590bf32c247b98d6b8644e453"),
    ("x1", "conjectures"): (0, "0d27d7fd79ead2889890440e37ce0c8bcd6a4762cf36ed7939e14d06286c8715"),
    ("x1", "form"): (0, "5bd0e7f73f0622d1f80f0ef1d0a43030a6d5b806487adf7266dbfa2a2377fa95"),
    ("x1", "orbit"): (0, "a71069987bdbec54888efbaacbd879442237bbb078448d3b902250982f3cc844"),
    ("x1", "params"): (0, "59016dc47a0d97c2318d349b9ffade44a806e1c8e9a95183a4be8552479a0a4d"),
    ("x1", "verify"): (0, "f1673f6186c5ba8be118554944b895176d392a8900d56114e69824a08888369c"),
}

NORTON_LEONARD_D6 = {
    ("p=10007", "conjectures"): (0, "ec7700f468632d0dd1bc6de9b08a3660b89e9bcd13e74bac8c2964c25bcd8e2e"),
    ("p=10007", "form"): (0, "58ff63d67cb4f32d5c0679221af9467afc159794487ed991f8f86e7b3cb1b43a"),
    ("p=10007", "orbit"): (0, "71344798cf7e3874a0b53e315a180caef3d66642562507ab07fdf493d7f85e30"),
    ("p=10007", "params"): (0, "b6407cc39d878b5b94d9327e8e1a88de6806be4d466eb2a61a717a7e96e4ed57"),
    ("p=10007", "verify"): (0, "87aeae32a15800a596f766417272ba150d73aac55bd483adbe61298afa45220b"),
    ("rational", "conjectures"): (0, "ec7700f468632d0dd1bc6de9b08a3660b89e9bcd13e74bac8c2964c25bcd8e2e"),
    ("rational", "form"): (0, "71d2129bab47ecf4292c95c70afb42d9f2837ea5a9b236e3befa70c682fd6746"),
    ("rational", "orbit"): (0, "0912e0bcec2b8af0a5f0f480d92bee7a26444c3497a4583b88c71c9f6beafc0a"),
    ("rational", "params"): (0, "3895ebce67fd1ffdda568c8b11e8acf3450d1f6c0b0b68384d5b08ae9ccaff0e"),
    ("rational", "verify"): (0, "87aeae32a15800a596f766417272ba150d73aac55bd483adbe61298afa45220b"),
}

# The ids the orbit view gained by running the suite's relations stage, in
# the order they follow validation
RELATIONS_IDS = [
    "poly/eta_expansion",
    "orbit/q_extract",
    "poly/eta_bracket_expansion",
    "orbit/relatives_validate",
    "split/zeta_star_equal",
]

# The orbit reports as printed, on DOCUMENTS and on the d=6 Leonard systems
PRINTED_ORBIT = {
    "kraw121_gf": (0, "fe4f382020868fb8c1fc387e50f6b2f69275d0df4e18ef8299653cdde367dfb1"),
    "kraw121_q": (0, "59f95fc64ed7b0367d52c83469b17c750b7ba13dd1baec8401ccbb370b6b4562"),
    "kraw1221_q": (0, "04cd5265496e8690e9fd4ca78308bfac1c72a6605856565379dc069e61c58d13"),
    "no_q": (3, "c2f9020221dcd4a27858561fa4b8e2bfec2823fdfbedd80c320f932bc4b1c770"),
    "x1": (0, "65474cd629bd7bebe31df18f2e9d30dec54064f1dde40a895746ed93d45f8d0e"),
    "leonard_d6 p=10007": (0, "7da5b579ec2455e36fbdfe1b48622072f260e1bef2494d8ac98e379d2dad30f7"),
    "leonard_d6 rational": (0, "c2d2c1494042e5878981a831eea2e8bc8de36071766450d46a63fe104c40301e"),
}

GOLDEN_FUZZ = {
    "p=10007": (0, "625bfef1597a8164d8c21e4d0aaf76ca75b88f71f80fe327eb8833ec11065ee5"),
    "rational": (0, "cb046861a1156e9a023e6f2d74a5e31af3cde8ee2877c3ac3bcd4ba9bcb97cc3"),
}

# The fuzz reports with Norton `irreducible` witnesses, as printed while the
# config named the strategy and the chain depth
NORTON_FUZZ = {
    "p=10007": (0, "f2f46fd4ef18a45c1eb33e5dc1a75a2f0e487f3d6403bf136902bd207d4cb0a3"),
    "rational": (0, "d3b509d4c4c358f5eabe58b00d022da5c1490fc6e732bbb6cdb5286b1d157b25"),
}

# The fuzz reports as printed
PRINTED_FUZZ = {
    "p=10007": (0, "f9ba6b2e60a08a50c26643411736ddc52bbe5f26f7cfa9bb2d0cad9da650d349"),
    "rational": (0, "55ddb1619c165f79d66d7a913e2f442d871a5a85fe05ef6914c910d9bbe8bdf4"),
}

# The checks of the whole identity suite (`run_identity_suite`) on sharp pairs
# with an eigenspace of dimension > 1: the (1,2,1) pair over both fields and
# the n=16 pair of shape (1,4,6,4,1) over GF(10007).  The CLI subcommands
# never run the split stage and the fuzz digests see only Leonard systems, so
# this is the digest that pins the split identities on such pairs.
GOLDEN_SUITE = {
    "kraw121_gf": "dbec55372d09ea4a2db2601c549891efc284643cbd5251e03332041eb740685a",
    "kraw121_q": "dbec55372d09ea4a2db2601c549891efc284643cbd5251e03332041eb740685a",
    "kraw16_gf": "47dadb30b0392a7310f4002224dee0b739345682a1fd94e7011ae032f8c7b96c",
}


# The conjectures stage's checks and payload on each way of reaching the
# generated algebra T: Mat_n known from Norton's test (the n=16 pair), Mat_n
# from the solved closure (KRAW_Q under `assume`), and the proper T of the
# GF(3) pair without a line, validated exhaustively and under `assume`.  No
# CLI report reaches the product-form corner, the multiplication-closure
# assertion or a corner of dimension 2.
GOLDEN_CONJECTURES = {
    "gf3_no_line_assume": "a1d097b064aa6a5ab66b4ee3d7ea2b250d64b5f369dca30dc0781453324726ee",
    "gf3_no_line_exhaustive": "a1d097b064aa6a5ab66b4ee3d7ea2b250d64b5f369dca30dc0781453324726ee",
    "kraw121_q_assume": "13ff033da180bf210d4c240b837987cc28409b49e7b662ecbf6f61f7692d3a86",
    "kraw16_gf": "f56914c147e208fffef6a7dff3b05ff0dd9b835a572a3ebc3fa487fbf8bef1b9",
}


def gf3_pair_without_a_line():
    """V = GF(9)^2 read over GF(3), with A = diag(1, 0) and A* = P diag(0, 1)
    P^-1 for P = [[1, 1], [i, 1+i]] over GF(9) = GF(3)[i]: irreducible over
    GF(3), but multiplication by i commutes with both operators, so they
    generate only the 8-dimensional M_2(GF(9)), and no eigenspace is a line."""
    f = PrimeField(3)

    def over_gf3(m):
        # a + b i acts on GF(3)^2 as [[a, -b], [b, a]]
        rows = [[0] * 4 for _ in range(4)]
        for r in range(2):
            for c in range(2):
                a, b = m[r][c]
                for i, row in enumerate(([a, -b], [b, a])):
                    rows[2 * r + i][2 * c : 2 * c + 2] = row
        return Matrix(f, [[f.from_int(x) for x in row] for row in rows])

    a = over_gf3([[(1, 0), (0, 0)], [(0, 0), (0, 0)]])
    p = over_gf3([[(1, 0), (1, 0)], [(0, 1), (1, 1)]])
    astar = p * over_gf3([[(0, 0), (0, 0)], [(0, 0), (1, 0)]]) * mx.inverse(p)
    return TdSystem(f, 4, a, astar, (f.one, f.zero), (f.zero, f.one))


def _kraw16_document():
    a, astar, thetas = kraw.krawtchouk_pair((2, 2, 2, 2), (2, 3, 5, 7))
    return kraw.system_document(a, astar, thetas, kraw.PRIME)


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _as_burnside(doc):
    """Write the report's Norton `irreducible` witness in the Burnside form."""
    (irreducible,) = [c for c in doc["checks"] if c["id"] == "irreducible"]
    assert irreducible["witness"]["strategy"] == "norton"
    n = irreducible["witness"]["detail"]["spin_dim"]
    irreducible["witness"] = {"strategy": "burnside", "detail": {"closure_dim": n * n}}


def _without_relations_ids(doc):
    """Drop RELATIONS_IDS, each present once and in that order, from an
    orbit report."""
    assert [c["id"] for c in doc["checks"] if c["id"] in RELATIONS_IDS] == RELATIONS_IDS
    doc["checks"] = [c for c in doc["checks"] if c["id"] not in RELATIONS_IDS]


def _as_eigen_subset(doc):
    """Write each trial's Norton `irreducible` witness, and the `auto`
    strategy of the fuzz report's config, in the eigen_subset form."""
    trials = [c for c in doc["checks"] if c["id"].startswith("trial_") and c["id"].endswith("/irreducible")]
    assert trials
    for irreducible in trials:
        assert irreducible["witness"]["strategy"] == "norton"
        n = irreducible["witness"]["detail"]["spin_dim"]
        irreducible["witness"] = {"strategy": "eigen_subset", "detail": {"subsets_tested": 2**n - 2}}
    assert doc["config"]["irreducibility"] == "auto"
    doc["config"]["irreducibility"] = "eigen_subset"


def _with_retired_config(doc):
    """Put back the fuzz config keys of the strategy and the chain depth,
    which fuzz always ran at `auto` and 3, where they stood."""
    config = {}
    for key, value in doc["config"].items():
        config[key] = value
        if key == "field":
            config["irreducibility"] = "auto"
        elif key == "jobs":
            config["chain_depth"] = 3
    doc["config"] = config


def _digests(argv, capsys, rewrites=(_as_burnside,)):
    """The exit code, the digest of the report, and the digest of the report
    as each of `rewrites` leaves it, applied in turn."""
    code = run(argv)
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert dumps_document(doc) == out
    digests = [_sha256(out)]
    for rewrite in rewrites:
        rewrite(doc)
        digests.append(_sha256(dumps_document(doc)))
    return code, *digests


def _view_digests(sub, path, capsys, printed_orbit):
    """The exit code and the Norton and Burnside digests of one view's
    report; an orbit report is first checked against `printed_orbit` as
    printed, then read without RELATIONS_IDS."""
    head, *flags = SUBCOMMANDS[sub]
    argv = [head, str(path), *flags]
    if sub != "orbit":
        return _digests(argv, capsys)
    code, printed, norton, burnside = _digests(argv, capsys, (_without_relations_ids, _as_burnside))
    assert (code, printed) == printed_orbit
    return code, norton, burnside


@pytest.mark.parametrize("doc_name", sorted(DOCUMENTS))
@pytest.mark.parametrize("sub", sorted(SUBCOMMANDS))
def test_report_digest(doc_name, sub, tmp_path, capsys):
    path = tmp_path / f"{doc_name}.json"
    path.write_text(json.dumps(DOCUMENTS[doc_name], indent=2) + "\n", encoding="utf-8")
    code, norton, burnside = _view_digests(sub, path, capsys, PRINTED_ORBIT.get(doc_name))
    assert (code, burnside) == GOLDEN[(doc_name, sub)]
    assert (code, norton) == NORTON[(doc_name, sub)]


@pytest.fixture(scope="module", params=["p=10007", "rational"])
def leonard_d6(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("leonard") / "leonard6.json"
    assert run([*LEONARD_D6, f"--field={request.param}", "-o", str(path)]) == 0
    return request.param, path


@pytest.mark.parametrize("sub", sorted(SUBCOMMANDS))
def test_leonard_d6_report_digest(leonard_d6, sub, capsys):
    field, path = leonard_d6
    capsys.readouterr()
    code, norton, burnside = _view_digests(sub, path, capsys, PRINTED_ORBIT.get(f"leonard_d6 {field}"))
    assert (code, burnside) == GOLDEN_LEONARD_D6[(field, sub)]
    assert (code, norton) == NORTON_LEONARD_D6[(field, sub)]


@pytest.mark.parametrize("field", sorted(GOLDEN_FUZZ))
def test_fuzz_digest(field, capsys):
    argv = ["fuzz", "--trials", "3", "--seed", "7", "--field", field]
    code, printed, norton, eigen_subset = _digests(
        argv, capsys, (_with_retired_config, _as_eigen_subset)
    )
    assert (code, eigen_subset) == GOLDEN_FUZZ[field]
    assert (code, norton) == NORTON_FUZZ[field]
    assert (code, printed) == PRINTED_FUZZ[field]


@pytest.mark.parametrize("name", sorted(GOLDEN_SUITE))
def test_identity_suite_digest(name):
    doc = _kraw16_document() if name == "kraw16_gf" else DOCUMENTS[name]
    sys, _ = system_from_document(doc)
    ctx = SystemContext(sys)
    assert ctx.report.passed() and ctx.report.sharp
    checks = checks_to_json(sys.field, run_identity_suite(ctx))
    assert _sha256(dumps_document({"checks": checks})) == GOLDEN_SUITE[name]


def _conjectures_input(name):
    assume = ValidateOptions(irreducibility="assume")
    if name == "kraw16_gf":
        return system_from_document(_kraw16_document())[0], ValidateOptions()
    if name == "kraw121_q_assume":
        return system_from_document(KRAW_Q)[0], assume
    if name == "gf3_no_line_exhaustive":
        return gf3_pair_without_a_line(), ValidateOptions(irreducibility="exhaustive_gfp")
    return gf3_pair_without_a_line(), assume


@pytest.mark.parametrize("name", sorted(GOLDEN_CONJECTURES))
def test_conjectures_stage_digest(name):
    sys, options = _conjectures_input(name)
    ctx = SystemContext(sys, options)
    assert ctx.report.passed()
    checks, payload = conjectures_stage(ctx)
    doc = {"checks": checks_to_json(sys.field, checks), "payload": to_jsonable(sys.field, payload)}
    assert _sha256(dumps_document(doc)) == GOLDEN_CONJECTURES[name]
