"""Exit code and stdout sha256 of a fixed set of tdlab runs.

    python3 scripts/report_digests.py > digests.txt

Run from the root of a tdlab checkout; the program is imported from its
`src/`, in this one process.  Each output line is `exit sha256 argv`, with
documents named by file name, so the outputs of two checkouts compare
line by line with `diff`.  The runs are:

  * `verify --json`, `verify`, `params`, `orbit`, `form` and `conjectures`
    on the eight cli-kraw documents of the benchmark (the Krawtchouk pairs
    of shapes (1,2,1), (1,2,2,1) and (1,3,3,1) and the d=6 Leonard system,
    over Q and GF(10007)), on the n=16 Krawtchouk pair of shape
    (1,4,6,4,1) over both fields, and on the GF(3) pair of
    `tests/test_golden.gf3_pair_without_a_line()` with an
    `{"assume": true}` block, the one document with rho_0 > 1 (each of its
    six runs exits 3);
  * `fuzz --trials 25 --seed 7` over `rational` and `p=10007`;
  * `fuzz --trials 6 --seed 3 --field p=10007`;
  * `fuzz --trials 100 --seed 1 --field p=5 --d-max 1`, which exits 1.

The documents are built by `perfbench/kraw.py` and `tests/test_golden.py`
into a temporary directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import kraw  # noqa: E402
from tdlab import appshell, cli  # noqa: E402
from test_golden import gf3_pair_without_a_line  # noqa: E402

VIEWS = (("verify", "--json"), ("verify",), ("params",), ("orbit",), ("form",), ("conjectures",))
FUZZ = (
    ("fuzz", "--trials", "25", "--seed", "7", "--field", "rational"),
    ("fuzz", "--trials", "25", "--seed", "7", "--field", f"p={kraw.PRIME}"),
    ("fuzz", "--trials", "6", "--seed", "3", "--field", f"p={kraw.PRIME}"),
    ("fuzz", "--trials", "100", "--seed", "1", "--field", "p=5", "--d-max", "1"),
)


def run(argv):
    """(exit code, stdout) of `tdlab.cli.run(argv)`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(list(argv))
    return code, out.getvalue()


def write_documents(workdir: Path) -> list:
    """The documents, as paths in `workdir`, in run order."""
    paths = []
    for prime in (None, kraw.PRIME):
        tag = "q" if prime is None else f"p{prime}"
        docs = {}
        for shape, dims in kraw.SHAPES.items():
            # the cli-kraw evaluation parameters, one per tensor factor
            docs[f"kraw{''.join(map(str, shape))}-{tag}"] = kraw.krawtchouk_document(
                shape, (2, 3, 5)[: len(dims)], prime
            )
        docs[f"kraw14641-{tag}"] = kraw.system_document(
            *kraw.krawtchouk_pair((2, 2, 2, 2), (2, 3, 5, 7)), prime
        )
        for name, doc in docs.items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
            paths.append(path)
        path = workdir / f"leonard{kraw.LEONARD_D}-{tag}.json"
        code, _ = run([*kraw.leonard_gen_args(prime), "-o", str(path)])
        if code != 0:
            raise SystemExit(f"tdlab gen leonard exited {code}")
        paths.append(path)
    path = workdir / "gf3-no-line-assume.json"
    doc = appshell.document_from_system(gf3_pair_without_a_line(), {"assume": True})
    path.write_text(appshell.dumps_document(doc), encoding="utf-8")
    paths.append(path)
    return paths


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        runs = [(view[0], path, *view[1:]) for path in write_documents(Path(tmp)) for view in VIEWS]
        for argv in [*runs, *FUZZ]:
            code, text = run([str(a) for a in argv])
            shown = " ".join(a.name if isinstance(a, Path) else a for a in argv)
            print(code, hashlib.sha256(text.encode("utf-8")).hexdigest(), shown, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
