"""The tdlab benchmark: one command, two declared workloads, checked outputs.

    python3 perfbench/run.py --workload fuzz-gfp --seed 1 --seconds 60 --trace 0

Run from the root of a tdlab checkout; the program is imported from
`src/`.  Workloads (see BENCHMARK.json and perfbench/METRICS.md):

  fuzz-gfp  closed loop of in-process one-trial `tdlab fuzz --field p=10007`
            calls
  cli-kraw  closed loop of `python -m tdlab.cli <subcommand> <doc>`
            subprocesses over Krawtchouk-type sharp pairs and a Leonard
            system, over both fields
  fuzz-q    fuzz-gfp over `--field rational`; not declared in BENCHMARK.json,
            for runs by hand (METRICS.md says why)

The fuzz calls come in whole cycles of five, whose diameters are 1..5,
one each, so every cycle does the same mix of work; the fuzz seeds are
drawn from `--seed`.  After every other fuzz call the fuzz workloads also
time each subcommand as a `python -m tdlab.cli` request on the (1,2,1)
pair of their field.  With `--trace 1` a fixed amount of the same work
runs with every public tdlab function wrapped (spans.py) and the
per-layer metrics are printed instead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Full results, report digests and spans go to
`.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import kraw
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("fuzz-gfp", "cli-kraw")
BY_HAND = ("fuzz-q",)
FUZZ_FIELDS = {"fuzz-q": "rational", "fuzz-gfp": f"p={kraw.PRIME}"}
D_MAX = 5
SETUP_REPS = 7
TRACED_FUZZ_CYCLES = 2
# fuzz seeds of diameter <= VET_MAX_D are vetted for acceptance, VET_BATCH at a time
VET_MAX_D = 2
VET_BATCH = 12
SUBCOMMANDS = (("verify", ("--json",)), ("params", ()), ("orbit", ()), ("form", ()), ("conjectures", ()))
# request_s.tail: the highest quantile with at least ten samples beyond it
# in the smallest request count a 60 s run makes (70 probe requests on
# fuzz-gfp, which makes about 110; one 40-request pass on cli-kraw); fixed
# so that a run with more samples reports the same quantile.
TAIL_QUANTILE = {"fuzz-q": 0.85, "fuzz-gfp": 0.85, "cli-kraw": 0.75}

END_TO_END = (
    "setup_s",
    "trials_per_s",
    "request_s.p50",
    "request_s.tail",
    *(f"{sub}_s.p50" for sub, _ in SUBCOMMANDS),
)


class BenchError(RuntimeError):
    """The benchmark cannot run: no program here, or a setup check failed."""


# ---------------------------------------------------------------------------
# helpers


def subprocess_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def median(values):
    return statistics.median(values) if values else 0.0


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of timing samples.

    A weighted mean of all order statistics, with the weight of the i-th
    smallest of n given by a Beta(p(n+1), (1-p)(n+1)) distribution over
    ((i-1)/n, i/n].  A plain median of 8 different documents rests on the
    two middle samples; this estimate spreads over several, so one sample
    caught in a slow moment of the machine moves it less.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 2:
        return xs[0] if xs else 0.0
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    per_bin = 200  # midpoint rule, per bin of width 1/n
    cdf, acc = [0.0], 0.0
    for k in range(n * per_bin):
        x = (k + 0.5) / (n * per_bin)
        acc += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        if (k + 1) % per_bin == 0:
            cdf.append(acc)
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)) / cdf[-1]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def all_pass_report(text: str) -> bool:
    """Whether text is a tdlab-report/1 document whose checks all pass."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return False
    return (
        isinstance(doc, dict)
        and doc.get("format") == "tdlab-report/1"
        and bool(doc.get("checks"))
        and all(c.get("status") == "pass" for c in doc["checks"])
    )


def run_in_process(argv):
    """(seconds, exit code, stdout) of `tdlab.cli.run(argv)` in this process."""
    from tdlab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        code = cli.run(list(argv))
        seconds = time.perf_counter() - start
    return seconds, code, buf.getvalue()


def run_subprocess(argv, env):
    """(seconds, exit code, stdout) of one command in a fresh interpreter."""
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, cwd=ROOT, timeout=170)
    seconds = time.perf_counter() - start
    return seconds, proc.returncode, proc.stdout


class Run:
    """Outcome bookkeeping of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = {}
        self.notes = {}

    def record(self, key: str, code: int, text: str, extra_ok: bool = True):
        """Count one tdlab command.

        It fails on a nonzero exit, a report that is not all-pass, or a
        report whose bytes differ from an earlier run of the same request.
        """
        self.attempted += 1
        ok = all_pass_report(text)
        digest = sha256(text)
        same = self.digests.setdefault(key, digest) == digest
        if code != 0 or not ok or not extra_ok or not same:
            self.failed += 1
            self.errors.append(f"{key}: exit {code}, all-pass {ok}, checks {extra_ok}, same bytes {same}")


# ---------------------------------------------------------------------------
# setup


def import_time() -> float:
    """Seconds for a fresh interpreter to import tdlab.cli."""
    seconds, code, _ = run_subprocess([sys.executable, "-c", "import tdlab.cli"], subprocess_env())
    if code != 0:
        raise BenchError("importing tdlab.cli failed")
    return seconds


class Spread:
    """Side measurements spread evenly over a run's main loop.

    A shared 2-core host's speed swings by about 20 % over periods of 5 to
    20 s, so samples taken in one burst all see the same moment; spread
    over the run, their median sees many.  `catch_up(f)` runs each task
    until it has done a fraction f of its count.
    """

    def __init__(self, *tasks):
        self.tasks = [(count, fn) for count, fn in tasks]
        self.done = [0] * len(self.tasks)

    def catch_up(self, fraction: float):
        for i, (count, fn) in enumerate(self.tasks):
            while self.done[i] < math.ceil(count * min(1.0, fraction)):
                fn()
                self.done[i] += 1


def check_document(path: Path, shape) -> None:
    """Before timing: the document verifies with exit 0 and has the expected shape."""
    _, code, text = run_in_process(["verify", str(path)])
    lines = text.splitlines()
    if code != 0 or "overall: pass" not in lines:
        raise BenchError(f"{path.name} does not verify (exit {code})")
    expected = f"shape: {list(shape)}  sharp: True"
    if expected not in lines:
        raise BenchError(f"{path.name}: expected '{expected}'")


def write_kraw_document(path: Path, shape, params, prime) -> None:
    doc = kraw.krawtchouk_document(shape, params, prime)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def kraw_params(shape):
    """The evaluation parameters (2, 3, 5), cut to the number of tensor
    factors.  They are the same for every seed: reordering them changes a
    request's cost by up to 40 %, which would show as noise between seeds."""
    return (2, 3, 5)[: len(kraw.SHAPES[shape])]


def build_kraw_documents(workdir: Path):
    """The cli-kraw documents: [(name, path)], each checked before timing."""
    docs = []
    env = subprocess_env()
    for prime in (None, kraw.PRIME):
        tag = "q" if prime is None else f"p{prime}"
        for shape in kraw.SHAPES:
            name = f"kraw{''.join(map(str, shape))}-{tag}"
            path = workdir / f"{name}.json"
            write_kraw_document(path, shape, kraw_params(shape), prime)
            check_document(path, shape)
            docs.append((name, path))
        name = f"leonard{kraw.LEONARD_D}-{tag}"
        path = workdir / f"{name}.json"
        argv = [sys.executable, "-m", "tdlab.cli", *kraw.leonard_gen_args(prime), "-o", str(path)]
        _, code, _ = run_subprocess(argv, env)
        if code != 0:
            raise BenchError(f"tdlab gen leonard exited {code}")
        check_document(path, (1,) * (kraw.LEONARD_D + 1))
        docs.append((name, path))
    return docs


class FuzzSeeds:
    """Endless cycles of five one-trial fuzz seeds, one of each diameter 1..5.

    tdlab's fuzz draws trial 0's diameter as the first randint(1, d_max) of
    SplitMix64(trial_seed(S, 0)).  Each cycle takes the diameters in a
    seed-chosen order; iterating yields (fuzz seed, predicted diameter), and
    each call's report is checked against the prediction, so a changed
    stream shows as a note, not silently.

    tdlab's validator rejects some generated candidates (about 4 % at d=2
    over Q), and a one-trial call whose trial is rejected fails.  So seeds
    of diameter <= VET_MAX_D are vetted with vet.py, in a process of its
    own, VET_BATCH at a time; the first batch is vetted when the stream is
    made, before any timing.
    """

    def __init__(self, workload: str, seed: int, field: str):
        self.rng = random.Random(f"{workload}:{seed}")
        self.field = field
        self.vetted = {d: [] for d in range(1, VET_MAX_D + 1)}
        self.vet()

    def draw(self, d: int) -> int:
        from tdlab.rng import SplitMix64, trial_seed

        while True:
            candidate = self.rng.randrange(1 << 32)
            if SplitMix64(trial_seed(candidate, 0)).randint(1, D_MAX) == d:
                return candidate

    def vet(self):
        """Refill every empty pool of vetted seeds, in one vet.py process."""
        while empty := [d for d, pool in self.vetted.items() if not pool]:
            candidates = [(d, self.draw(d)) for d in empty for _ in range(VET_BATCH)]
            vet = Path(__file__).resolve().parent / "vet.py"
            argv = [sys.executable, str(vet), self.field, str(D_MAX), *(str(c) for _, c in candidates)]
            _, code, text = run_subprocess(argv, subprocess_env())
            if code != 0:
                raise BenchError(f"vetting fuzz seeds failed (exit {code})")
            for (d, candidate), ok in zip(candidates, json.loads(text)):
                if ok:
                    self.vetted[d].append(candidate)

    def __iter__(self):
        while True:
            order = list(range(1, D_MAX + 1))
            self.rng.shuffle(order)
            for d in order:
                if d > VET_MAX_D:
                    yield self.draw(d), d
                    continue
                self.vet()
                yield self.vetted[d].pop(0), d


# ---------------------------------------------------------------------------
# workloads


def fuzz_call(run: Run, field: str, fuzz_seed: int, d: int):
    """One `tdlab fuzz` call of one trial; returns its wall time in seconds."""
    argv = ["fuzz", "--field", field, "--d-max", str(D_MAX), "--seed", str(fuzz_seed), "--trials", "1"]
    seconds, code, text = run_in_process(argv)
    summary = {}
    try:
        checks = json.loads(text)["checks"]
        summary = checks[-1]["witness"] if checks[-1]["id"] == "fuzz/summary" else {}
        ds = [c["witness"]["d"] for c in checks if c["id"].endswith("/generated")]
    except (json.JSONDecodeError, KeyError, IndexError, TypeError):
        ds = []
    clean = (
        summary.get("identity_counterexamples") == 0
        and summary.get("isomorphism_disagreements") == 0
        and summary.get("trials") == 1
    )
    run.record(f"fuzz --field {field} --seed {fuzz_seed}", code, text, clean)
    if ds != [d]:
        run.notes.setdefault("unexpected_diameters", []).append({"seed": fuzz_seed, "expected": d, "d": ds})
    return seconds


class SpanLog:
    """The spans and counters of one traced run, merged across processes."""

    def __init__(self):
        self.spans = []
        self.counters = {}

    def add(self, span_list, counters, prefix: str):
        base = len(self.spans)
        for span in span_list:
            span[1] = f"{prefix}{span[1]}"  # trace ids stay unique across processes
            if span[4] != -1:
                span[4] += base
        self.spans.extend(span_list)
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0) + value


def cli_request(run: Run, env, sub: str, flags, name: str, path: Path) -> float:
    """One `python -m tdlab.cli <sub> <doc>` request; returns its wall time."""
    t, code, text = run_subprocess([sys.executable, "-m", "tdlab.cli", sub, str(path), *flags], env)
    run.record(f"{sub} {name}", code, text)
    return t


def traced_requests(run: Run, log: SpanLog, requests, workdir: Path, env):
    """Run requests through shim.py; returns (wall seconds, startup seconds) per request.

    Startup is the request's wall time minus its `cli.run` span: interpreter
    start, imports and installing the wrappers.
    """
    shim = Path(__file__).resolve().parent / "shim.py"
    spandir = workdir / "spans"
    spandir.mkdir(exist_ok=True)
    walls, startup = [], []
    for i, (sub, flags, name, path) in enumerate(requests):
        out = spandir / f"{i:03d}.jsonl"
        t, code, text = run_subprocess([sys.executable, str(shim), str(out), sub, str(path), *flags], env)
        run.record(f"{sub} {name}", code, text)
        _, counters, request_spans = spans.load(out)
        startup.append(t - sum(s[3] - s[2] for s in request_spans if s[0] == "cli.run"))
        log.add(request_spans, counters, f"r{i}.")
        walls.append(t)
    return walls, startup


def fuzz_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    field = FUZZ_FIELDS[workload]
    prime = None if field == "rational" else kraw.PRIME
    probe_path = workdir / "kraw121.json"
    shape = (1, 2, 1)
    write_kraw_document(probe_path, shape, kraw_params(shape), prime)
    check_document(probe_path, shape)
    probe = [(sub, flags, f"kraw121-{workload}", probe_path) for sub, flags in SUBCOMMANDS]
    seeds = iter(FuzzSeeds(workload, seed, field))
    run = Run()

    if not trace:
        import_time()  # warm-up: writes the bytecode cache
        setup = []
        times = {sub: [] for sub, _ in SUBCOMMANDS}

        env = subprocess_env()

        def probe_round():
            for req in probe:
                times[req[0]].append(cli_request(run, env, *req))

        side = Spread((SETUP_REPS, lambda: setup.append(import_time())))
        call_times = []
        cycles = 0
        start = time.perf_counter()
        # whole cycles of d = 1..5, at least one, ending as near to the
        # time as whole cycles can; every other fuzz call is followed by
        # one probe round
        while not cycles or (time.perf_counter() - start) * (cycles + 0.5) / cycles <= seconds:
            for _ in range(D_MAX):
                call_times.append(fuzz_call(run, field, *next(seeds)))
                if len(call_times) % 2 == 0:
                    probe_round()
                side.catch_up((time.perf_counter() - start) / seconds)
            cycles += 1
        side.catch_up(1.0)
        every = [t for ts in times.values() for t in ts]
        metrics = {
            "setup_s": quantile(setup, 0.5),
            "trials_per_s": len(call_times) / sum(call_times),
            "request_s.p50": quantile(every, 0.5),
            "request_s.tail": quantile(every, TAIL_QUANTILE[workload]),
            **{f"{sub}_s.p50": quantile(ts, 0.5) for sub, ts in times.items()},
        }
        run.notes["fuzz_call_s"] = call_times
        run.notes["request_s"] = times
        return run, metrics, None

    # traced: a fixed number of fuzz calls, each also run untraced as the
    # overhead baseline, in the order ABBA so that warm-up and drift cancel;
    # one round of the probe runs through the shim
    fixed = [next(seeds) for _ in range(TRACED_FUZZ_CYCLES * D_MAX)]
    tracer = spans.Tracer()
    annotate = {"appshell.run_trial": lambda r: {"d": r.d, "accepted": r.accepted}}
    untraced = traced = 0.0
    for i, (fuzz_seed, d) in enumerate(fixed):
        for traced_call in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced_call:
                untraced += fuzz_call(run, field, fuzz_seed, d)
                continue
            tracer.install(annotate=annotate)
            try:
                traced += fuzz_call(run, field, fuzz_seed, d)
            finally:
                tracer.uninstall()
    log = SpanLog()
    log.add(tracer.spans, tracer.counters, "fuzz.")
    _, startup = traced_requests(run, log, probe, workdir, subprocess_env())
    extra = {
        "trace.trials_per_s": len(fixed) / traced,
        "trace.overhead": traced / untraced,
        "cli.startup_s": median(startup),
    }
    return run, extra, log


def kraw_workload(seed: int, seconds: float, trace: bool, workdir: Path):
    docs = build_kraw_documents(workdir)
    env = subprocess_env()
    run = Run()
    rng = random.Random(f"cli-kraw-order:{seed}")
    requests = [(sub, flags, name, path) for name, path in docs for sub, flags in SUBCOMMANDS]

    if not trace:
        import_time()  # warm-up: writes the bytecode cache
        setup = []
        side = Spread((SETUP_REPS, lambda: setup.append(import_time())))
        times = {sub: [] for sub, _ in SUBCOMMANDS}
        passes = 0
        start = time.perf_counter()
        # whole passes, as many as fit in the time, at least one
        while not passes or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
            order = list(requests)
            rng.shuffle(order)
            for i, req in enumerate(order):
                times[req[0]].append(cli_request(run, env, *req))
                if not passes:
                    side.catch_up((i + 1) / len(order))
            passes += 1
        every = [t for ts in times.values() for t in ts]
        metrics = {
            "setup_s": quantile(setup, 0.5),
            "trials_per_s": passes * len(docs) / sum(every),
            "request_s.p50": quantile(every, 0.5),
            "request_s.tail": quantile(every, TAIL_QUANTILE["cli-kraw"]),
            **{f"{sub}_s.p50": quantile(ts, 0.5) for sub, ts in times.items()},
        }
        run.notes["passes"] = passes
        run.notes["request_s"] = times
        return run, metrics, None

    # traced: one pass through the shim; the verify requests also run
    # untraced first, as the overhead baseline
    verify = [req for req in requests if req[0] == "verify"]
    untraced = sum(cli_request(run, env, *req) for req in verify)
    order = list(requests)
    rng.shuffle(order)
    log = SpanLog()
    walls, startup = traced_requests(run, log, order, workdir, env)
    traced_verify = sum(t for t, req in zip(walls, order) if req[0] == "verify")
    extra = {
        "trace.trials_per_s": len(docs) / sum(walls),
        "trace.overhead": traced_verify / untraced,
        "cli.startup_s": median(startup),
    }
    return run, extra, log


# ---------------------------------------------------------------------------
# per-layer metrics


LAYER_COUNTS = (
    "tdcore.validate",
    "tdcore.primitive_idempotents",
    "splitparam.split_decomposition",
    "formlab.isomorphism_test",
    "matrices.matmul",
    "matrices.rref",
)
LAYER_TIMES = (
    "appshell.load_system",
    "appshell.dumps_document",
    "tdcore.primitive_idempotents",
    "tdcore.check_irreducible",
    "splitparam.split_decomposition",
    "d4orbit.compute_orbit",
    "formlab.isomorphism_test",
    "formlab.invariant_form",
    "formlab.dual_system",
    "conjlab.generate_subalgebras",
    "conjlab.corner_algebra_checks",
    "matrices.algebra_closure",
    "matrices.intertwiner_space",
)
LAYER_SELF = ("matrices.matmul", "matrices.rref")


def per_layer_metrics(span_list, counters, extra) -> dict:
    summary = spans.summarize(span_list)
    names = summary["names"]

    def stat(name, key):
        return names.get(name, {}).get(key, 0)

    out = {}
    trials = [s for s in span_list if s[0] == "appshell.run_trial" and s[6]]
    for d in range(1, D_MAX + 1):
        out[f"appshell.run_trial_s.d{d}"] = median([s[3] - s[2] for s in trials if s[6]["d"] == d])
    out["appshell.accept_ratio"] = sum(s[6]["accepted"] for s in trials) / len(trials) if trials else 0.0
    for name in LAYER_COUNTS:
        out[f"{name}.calls"] = stat(name, "calls")
    for name in LAYER_TIMES:
        out[f"{name}.s"] = stat(name, "s")
    for name in LAYER_SELF:
        out[f"{name}.self_s"] = stat(name, "self_s")
    out["matrices.matmul.scalar_mults"] = counters.get("matrices.matmul.scalar_mults", 0)
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = summary["modules"].get(layer, 0.0)
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + BY_HAND)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tdlab" / "cli.py").is_file():
        raise BenchError(f"no tdlab program under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    sys.path.insert(0, str(SRC))
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT / "work" / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    trace = bool(args.trace)

    if args.workload == "cli-kraw":
        run, values, traced = kraw_workload(args.seed, args.seconds, trace, workdir)
    else:
        run, values, traced = fuzz_workload(args.workload, args.seed, args.seconds, trace, workdir)

    if trace:
        values = per_layer_metrics(traced.spans, traced.counters, values)
        meta = {"workload": args.workload, "seed": args.seed}
        spans.dump(OUT / f"spans-{tag}.jsonl", traced.spans, traced.counters, meta)
        names = [m["name"] for m in spec["per_layer"]]
    else:
        names = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}

    correct = run.failed == 0
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    details = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fail_ratio": run.failed / run.attempted,
        "notes": run.notes,
        "errors": run.errors,
        "report_sha256": run.digests,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
    shutil.rmtree(workdir, ignore_errors=True)

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {run.failed}/{run.attempted} = {run.failed / run.attempted:.6g} ratio")
    combined = sha256("\n".join(f"{k} {v}" for k, v in sorted(run.digests.items())))
    print(f"reports = {len(run.digests)} distinct requests, combined sha256 {combined}")
    print(f"details = {OUT / f'result-{tag}.json'}")
    for err in run.errors:
        print(f"error {err}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
