"""Instance generators, the interchange and report formats, and the fuzz
harness that drives every identity in the package against random instances.

Documents are UTF-8 JSON with fixed key order, so canonical documents
round-trip byte-exactly and identically-configured runs emit identical
report bytes.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field as dc_field
from fractions import Fraction
from functools import partial

from . import matrices as mx
from . import tdcore as td
from .matrices import Matrix, Subspace
from .rng import SplitMix64, trial_seed
from .scalars import Field, FieldError, FpElement, PrimeField, RationalField, field_from_descriptor
from .tdcore import (
    FAIL,
    PASS,
    SKIP,
    Check,
    InvariantViolation,
    SystemContext,
    TdSystem,
)

FORMAT_SYSTEM = "tdlab/1"
FORMAT_REPORT = "tdlab-report/1"


class InputError(ValueError):
    """Malformed documents or CLI arguments; mapped to exit code 2."""


# ---------------------------------------------------------------------------
# JSON conversion


def to_jsonable(field: Field, obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (Fraction, FpElement)):
        return field.format(obj)
    if isinstance(obj, Matrix):
        return matrix_to_json(field, obj)
    if isinstance(obj, Subspace):
        return {"ambient": obj.ambient, "basis": [[field.format(a) for a in row] for row in obj.basis]}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(field, v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(field, v) for v in obj]
    if hasattr(obj, "report_fields"):  # a parameter array or q data
        return to_jsonable(field, obj.report_fields())
    raise TypeError(f"no report form for {type(obj).__name__}")


def matrix_to_json(field: Field, m: Matrix):
    return [[field.format(a) for a in row] for row in m.data]


def checks_to_json(field: Field, checks, prefix: str = ""):
    out = []
    for c in checks:
        entry = {"id": prefix + c.id, "status": c.status}
        if c.witness is not None:
            entry["witness"] = to_jsonable(field, c.witness)
        out.append(entry)
    return out


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# System documents


def document_from_system(sys: TdSystem, assume: dict | None = None) -> dict:
    f = sys.field
    doc = {
        "format": FORMAT_SYSTEM,
        "field": f.descriptor(),
        "dimension": sys.n,
        "A": matrix_to_json(f, sys.A),
        "Astar": matrix_to_json(f, sys.Astar),
        "theta": [f.format(t) for t in sys.thetas],
        "theta_star": [f.format(t) for t in sys.thetas_star],
    }
    if sys.q_hint is not None:
        doc["q"] = f.format(sys.q_hint)
    if assume is not None:
        doc["irreducibility"] = assume
    return doc


def system_from_document(doc: dict):
    """Parse and canonicalize a system document.

    Returns (system, assume_note_or_None).  Structural problems raise
    InputError.
    """
    if not isinstance(doc, dict):
        raise InputError("document is not a JSON object")
    if doc.get("format") != FORMAT_SYSTEM:
        raise InputError(f"unsupported format tag {doc.get('format')!r}")
    try:
        field = field_from_descriptor(doc["field"])
        n = doc["dimension"]
        if isinstance(n, bool) or not isinstance(n, int) or n <= 0:
            raise InputError("dimension must be a positive integer")
        a = _parse_matrix(field, doc["A"], n)
        astar = _parse_matrix(field, doc["Astar"], n)
        if not isinstance(doc["theta"], list) or not isinstance(doc["theta_star"], list):
            raise InputError("theta and theta_star must be arrays")
        thetas = tuple(field.parse(t) for t in doc["theta"])
        thetas_star = tuple(field.parse(t) for t in doc["theta_star"])
        if len(thetas) != len(thetas_star):
            raise InputError("theta and theta_star must have equal length")
        if not thetas:
            raise InputError("empty eigenvalue sequence")
        q_hint = field.parse(doc["q"]) if "q" in doc else None
        if q_hint is not None and q_hint == field.zero:
            raise InputError("q must be nonzero")
    except InputError:
        raise
    except (KeyError, TypeError, FieldError) as err:
        raise InputError(f"malformed system document: {err}") from err
    assume = None
    if "irreducibility" in doc:
        blob = doc["irreducibility"]
        if not isinstance(blob, dict) or not blob.get("assume"):
            raise InputError("irreducibility block must be {\"assume\": true, \"note\": ...}")
        assume = str(blob.get("note", "assumed by input document"))
    try:
        sys = TdSystem(field, n, a, astar, thetas, thetas_star, q_hint)
    except (ValueError, FieldError) as err:
        raise InputError(str(err)) from err
    return sys, assume


def _parse_matrix(field: Field, rows, n: int) -> Matrix:
    if not isinstance(rows, list) or len(rows) != n or any(
        not isinstance(r, list) or len(r) != n for r in rows
    ):
        raise InputError(f"matrix must be {n}x{n}")
    return Matrix(field, [[field.parse(x) for x in row] for row in rows])


def load_system(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as err:
        raise InputError(f"no such file: {path}") from err
    except OSError as err:
        raise InputError(f"cannot read {path}: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise InputError(f"{path} is not UTF-8 text: {err}") from err
    except (json.JSONDecodeError, RecursionError) as err:  # too deeply nested for the decoder
        raise InputError(f"invalid JSON in {path}: {err}") from err
    return system_from_document(doc)


# ---------------------------------------------------------------------------
# Generators


def _bidiagonal_system(field: Field, thetas, thetas_star, phis) -> TdSystem:
    """The split-form candidate: A lower bidiagonal with diagonal thetas and
    unit subdiagonal, A* upper bidiagonal with diagonal thetas_star and
    superdiagonal phis."""
    n = len(thetas)
    zero = field.zero
    a_rows = [[zero] * n for _ in range(n)]
    b_rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        a_rows[i][i] = thetas[i]
        b_rows[i][i] = thetas_star[i]
    for i in range(1, n):
        a_rows[i][i - 1] = field.one
        b_rows[i - 1][i] = phis[i - 1]
    a, astar = Matrix(field, a_rows), Matrix(field, b_rows)
    return TdSystem(field, n, a, astar, tuple(thetas), tuple(thetas_star))


def gen_leonard_split(field: Field, thetas, thetas_star, phis) -> SystemContext:
    """Bidiagonal candidate from split data, gated by full validation.

    The primary operator is lower bidiagonal with unit subdiagonal; the
    dual one is upper bidiagonal with the supplied superdiagonal.  On a
    validated sharp instance the split sequence must equal the cumulative
    products of the superdiagonal entries, which is asserted.  Returns the
    candidate's context; rejected candidates carry their failure report
    and are legitimate negative instances.
    """
    thetas = tuple(thetas)
    thetas_star = tuple(thetas_star)
    phis = tuple(phis)
    d = len(thetas) - 1
    if len(thetas_star) != d + 1:
        raise InputError("theta and theta_star must have equal length")
    if len(phis) != d:
        raise InputError("phi must have length d")
    ctx = SystemContext(_bidiagonal_system(field, thetas, thetas_star, phis))
    report = ctx.report
    if report.passed() and report.sharp:
        zetas = ctx.zetas
        expected = [field.one]
        for p in phis:
            expected.append(expected[-1] * p)
        if list(zetas) != expected:
            raise InvariantViolation(
                "split sequence differs from cumulative superdiagonal products",
                {"zetas": zetas},
            )
    return ctx


# ---------------------------------------------------------------------------
# Random generation


@dataclass(frozen=True)
class RunConfig:
    seed: int
    trials: int
    d_max: int = 5
    field: Field = dc_field(default_factory=RationalField)
    jobs: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise InputError("trials must be at least 1")
        if self.jobs < 1:
            raise InputError("jobs must be at least 1")
        if self.d_max < 1:
            raise InputError("d-max must be at least 1")
        if isinstance(self.field, PrimeField) and self.field.p < 5:
            raise InputError("fuzz needs a prime modulus of at least 5")

    def descriptor(self) -> dict:
        return {**asdict(self), "field": self.field.descriptor()}


_Q_CHOICES_RATIONAL = (
    2, 3, 4, 5, -2, -3, -4, -5, Fraction(3, 2), Fraction(-3, 2), Fraction(5, 2), Fraction(5, 3)
)


def _random_candidate(config: RunConfig, rng: SplitMix64, d: int) -> SystemContext:
    """The bidiagonal candidate of one trial, in a context to validate it.

    Eigenvalue sequences are free at d <= 2 and geometric (same ratio,
    which satisfies the three-term ratio condition) at d >= 3.  The
    superdiagonal is then sampled from the affine line of candidates
    compatible with block-tridiagonality; the full validator still gates
    every candidate, so construction never decides acceptance.
    """
    field = config.field
    if d <= 2:
        thetas = _random_distinct(field, rng, d + 1)
        thetas_star = _random_distinct(field, rng, d + 1)
    else:
        if isinstance(field, RationalField):
            q = Fraction(_Q_CHOICES_RATIONAL[rng.randrange(len(_Q_CHOICES_RATIONAL))])
        else:
            q = field.from_int(2 + rng.randrange(field.p - 3))  # avoids 0, 1, p-1
        c, c_star = _random_nonzero(field, rng), _random_nonzero(field, rng)
        thetas = tuple(c * q**i for i in range(d + 1))
        thetas_star = tuple(c_star * q**i for i in range(d + 1))
    phis, e_fam = _sample_superdiagonal(field, rng, thetas, thetas_star)
    sys = _bidiagonal_system(field, thetas, thetas_star, phis)
    ctx = SystemContext(sys)
    if e_fam is not None:
        ctx.e_fam = e_fam  # A does not depend on the superdiagonal
    return ctx


def _random_nonzero(field: Field, rng: SplitMix64):
    if isinstance(field, RationalField):
        return field.from_int(_nonzero_int(rng, 5))
    return field.from_int(1 + rng.randrange(field.p - 1))


def _sample_superdiagonal(field: Field, rng: SplitMix64, thetas, thetas_star):
    """A random point on the tridiagonality-compatible superdiagonal line.

    The primary idempotents depend only on thetas, so the band blocks of
    Astar (tdcore.band_blocks), which vanish exactly when it is
    block-tridiagonal, are affine in the superdiagonal entries; the exact
    solver produces the solution line and a zero-free point on it is
    sampled.  Falls back to unconstrained entries when the system is
    degenerate (the validator then rejects the candidate).  Returns the
    superdiagonal and the idempotent family of A, when it was derived.
    """
    d = len(thetas) - 1
    if d == 1 or len(set(thetas)) != d + 1:
        return tuple(_random_nonzero(field, rng) for _ in range(d)), None
    n = d + 1
    zero, one = field.zero, field.one
    # with a zero superdiagonal A* is its diagonal part D, to which the
    # units U_k at (k-1, k) are added: D + sum phi_k U_k is block-tridiagonal
    # iff sum phi_k block(U_k) = -block(D), entry by entry, at every pair
    unit_free = _bidiagonal_system(field, thetas, thetas_star, (zero,) * d)
    e_fam = td.primitive_idempotents(unit_free.A, thetas)
    units = [
        Matrix(field, [[one if (r, c) == (k - 1, k) else zero for c in range(n)] for r in range(n)])
        for k in range(1, n)
    ]
    base, *per_unit = (
        [a for _, _, block in td.band_blocks(e_fam, m) for v in block for a in v]
        for m in (unit_free.Astar, *units)
    )
    system = Matrix(field, list(zip(*per_unit)))
    particular = mx.solve(system, tuple(-b for b in base))
    if particular is None:
        return tuple(_random_nonzero(field, rng) for _ in range(d)), e_fam
    directions = mx.kernel_vectors(system)
    for _ in range(16):
        phi = list(particular)
        for direction in directions:
            t = _random_nonzero(field, rng)
            phi = [p + t * k for p, k in zip(phi, direction)]
        if all(x != zero for x in phi):
            return tuple(phi), e_fam
    return tuple(particular), e_fam


def _nonzero_int(rng: SplitMix64, bound: int) -> int:
    while True:
        v = rng.randint(-bound, bound)
        if v != 0:
            return v


def _random_distinct(field: Field, rng: SplitMix64, k: int):
    """k distinct scalars: drawn without replacement from -9..9 over Q, and
    over GF(p) by redrawing a residue already drawn."""
    if isinstance(field, RationalField):
        pool = list(range(-9, 10))
        return tuple(field.from_int(pool.pop(rng.randrange(len(pool)))) for _ in range(k))
    out = []
    while len(out) < k:
        v = field.from_int(rng.randrange(field.p))
        if v not in out:
            out.append(v)
    return tuple(out)


@dataclass
class TrialResult:
    index: int
    seed: int
    d: int
    accepted: bool
    doc: dict
    checks: list
    context: SystemContext | None = None  # accepted trials only
    failed_identity: bool = False


def run_trial(config: RunConfig, index: int) -> TrialResult:
    seed = trial_seed(config.seed, index)
    rng = SplitMix64(seed)
    d = rng.randint(1, config.d_max)
    ctx = _random_candidate(config, rng, d)
    report = ctx.report
    doc = document_from_system(ctx.sys)
    checks = list(report.checks)
    if not (report.passed() and report.sharp):
        return TrialResult(index, seed, d, False, doc, checks)
    suite_checks = run_identity_suite(ctx)
    checks.extend(suite_checks)
    failed = any(c.status == FAIL for c in suite_checks)
    return TrialResult(index, seed, d, True, doc, checks, context=ctx, failed_identity=failed)


# ---------------------------------------------------------------------------
# The identity suite
#
# A stage maps a validated sharp context (conjectures_stage also takes a
# non-sharp one) to (checks, payload): its checks in report order and what a
# report embeds.  A None payload means a gate failed: a derivation the later
# checks depend on raised.  Each CLI view (params, orbit, form, conjectures)
# runs one of IDENTITY_STAGES, so every check id comes from one stage.  Each
# stage imports the modules it runs where it runs them, so that a request
# loads only what its subcommand needs.


def _gate(checks: list, check_id: str, derive, witness: bool = False):
    """Record the check of a derivation the later checks depend on.

    Returns the derived value, or None when it raised InvariantViolation; the
    check then fails with the error.  With `witness`, a pass carries the value.
    """
    try:
        value = derive()
    except InvariantViolation as err:
        checks.append(Check(check_id, FAIL, {"error": str(err)}))
        return None
    checks.append(Check(check_id, PASS, value if witness else None))
    return value


def split_stage(ctx: SystemContext):
    from . import splitparam as sp

    checks = []
    if _gate(checks, "split/decomposition", lambda: ctx.decomposition) is None:
        return checks, None
    if _gate(checks, "split/sequence", lambda: ctx.zetas) is None:
        return checks, None
    checks.extend(sp.trace_zeta(ctx)[1])
    checks.extend(sp.vanishing_check(ctx))
    checks.append(sp.bijection_check(ctx))
    checks.append(sp.zeta_d_closed_form(ctx))
    return checks, {}


def params_stage(ctx: SystemContext):
    from . import splitparam as sp

    checks = []
    array = _gate(checks, "split/parameter_array", lambda: sp.parameter_array(ctx.sys, ctx.zetas))
    return checks, None if array is None else {"parameter_array": array}


def relations_stage(ctx: SystemContext):
    """The q-bracket identities, and all eight relatives with their split data
    and the relations between them; the `orbit` view prints its payload."""
    from . import d4orbit as d4
    from . import splitparam as sp
    from .polys import eta_expansion_check

    sys = ctx.sys
    ok, witness = eta_expansion_check(sys.field, sys.thetas, sys.thetas_star)
    checks = [Check("poly/eta_expansion", PASS if ok else FAIL, witness)]
    qd = _gate(checks, "orbit/q_extract", lambda: d4.q_extract(sys), witness=True)
    if qd is None:
        return checks, None
    checks.append(d4.bracket_expansion_check(sys, qd))
    orbit = _gate(checks, "orbit/relatives_validate", lambda: d4.compute_orbit(ctx))
    if orbit is None:
        return checks, None
    checks.append(sp.zeta_star_check(ctx.zetas, orbit["swap"]["zetas"]))
    checks.extend(d4.zeta_relations_check(sys, qd, orbit))
    entries = [
        {
            "relative": g.name,
            "theta": list(orbit[g.name]["array"].thetas),
            "theta_star": list(orbit[g.name]["array"].thetas_star),
            "zeta": list(orbit[g.name]["array"].zetas),
            "shape": list(orbit[g.name]["shape"]),
        }
        for g in d4.ALL_ELEMENTS
    ]
    return checks, {"orbit": entries, "q": qd}


def form_stage(ctx: SystemContext):
    from . import formlab as fl

    gram, checks = fl.invariant_form(ctx)
    if gram is None:
        return checks, {}
    checks.extend(fl.form_checks(gram, ctx))
    checks.extend(fl.anti_automorphism(gram, ctx))
    return checks, {"gram": gram}


def dual_stage(ctx: SystemContext):
    from . import formlab as fl

    return fl.dual_system(ctx)[1], {}


def conjectures_stage(ctx: SystemContext):
    """Subalgebra and corner-algebra checks; also runs on non-sharp systems,
    where the parameter-array conditions are skipped."""
    from . import conjlab as cj

    sys, estar_fam = ctx.sys, ctx.estar_fam
    checks = []
    extra = {}
    try:
        algs = cj.generate_subalgebras(ctx)
        corner, corner_cks = cj.corner_algebra_checks(ctx, algs)
        checks.extend(corner_cks)
        verdict, field_cks = cj.field_check(sys.field, corner, estar_fam[0], estar_fam.ranks[0])
        checks.extend(field_cks)
        # T is None when it is all of Mat_n
        dims = {k: sys.n**2 if v is None else len(v) for k, v in algs.items()}
        extra["subalgebra_dims"] = dims | {"corner": len(corner)}
        extra["corner_field_verdict"] = verdict
    except InvariantViolation as err:
        checks.append(Check("conj/subalgebras", FAIL, {"error": str(err)}))
    if ctx.report.sharp:
        checks.extend(cj.pa_conditions(sys.field, sys.thetas, sys.thetas_star, ctx.zetas))
    else:
        checks.append(
            Check("conj/pa_conditions", SKIP, {"reason": "system is not sharp; no parameter array"})
        )
    return checks, extra


def problems_stage(ctx: SystemContext):
    from . import splitparam as sp

    checks = []
    problems = _gate(
        checks,
        "split/problems_invertible",
        lambda: sp.problems_report(ctx),
    )
    return checks, None if problems is None else {}


# The identity suite's stages, in report order
IDENTITY_STAGES = (
    split_stage,
    params_stage,
    relations_stage,
    form_stage,
    dual_stage,
    conjectures_stage,
    problems_stage,
)


def run_identity_suite(ctx: SystemContext) -> list:
    """Every identity the package knows, against one validated sharp system.

    Runs the stages in order and returns their checks; a failed gate stops
    the stages after it.
    """
    checks: list[Check] = []
    for stage in IDENTITY_STAGES:
        stage_checks, payload = stage(ctx)
        checks.extend(stage_checks)
        if payload is None:
            break
    return checks


# ---------------------------------------------------------------------------
# Fuzzing


def fuzz_run(config: RunConfig, out_dir: str | None = None):
    """Run the seeded trial stream and aggregate one report document.

    Accepted instances all go through the complete identity suite plus the
    isomorphism cross-checks; any identity failure or verdict/array
    disagreement is serialized as a counterexample artifact (into out_dir
    when given) and fails the run.  out_dir is created before the first
    trial, so an unusable path fails before any work is done.
    """
    if out_dir is not None:
        with _writing_to(out_dir):
            os.makedirs(out_dir, exist_ok=True)
    results = _run_all_trials(config)
    field = config.field
    checks_json = []
    accepted = 0
    counterexamples = []
    for r in results:
        prefix = f"trial_{r.index:04d}/"
        checks_json.append(
            {
                "id": f"{prefix}generated",
                "status": "pass",
                "witness": {"seed": r.seed, "d": r.d, "accepted": r.accepted},
            }
        )
        if r.accepted:
            accepted += 1
            checks_json.extend(checks_to_json(field, r.checks, prefix))
            if r.failed_identity:
                counterexamples.append(r)
        else:
            failing = [c for c in r.checks if c.status == FAIL]
            checks_json.extend(checks_to_json(field, failing, prefix))

    iso_checks, iso_counterexamples = _isomorphism_stage(config, results)
    checks_json.extend(checks_to_json(field, iso_checks, "isomorphism/"))

    summary = {
        "id": "fuzz/summary",
        "status": "pass" if accepted and not counterexamples and not iso_counterexamples else "fail",
        "witness": {
            "trials": config.trials,
            "accepted": accepted,
            "identity_counterexamples": len(counterexamples),
            "isomorphism_disagreements": len(iso_counterexamples),
        },
    }
    checks_json.append(summary)
    doc = {
        "format": FORMAT_REPORT,
        "config": config.descriptor(),
        "seed": config.seed,
        "checks": checks_json,
    }
    if out_dir is not None:
        with _writing_to(out_dir):
            _write_artifacts(out_dir, config, results, counterexamples, iso_counterexamples, doc)
    return doc


@contextmanager
def _writing_to(out_dir: str):
    """Map an OSError while writing into out_dir to an InputError."""
    try:
        yield
    except OSError as err:
        raise InputError(f"cannot write to {out_dir}: {err.strerror or err}") from err


def _run_all_trials(config: RunConfig):
    trial = partial(run_trial, config)
    # a pool starts all its workers at once: no more than trials or CPUs
    workers = min(config.jobs, config.trials, os.cpu_count() or 1)
    if workers == 1:
        return [trial(i) for i in range(config.trials)]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(trial, range(config.trials)))


def _isomorphism_stage(config: RunConfig, results):
    """Conjugate/relative verdicts plus array-vs-verdict agreement.

    Every accepted instance is tested against two seeded conjugated copies
    (expected isomorphic) and its order-reversed relative (expected not
    isomorphic when the reversed sequence differs); instances sharing a
    parameter array must be pairwise isomorphic.  Each case is (trial, kind,
    check id, other context, expected verdict), in report order; a verdict
    raising InvariantViolation is "error".  Returns the checks and one
    (trial, kind, failed check) per disagreement, kind being "conjugate",
    "reversed" or "equal-array pair".
    """
    from . import d4orbit as d4
    from . import formlab as fl

    field = config.field
    accepted = [r for r in results if r.accepted and not r.failed_identity]
    cases = []
    arrays = {}
    for r in accepted:
        sys = r.context.sys
        key = tuple(field.format(z) for z in (*sys.thetas, *sys.thetas_star, *r.context.zetas))
        arrays.setdefault((sys.n, key), []).append(r)
        rng = SplitMix64(trial_seed(r.seed, 0xC0))
        for k in range(2):
            p, p_inv = _random_invertible(field, rng, sys.n)
            conj = TdSystem(
                field, sys.n, p * sys.A * p_inv, p * sys.Astar * p_inv, sys.thetas, sys.thetas_star
            )
            cases.append(
                (r, "conjugate", f"trial_{r.index:04d}/conjugate_{k}", SystemContext(conj), "isomorphic")
            )
        rev = d4.relative_context(r.context, d4.REV_PRIMARY)
        if tuple(rev.sys.thetas) != tuple(sys.thetas):
            cases.append((r, "reversed", f"trial_{r.index:04d}/reversed_relative", rev, "not_isomorphic"))
    for _, (base, *others) in sorted(arrays.items()):
        for other in others:
            check_id = f"equal_array_pair/{base.index:04d}_{other.index:04d}"
            cases.append((base, "equal-array pair", check_id, other.context, "isomorphic"))

    checks = []
    disagreements = []
    for r, kind, check_id, other, expected in cases:
        try:
            verdict, payload = fl.isomorphism_test(r.context, other)
        except InvariantViolation as err:
            verdict, payload = "error", {"error": str(err)}
        if verdict == expected:
            checks.append(Check(check_id, PASS))
            continue
        witness = {"verdict": verdict}
        if kind == "conjugate":
            witness["detail"] = payload.get("reason") or payload.get("error")
        checks.append(Check(check_id, FAIL, witness))
        disagreements.append((r, kind, checks[-1]))
    return checks, disagreements


def _random_invertible(field: Field, rng: SplitMix64, n: int):
    """A random invertible n x n matrix and its inverse; a singular draw is redrawn."""
    while True:
        if isinstance(field, RationalField):
            rows = [[field.from_int(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        else:
            rows = [[field.from_int(rng.randrange(field.p)) for _ in range(n)] for _ in range(n)]
        m = Matrix(field, rows)
        try:
            return m, mx.inverse(m)
        except mx.MatrixError:
            continue


def _write_artifacts(out_dir, config, results, counterexamples, iso_counterexamples, report_doc):
    field = config.field
    for r in results:
        if r.accepted:
            path = os.path.join(out_dir, f"instance-{r.index:04d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dumps_document(r.doc))
    iso_failed = {}
    for r, kind, check in iso_counterexamples:
        iso_failed.setdefault(r.index, []).append((kind, check))
    bad = {r.index for r in counterexamples} | set(iso_failed)
    for r in results:
        if r.index in bad:
            path = os.path.join(out_dir, f"counterexample-{r.index:04d}.json")
            iso = iso_failed.get(r.index, [])
            blob = {
                "format": FORMAT_REPORT,
                "seed": r.seed,
                "system": r.doc,
                "checks": checks_to_json(field, [c for c in r.checks if c.status == FAIL])
                + checks_to_json(field, [c for _, c in iso], "isomorphism/"),
                "disagreements": list(dict.fromkeys(kind for kind, _ in iso)),
            }
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dumps_document(blob))
    path = os.path.join(out_dir, "fuzz-report.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_document(report_doc))


def exit_code_from_checks(checks_json) -> int:
    statuses = {c["status"] for c in checks_json}
    if "fail" in statuses:
        return 1
    if "inconclusive" in statuses or "skip" in statuses:
        return 3
    return 0
