"""Instance generators, the interchange and report formats, and the fuzz
harness that drives every identity in the package against random instances.

Documents are UTF-8 JSON with fixed key order, so canonical documents
round-trip byte-exactly and identically-configured runs emit identical
report bytes.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field as dc_field
from fractions import Fraction
from functools import partial

from . import conjlab as cj
from . import d4orbit as d4
from . import formlab as fl
from . import matrices as mx
from . import splitparam as sp
from . import tdcore as td
from .matrices import Matrix, Subspace
from .polys import eta_expansion_check
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
    ValidateOptions,
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
    if isinstance(obj, sp.ParameterArray):
        return {
            "theta": [field.format(v) for v in obj.thetas],
            "theta_star": [field.format(v) for v in obj.thetas_star],
            "zeta": [field.format(v) for v in obj.zetas],
        }
    if isinstance(obj, d4.QData):
        out = {"kind": obj.kind}
        if obj.q is not None:
            out["q"] = field.format(obj.q)
        if obj.beta is not None:
            out["beta"] = field.format(obj.beta)
        if obj.chosen_root_note:
            out["note"] = obj.chosen_root_note
        return out
    if isinstance(obj, dict):
        return {str(k): to_jsonable(field, v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(field, v) for v in obj]
    return str(obj)


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
    except json.JSONDecodeError as err:
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
                {"zetas": [field.format(z) for z in zetas]},
            )
    return ctx


def builtin_x1():
    """The golden d=1 instance over the rationals."""
    field = RationalField()
    one, zero = field.one, field.zero
    return gen_leonard_split(field, (one, zero), (one, zero), (one,))


# ---------------------------------------------------------------------------
# Random generation


@dataclass(frozen=True)
class RunConfig:
    seed: int
    trials: int
    d_max: int = 5
    field: Field = dc_field(default_factory=RationalField)
    irreducibility: str = "eigen_subset"
    jobs: int = 1
    chain_depth: int = 3

    def __post_init__(self):
        if self.trials < 1:
            raise InputError("trials must be at least 1")
        if self.jobs < 1:
            raise InputError("jobs must be at least 1")
        if self.d_max < 1:
            raise InputError("d_max must be at least 1")
        if self.chain_depth < 1:
            raise InputError("chain_depth must be at least 1")
        if isinstance(self.field, PrimeField) and self.field.p < 5:
            raise InputError("fuzz needs a prime modulus of at least 5")

    def descriptor(self) -> dict:
        return {**asdict(self), "field": self.field.descriptor()}


_Q_CHOICES_RATIONAL = (2, 3, 4, 5, -2, -3, -4, -5, (3, 2), (-3, 2), (5, 2), (5, 3))


def _random_candidate(config: RunConfig, rng: SplitMix64, d: int) -> SystemContext:
    """The bidiagonal candidate of one trial, in a context to validate it.

    Eigenvalue sequences are free at d <= 2 and geometric (same ratio,
    which satisfies the three-term ratio condition) at d >= 3.  The
    superdiagonal is then sampled from the affine line of candidates
    compatible with block-tridiagonality; the full validator still gates
    every candidate, so construction never decides acceptance.
    """
    field = config.field
    if isinstance(field, RationalField):
        if d <= 2:
            pool = list(range(-9, 10))
            thetas = _sample_distinct(rng, pool, d + 1, field.from_int)
            thetas_star = _sample_distinct(rng, pool, d + 1, field.from_int)
        else:
            qc = _Q_CHOICES_RATIONAL[rng.randrange(len(_Q_CHOICES_RATIONAL))]
            q = Fraction(*qc) if isinstance(qc, tuple) else Fraction(qc)
            c = Fraction(_nonzero_int(rng, 5))
            c_star = Fraction(_nonzero_int(rng, 5))
            thetas = tuple(c * q**i for i in range(d + 1))
            thetas_star = tuple(c_star * q**i for i in range(d + 1))
    else:
        p = field.p
        if d <= 2:
            thetas = _sample_distinct_residues(field, rng, d + 1)
            thetas_star = _sample_distinct_residues(field, rng, d + 1)
        else:
            q = field.from_int(2 + rng.randrange(p - 3))  # avoids 0, 1, p-1
            c = field.from_int(1 + rng.randrange(p - 1))
            c_star = field.from_int(1 + rng.randrange(p - 1))
            thetas = tuple(c * q**i for i in range(d + 1))
            thetas_star = tuple(c_star * q**i for i in range(d + 1))
    phis, e_fam = _sample_superdiagonal(field, rng, thetas, thetas_star)
    sys = _bidiagonal_system(field, thetas, thetas_star, phis)
    ctx = SystemContext(sys, ValidateOptions(irreducibility=config.irreducibility))
    if e_fam is not None:
        ctx.e_fam = e_fam  # A does not depend on the superdiagonal
    return ctx


def _random_nonzero(field: Field, rng: SplitMix64):
    if isinstance(field, RationalField):
        return field.from_int(_nonzero_int(rng, 5))
    return field.from_int(1 + rng.randrange(field.p - 1))


def _sample_superdiagonal(field: Field, rng: SplitMix64, thetas, thetas_star):
    """A random point on the tridiagonality-compatible superdiagonal line.

    The primary idempotents depend only on thetas, so the conditions
    E_i Astar E_j = 0 (|i-j| > 1) are affine in the superdiagonal entries;
    the exact solver produces the solution line and a zero-free point on it
    is sampled.  Falls back to unconstrained entries when the system is
    degenerate (the validator then rejects the candidate).  Returns the
    superdiagonal and the idempotent family of A, when it was derived.
    """
    d = len(thetas) - 1
    if d == 1 or len(set(field.format(t) for t in thetas)) != d + 1:
        return tuple(_random_nonzero(field, rng) for _ in range(d)), None
    n = d + 1
    zero = field.zero
    # with a zero superdiagonal, A* is the diagonal part the units are added to
    unit_free = _bidiagonal_system(field, thetas, thetas_star, (zero,) * d)
    e_fam = td.primitive_idempotents(unit_free.A, thetas)
    diag = unit_free.Astar
    units = []
    for k in range(1, n):
        u = [[zero] * n for _ in range(n)]
        u[k - 1][k] = field.one
        units.append(Matrix(field, u))
    rows, rhs = [], []
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 1:
                base = e_fam[i] * diag * e_fam[j]
                cols = [e_fam[i] * u * e_fam[j] for u in units]
                for r in range(n):
                    for c in range(n):
                        rows.append([m.data[r][c] for m in cols])
                        rhs.append(-base.data[r][c])
    system = Matrix(field, rows)
    particular = mx.solve(system, tuple(rhs))
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


def _sample_distinct(rng: SplitMix64, pool, k: int, embed):
    pool = list(pool)
    out = []
    for _ in range(k):
        v = pool.pop(rng.randrange(len(pool)))
        out.append(embed(v))
    return tuple(out)


def _sample_distinct_residues(field: PrimeField, rng: SplitMix64, k: int):
    seen = set()
    out = []
    while len(out) < k:
        v = rng.randrange(field.p)
        if v not in seen:
            seen.add(v)
            out.append(field.from_int(v))
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
    suite_checks = run_identity_suite(ctx, chain_depth=config.chain_depth)
    checks.extend(suite_checks)
    failed = any(c.status == FAIL for c in suite_checks)
    return TrialResult(index, seed, d, True, doc, checks, context=ctx, failed_identity=failed)


# ---------------------------------------------------------------------------
# The identity suite
#
# A stage maps a validated sharp context (conjectures_stage also takes a
# non-sharp one) to (checks, payload): its checks in report order and what a
# report embeds.  A None payload means a gate failed: a derivation the later
# checks depend on raised.  The CLI subcommands call the same stages.


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
    checks = []
    array = _gate(checks, "split/parameter_array", lambda: sp.parameter_array(ctx.sys, ctx.zetas))
    return checks, None if array is None else {"parameter_array": array}


def relations_stage(ctx: SystemContext):
    """The q-bracket identities and the split data of the eight relatives."""
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
    checks.append(sp.zeta_star_check(sys, ctx.zetas, orbit["swap"]["zetas"]))
    checks.extend(d4.zeta_relations_check(sys, qd, orbit))
    return checks, {}


def orbit_stage(ctx: SystemContext):
    """All eight relatives with their split data, and the relations between them."""
    sys = ctx.sys
    checks = []
    derived = _gate(
        checks, "orbit/relatives_validate", lambda: (d4.compute_orbit(ctx), d4.q_extract(sys))
    )
    if derived is None:
        return checks, None
    orbit, qd = derived
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
    return d4.zeta_relations_check(sys, qd, orbit), {"orbit": entries, "q": qd}


def form_stage(ctx: SystemContext):
    form, checks = fl.invariant_form(ctx.sys)
    if form is None:
        return checks, {}
    checks.extend(fl.form_checks(form, ctx))
    checks.extend(fl.anti_automorphism(form, ctx)[1])
    return checks, {"gram": form.gram}


def dual_stage(ctx: SystemContext):
    return fl.dual_system(ctx)[1], {}


def conjectures_stage(ctx: SystemContext, chain_depth: int = 3):
    """Subalgebra and corner-algebra checks; also runs on non-sharp systems,
    where the parameter-array conditions are skipped."""
    sys, e_fam, estar_fam = ctx.sys, ctx.e_fam, ctx.estar_fam
    checks = []
    extra = {}
    try:
        algs = cj.generate_subalgebras(sys, ctx.closure)
        corner, corner_cks = cj.corner_algebra_checks(
            sys,
            algs["T"],
            algs["D"],
            algs["Dstar"],
            estar_fam[0],
            e_fam[0],
            depth=chain_depth,
        )
        checks.extend(corner_cks)
        verdict, field_cks = cj.field_check(sys.field, corner, estar_fam[0], estar_fam.ranks[0])
        checks.extend(field_cks)
        extra["subalgebra_dims"] = {k: v.dim for k, v in algs.items()} | {"corner": corner.dim}
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
    checks = []
    problems = _gate(
        checks,
        "split/problems_invertible",
        lambda: sp.problems_report(ctx),
    )
    return checks, None if problems is None else {}


def identity_stages(chain_depth: int = 3) -> tuple:
    """The identity suite's stages, in report order."""
    return (
        split_stage,
        params_stage,
        relations_stage,
        form_stage,
        dual_stage,
        partial(conjectures_stage, chain_depth=chain_depth),
        problems_stage,
    )


def run_identity_suite(ctx: SystemContext, chain_depth: int = 3) -> list:
    """Every identity the package knows, against one validated sharp system.

    Runs the stages in order and returns their checks; a failed gate stops
    the stages after it.
    """
    checks: list[Check] = []
    for stage in identity_stages(chain_depth):
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
    when given) and fails the run.
    """
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
        _write_artifacts(out_dir, config, results, counterexamples, iso_counterexamples, doc)
    return doc


def _run_all_trials(config: RunConfig):
    trial = partial(run_trial, config)
    if config.jobs == 1:
        return [trial(i) for i in range(config.trials)]
    with ProcessPoolExecutor(max_workers=config.jobs) as pool:
        return list(pool.map(trial, range(config.trials)))


def _isomorphism_stage(config: RunConfig, results):
    """Conjugate/relative verdicts plus array-vs-verdict agreement.

    Every accepted instance is tested against two seeded conjugated copies
    (expected isomorphic) and its order-reversed relative (expected not
    isomorphic when the reversed sequence differs); instances sharing a
    parameter array must be pairwise isomorphic.
    """
    field = config.field
    checks = []
    disagreements = []
    accepted = [r for r in results if r.accepted and not r.failed_identity]
    arrays = {}
    for r in accepted:
        sys = r.context.sys
        key = tuple(field.format(z) for z in (*sys.thetas, *sys.thetas_star, *r.context.zetas))
        arrays.setdefault((sys.n, key), []).append(r)

    def tested_verdict(a, b):
        try:
            return fl.isomorphism_test(a, b)
        except InvariantViolation as err:
            return "error", {"error": str(err)}

    for r in accepted:
        sys = r.context.sys
        rng = SplitMix64(trial_seed(r.seed, 0xC0))
        for k in range(2):
            p = _random_invertible(field, rng, sys.n)
            p_inv = mx.inverse(p)
            conj = TdSystem(
                field, sys.n, p * sys.A * p_inv, p * sys.Astar * p_inv, sys.thetas, sys.thetas_star
            )
            verdict, payload = tested_verdict(r.context, SystemContext(conj))
            ok = verdict == "isomorphic"
            checks.append(
                Check(
                    f"trial_{r.index:04d}/conjugate_{k}",
                    PASS if ok else FAIL,
                    None if ok else {"verdict": verdict, "detail": payload.get("reason") or payload.get("error")},
                )
            )
            if not ok:
                disagreements.append((r, "conjugate"))
        rev = d4.relative_context(r.context, d4.REV_PRIMARY)
        if tuple(rev.sys.thetas) != tuple(sys.thetas):
            verdict, payload = tested_verdict(r.context, rev)
            ok = verdict == "not_isomorphic"
            checks.append(
                Check(
                    f"trial_{r.index:04d}/reversed_relative",
                    PASS if ok else FAIL,
                    None if ok else {"verdict": verdict},
                )
            )
            if not ok:
                disagreements.append((r, "reversed"))

    for (n, key), group in sorted(arrays.items()):
        if len(group) < 2:
            continue
        base = group[0]
        for other in group[1:]:
            verdict, _ = tested_verdict(base.context, other.context)
            ok = verdict == "isomorphic"
            checks.append(
                Check(
                    f"equal_array_pair/{base.index:04d}_{other.index:04d}",
                    PASS if ok else FAIL,
                    None if ok else {"verdict": verdict},
                )
            )
            if not ok:
                disagreements.append((base, "equal-array pair"))
    return checks, disagreements


def _random_invertible(field: Field, rng: SplitMix64, n: int) -> Matrix:
    while True:
        if isinstance(field, RationalField):
            rows = [[field.from_int(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        else:
            rows = [[field.from_int(rng.randrange(field.p)) for _ in range(n)] for _ in range(n)]
        m = Matrix(field, rows)
        if mx.det(m) != field.zero:
            return m


def _write_artifacts(out_dir, config, results, counterexamples, iso_counterexamples, report_doc):
    import os

    os.makedirs(out_dir, exist_ok=True)
    field = config.field
    for r in results:
        if r.accepted:
            path = os.path.join(out_dir, f"instance-{r.index:04d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dumps_document(r.doc))
    bad = {r.index for r in counterexamples} | {r.index for r, _ in iso_counterexamples}
    for r in results:
        if r.index in bad:
            path = os.path.join(out_dir, f"counterexample-{r.index:04d}.json")
            blob = {
                "format": FORMAT_REPORT,
                "seed": r.seed,
                "system": r.doc,
                "checks": checks_to_json(field, [c for c in r.checks if c.status == FAIL]),
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
