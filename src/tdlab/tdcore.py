"""The central system model and its validation pipeline.

A candidate system is a pair of square matrices together with candidate
standard orderings of their eigenvalues.  Validation runs, in order:
eigenvalue distinctness, diagonalizability, primitive-idempotent
construction, the block-tridiagonality of each ordering, irreducibility
(with an explicit strategy and an honest "inconclusive"), shape, and
sharpness.  Mathematical failures are report entries with witnesses;
only structurally broken input raises.  A SystemContext holds one system
and derives each object the checks need at most once.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import combinations, product

from . import matrices as mx
from .matrices import Matrix, Subspace
from .scalars import Field, FieldError, PrimeField

PASS = "pass"
FAIL = "fail"
SKIP = "skip"
INCONCLUSIVE = "inconclusive"

EXHAUSTIVE_LIMIT = 10**6


class InvariantViolation(RuntimeError):
    """An identity that must hold on validated input failed anyway.

    Signals either an arithmetic bug or an invalid system smuggled past
    validation; the fuzz harness serializes the offender as a
    counterexample artifact.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotDiagonalizableError(ValueError):
    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


@dataclass(frozen=True)
class Check:
    id: str
    status: str
    witness: object = None


@dataclass
class VerificationReport:
    checks: list = dc_field(default_factory=list)
    shape: tuple | None = None
    sharp: bool | None = None

    def add(self, check: Check):
        self.checks.append(check)

    @property
    def overall(self) -> str:
        worst = PASS
        for c in self.checks:
            if c.status == FAIL:
                return FAIL
            if c.status == INCONCLUSIVE:
                worst = INCONCLUSIVE
        return worst

    def passed(self) -> bool:
        return self.overall == PASS


@dataclass(frozen=True)
class TdSystem:
    """A candidate system: operators plus candidate eigenvalue orderings."""

    field: Field
    n: int
    A: Matrix
    Astar: Matrix
    thetas: tuple
    thetas_star: tuple
    q_hint: object = None

    def __post_init__(self):
        if len(self.thetas) != len(self.thetas_star):
            raise ValueError("eigenvalue sequences must have equal length")
        for m, name in ((self.A, "A"), (self.Astar, "Astar")):
            if not m.is_square() or m.rows != self.n:
                raise ValueError(f"{name} must be {self.n}x{self.n}")
            if m.field != self.field:
                raise FieldError(f"{name} lives over a different field")

    @property
    def d(self) -> int:
        return len(self.thetas) - 1


@dataclass
class IdempotentFamily:
    """Primitive idempotents of one operator, in the candidate order."""

    mats: tuple
    eigenspaces: tuple  # Subspace per eigenvalue
    ranks: tuple

    def __iter__(self):
        return iter(self.mats)

    def __getitem__(self, i):
        return self.mats[i]

    def __len__(self):
        return len(self.mats)

    def reversed(self) -> "IdempotentFamily":
        """The same idempotents for the reversed eigenvalue order."""
        return IdempotentFamily(self.mats[::-1], self.eigenspaces[::-1], self.ranks[::-1])

    def transposed(self) -> "IdempotentFamily":
        """The family of the transposed operator: E_i^t, whose image is its eigenspace."""
        mats = tuple(e.transpose() for e in self.mats)
        spaces = tuple(mx.image(e) for e in mats)
        return IdempotentFamily(mats, spaces, self.ranks)


@dataclass(frozen=True)
class ValidateOptions:
    irreducibility: str = "auto"  # auto | norton | burnside | eigen_subset | exhaustive_gfp | assume
    assume_note: str | None = None


class SystemContext:
    """One system and the objects derived from it, each derived at most once.

    Derived on first use: the two idempotent families, the validation
    report, the basis of the algebra generated by A and A*, the split
    summands and the split sequence.  A context for a relative or the dual
    of a system is seeded from that system's (see seeded).
    """

    def __init__(self, sys: TdSystem, options: ValidateOptions | None = None):
        self.sys = sys
        self.options = options or ValidateOptions()
        # set by check_irreducible: only scalars commute with A and A*
        self.absolutely_irreducible = False

    def seeded(self, sys: TdSystem, e_fam, estar_fam) -> "SystemContext":
        """The context of a relative or the dual of this validated system:
        `sys` with families permuted or transposed from this system's, and
        this system's report.  Validation cannot fail on it once this system
        has passed: reversal and swap permute the products E_i M E_j, the
        dual's E_i^t M^t E_j^t is (E_j M E_i)^t, and invariant subspaces
        correspond (through annihilators, for the dual)."""
        other = SystemContext(sys, self.options)
        other.e_fam, other.estar_fam, other.report = e_fam, estar_fam, self.report
        return other

    @cached_property
    def e_fam(self) -> IdempotentFamily:
        return primitive_idempotents(self.sys.A, self.sys.thetas)

    @cached_property
    def estar_fam(self) -> IdempotentFamily:
        return primitive_idempotents(self.sys.Astar, self.sys.thetas_star)

    @cached_property
    def closure(self) -> list:
        """rref-canonical basis of the algebra generated by A and A*.

        On an absolutely irreducible pair (see check_irreducible) this is
        all of Mat_n by the density theorem, whose rref basis is the matrix
        units, so nothing is solved.
        """
        sys = self.sys
        if self.absolutely_irreducible:
            units = Matrix.identity(sys.field, sys.n * sys.n).data
            return [Matrix.from_vec(sys.field, row, sys.n, sys.n) for row in units]
        return mx.algebra_closure([sys.A, sys.Astar])

    @cached_property
    def report(self) -> VerificationReport:
        return validate(self.sys, self.options, self)

    @cached_property
    def decomposition(self) -> tuple:
        """The split summands U_0..U_d."""
        from .splitparam import split_decomposition

        return split_decomposition(self)

    @cached_property
    def zetas(self) -> tuple:
        from .splitparam import split_sequence

        return split_sequence(self)


def projections(field: Field, n: int, subspaces) -> list:
    """The projections of K^n onto each summand of a direct sum, along the
    others; a zero summand projects to the zero matrix.

    One inversion of the matrix whose columns are the concatenated bases
    serves all of them.  Asserted: each projection is idempotent, has its
    summand as image and fixes it; they sum to the identity and are
    pairwise orthogonal.
    """
    change = Matrix(field, [v for s in subspaces for v in s.basis]).transpose()
    change_inv = mx.inverse(change)
    out = []
    total = Matrix.zeros(field, n, n)
    lo = 0
    for i, s in enumerate(subspaces):
        hi = lo + s.dim
        if lo == hi:
            f = Matrix.zeros(field, n, n)
        else:
            block = Matrix(field, [row[lo:hi] for row in change.data])
            f = block * Matrix(field, change_inv.data[lo:hi])
        lo = hi
        if f * f != f:
            raise InvariantViolation(f"projection {i} is not idempotent")
        if mx.image(f) != s:
            raise InvariantViolation(f"projection {i} has an image other than its summand")
        if any(f.apply(v) != v for v in s.basis):
            raise InvariantViolation(f"projection {i} does not fix its summand")
        out.append(f)
        total = total + f
    if total != Matrix.identity(field, n):
        raise InvariantViolation("projections do not sum to the identity")
    for (i, fi), (j, fj) in product(enumerate(out), repeat=2):
        if i != j and not (fi * fj).is_zero():
            raise InvariantViolation(f"projections {i} and {j} are not orthogonal")
    return out


def primitive_idempotents(m: Matrix, thetas) -> IdempotentFamily:
    """The primitive idempotents of a diagonalizable operator, in the order of
    thetas: the projections along its eigenspace decomposition.

    Raises NotDiagonalizableError when the eigenvalue list does not exhaust
    the space, and ValueError on a repeated eigenvalue.  Asserted before
    returning, besides what projections asserts: the eigen-relation, the
    operator as the eigenvalue-weighted sum, and each rank.
    """
    field = m.field
    thetas = tuple(thetas)
    if len(set(thetas)) != len(thetas):
        raise ValueError("repeated eigenvalues")
    n = m.rows
    ident = Matrix.identity(field, n)
    spaces = [mx.kernel(m - ident.scale(t)) for t in thetas]
    total = sum(s.dim for s in spaces)
    if total < n:
        raise NotDiagonalizableError(
            "eigenvalue list does not exhaust the space",
            defect={"kernel_dims": [s.dim for s in spaces], "n": n},
        )
    mats = projections(field, n, spaces)
    recon = Matrix.zeros(field, n, n)
    for t, e, space in zip(thetas, mats, spaces):
        if not (m * e - e.scale(t)).is_zero():
            raise InvariantViolation("idempotent fails the eigen-relation")
        if mx.rank(e) != space.dim:
            raise InvariantViolation("idempotent rank differs from eigenspace dimension")
        recon = recon + e.scale(t)
    if recon != m:
        raise InvariantViolation("operator is not the eigenvalue-weighted idempotent sum")
    return IdempotentFamily(
        mats=tuple(mats),
        eigenspaces=tuple(spaces),
        ranks=tuple(s.dim for s in spaces),
    )


def check_tridiagonal(sys: TdSystem, e_fam: IdempotentFamily, estar_fam: IdempotentFamily):
    """Block-tridiagonality of both candidate orderings.

    Returns the two checks (primary ordering against Astar, dual ordering
    against A); each failure carries the offending index pair.
    """
    out = []
    for check_id, fam, middle in (
        ("tridiagonal/A_ordering", e_fam, sys.Astar),
        ("tridiagonal/Astar_ordering", estar_fam, sys.A),
    ):
        bad = _off_band_pair(fam.mats, middle)
        out.append(Check(check_id, FAIL if bad else PASS, bad))
    return out


def _off_band_pair(mats, middle: Matrix):
    """The first {i, j} with |i - j| > 1 and E_i M E_j != 0, or None."""
    for i, ei in enumerate(mats):
        for j, ej in enumerate(mats):
            if abs(i - j) > 1 and not (ei * middle * ej).is_zero():
                return {"i": i, "j": j}
    return None


def _verify_invariant_subspace(sys: TdSystem, w: Subspace) -> bool:
    """Re-verify a reducibility witness before it is ever emitted."""
    if w.is_zero() or w.is_full():
        return False
    for m in (sys.A, sys.Astar):
        for row in w.basis:
            if not w.contains(m.apply(row)):
                return False
    return True


def _spin(ops, vec, replay=None):
    """Spin `vec` under the operators `ops`, breadth-first.

    Each vector found, in the order found, is multiplied by each operator in
    turn, and the product is kept when it leaves the span so far; the spin
    stops when nothing new appears or the span is the whole space.  So each
    kept vector is one word in `ops` applied to `vec`, and the words come in
    a fixed order.  With `replay = (ops2, vec2)` the same words are applied
    to vec2 under ops2, one image per kept vector.

    Returns (span, kept vectors, images): the span is a SpanBuilder, and
    images is empty without a replay.
    """
    n = ops[0].rows
    span = mx.SpanBuilder(ops[0].field, n)
    kept = [vec] if span.add(vec) is not None else []
    images = [replay[1]] if replay and kept else []
    k = 0
    while k < len(kept) and span.dim < n:
        for i, m in enumerate(ops):
            w = m.apply(kept[k])
            if span.add(w) is not None:
                kept.append(w)
                if replay:
                    images.append(replay[0][i].apply(images[k]))
        k += 1
    return span, kept, images


def _line_factors(fam: IdempotentFamily, i: int):
    """(x, y) with E_i = x y^t, asserted exactly, for a rank-one E_i of `fam`
    (else ValueError): x is the rref vector spanning E_i V and y the first
    nonzero row of E_i, at x's pivot.  y spans the eigenspace of the transpose."""
    if fam.ranks[i] != 1:
        raise ValueError(f"idempotent {i} is not of rank one")
    x = fam.eigenspaces[i].basis[0]
    y = next(row for row in fam[i].data if any(row))
    if any(row != tuple(a * b for b in y) for a, row in zip(x, fam[i].data)):
        raise InvariantViolation(f"idempotent {i} is not the outer product of its line factors")
    return x, y


def _norton(ctx: SystemContext, v0, u0):
    """Norton's irreducibility test from the line E*_0 V.

    A proper invariant subspace W misses v0, so it lies in the sum of the
    other A*-eigenspaces and u0 annihilates it; the annihilator of W is then
    invariant under the transposes and contains u0.  Hence the pair is
    irreducible iff v0 spins to V under (A, A*) and u0 spins to V* under
    (A^t, A*^t).  A short v0-spin is itself an invariant subspace; a short
    u0-spin gives one as its annihilator.
    """
    sys = ctx.sys
    span, _, _ = _spin((sys.A, sys.Astar), v0)
    if span.dim < sys.n:
        return span.subspace()
    dual, _, _ = _spin((sys.A.transpose(), sys.Astar.transpose()), u0)
    if dual.dim < sys.n:
        return mx.kernel(Matrix(sys.field, dual.reduced_rows()))
    return {"line": "Estar_0", "spin_dim": span.dim, "dual_spin_dim": dual.dim}


def check_irreducible(ctx: SystemContext, strategy: str = "auto", assume_note: str | None = None):
    """Irreducibility of the pair, with an explicit verdict hierarchy.

    Returns (verdict, witness, strategy_used) where verdict is one of
    "irreducible", "reducible", "inconclusive".

    * norton: complete when E*_0 has rank 1; one spin of the line E*_0 V
      and one of its transposed twin decide (see _norton).  `auto` tries it
      first.
    * burnside: generated-algebra dimension n^2 implies irreducible
      (sufficient only over non-closed fields).
    * eigen_subset: complete when every eigenspace of A is a line; any
      invariant subspace is then a sum of eigenlines, and all 2^(d+1)
      subsets are tested against Astar-invariance.
    * exhaustive_gfp: complete over GF(p) with p^n within the enumeration
      budget; every line is closed under both operators.
    * assume: trust the caller and record the note.

    When a complete strategy proves irreducibility and E_0 or E*_0 is a
    line, every map commuting with A and A* fixes that line and so is a
    scalar; this is recorded as `ctx.absolutely_irreducible`.  Every
    reducibility witness is re-verified before it is returned.  The
    generated algebra and the families come from `ctx`, and are derived
    only when a strategy needs them.
    """
    sys = ctx.sys
    if strategy == "assume":
        return "irreducible", {"note": assume_note or "assumed by caller"}, "assume"
    if strategy == "norton" or (strategy == "auto" and ctx.estar_fam.ranks[0] == 1):
        return _proved(ctx, _norton(ctx, *_line_factors(ctx.estar_fam, 0)), "norton")
    if strategy in ("auto", "burnside"):
        basis = ctx.closure
        if len(basis) == sys.n * sys.n:
            return "irreducible", {"closure_dim": len(basis)}, "burnside"
        if strategy == "burnside":
            return "inconclusive", {"closure_dim": len(basis)}, "burnside"
    if strategy in ("auto", "eigen_subset"):
        e_fam = ctx.e_fam
        if all(r == 1 for r in e_fam.ranks):
            lines = [space.basis[0] for space in e_fam.eigenspaces]
            d1 = len(lines)
            for size in range(1, d1):
                for idx in combinations(range(d1), size):
                    w = Subspace.from_vectors(sys.field, sys.n, [lines[k] for k in idx])
                    if all(w.contains(sys.Astar.apply(v)) for v in w.basis):
                        return _proved(ctx, w, "eigen_subset")
            return _proved(ctx, {"subsets_tested": 2**d1 - 2}, "eigen_subset")
        if strategy == "eigen_subset":
            raise ValueError("eigen_subset strategy needs every eigenspace of A to be a line")
    if strategy == "exhaustive_gfp":
        if not isinstance(sys.field, PrimeField):
            raise ValueError("exhaustive_gfp strategy needs a prime field")
        if sys.field.p**sys.n > EXHAUSTIVE_LIMIT:
            raise ValueError(
                f"exhaustive_gfp infeasible: {sys.field.p}^{sys.n} exceeds {EXHAUSTIVE_LIMIT}"
            )
        for vec in _gfp_line_representatives(sys.field, sys.n):
            span, _, _ = _spin((sys.A, sys.Astar), vec)
            if span.dim < sys.n:
                return _proved(ctx, span.subspace(), "exhaustive_gfp")
        lines_tested = (sys.field.p**sys.n - 1) // (sys.field.p - 1)
        return _proved(ctx, {"lines_tested": lines_tested}, "exhaustive_gfp")
    if strategy == "auto":
        return "inconclusive", {"note": "burnside insufficient and eigen_subset inapplicable"}, "auto"
    raise ValueError(f"unknown irreducibility strategy {strategy!r}")


def _proved(ctx: SystemContext, outcome, strategy: str):
    """The verdict of a complete strategy: a Subspace outcome is an invariant
    subspace, re-verified here; anything else details a proof of
    irreducibility."""
    if isinstance(outcome, Subspace):
        if not _verify_invariant_subspace(ctx.sys, outcome):
            raise InvariantViolation(f"{strategy} witness failed re-verification")
        return "reducible", outcome, strategy
    # norton and eigen_subset run only when a first eigenspace is a line
    ctx.absolutely_irreducible = strategy != "exhaustive_gfp" or 1 in (
        ctx.e_fam.ranks[0],
        ctx.estar_fam.ranks[0],
    )
    return "irreducible", outcome, strategy


def _gfp_line_representatives(field: PrimeField, n: int):
    """One representative per 1-dimensional subspace of GF(p)^n.

    Representatives have first nonzero coordinate 1: for each position k the
    earlier coordinates are 0, coordinate k is 1, later coordinates free.
    """
    zero, one = field.zero, field.one
    for k in range(n):
        for tail in product(range(field.p), repeat=n - k - 1):
            yield tuple([zero] * k + [one] + [field.from_int(c) for c in tail])


def compute_shape(e_fam: IdempotentFamily, estar_fam: IdempotentFamily):
    """The shape (common eigenspace dimensions), with all invariants.

    Returns (shape tuple, problem) where problem is None on success and a
    witness dict when ranks mismatch or symmetry/unimodality fails (both
    signal that the input is not a tridiagonal pair).
    """
    rho = tuple(e_fam.ranks)
    rho_star = tuple(estar_fam.ranks)
    if rho != rho_star:
        return None, {"reason": "rank mismatch between the two families", "rho_A": rho, "rho_Astar": rho_star}
    d = len(rho) - 1
    for i in range(d + 1):
        if rho[i] != rho[d - i]:
            return None, {"reason": "shape is not symmetric", "rho": rho}
    for i in range(1, d // 2 + 1):
        if rho[i - 1] > rho[i]:
            return None, {"reason": "shape is not unimodal", "rho": rho}
    return rho, None


def check_sharp(shape) -> bool:
    return shape[0] == 1


def validate(
    sys: TdSystem, options: ValidateOptions | None = None, ctx: SystemContext | None = None
) -> VerificationReport:
    """Run the full validation pipeline and report per-check statuses.

    Failing checks stop the dependent remainder of the pipeline (remaining
    checks are not emitted).  Sharpness is recorded as pass when the first
    eigenspace is a line and as skip otherwise: a valid non-sharp system is
    still a valid system, but its sharp-only analyses are unavailable.

    The families and the generated algebra are taken from `ctx`, a context
    of `sys`; without one, a fresh context derives them.
    """
    options = options or ValidateOptions()
    ctx = ctx or SystemContext(sys, options)
    report = VerificationReport()

    if sys.d + 1 > sys.n:
        report.add(
            Check(
                "input/dimension",
                FAIL,
                {"reason": f"{sys.d + 1} distinct eigenvalues cannot fit in dimension {sys.n}"},
            )
        )
        return report
    report.add(Check("input/dimension", PASS))

    dup = find_duplicate(sys.thetas) or find_duplicate(sys.thetas_star)
    if dup:
        report.add(Check("eigenvalues/distinct", FAIL, dup))
        return report
    report.add(Check("eigenvalues/distinct", PASS))

    fams = {}
    for name, attr in (("A", "e_fam"), ("Astar", "estar_fam")):
        try:
            fams[name] = getattr(ctx, attr)
        except NotDiagonalizableError as err:
            report.add(Check(f"diagonalizable/{name}", FAIL, err.defect))
            return report
        report.add(Check(f"diagonalizable/{name}", PASS))
        report.add(Check(f"idempotents/{name}", PASS, {"ranks": list(fams[name].ranks)}))
    e_fam, estar_fam = fams["A"], fams["Astar"]

    trid = check_tridiagonal(sys, e_fam, estar_fam)
    report.checks.extend(trid)
    if any(c.status == FAIL for c in trid):
        return report

    verdict, witness, used = check_irreducible(
        ctx,
        strategy=options.irreducibility,
        assume_note=options.assume_note,
    )
    if verdict == "reducible":
        report.add(
            Check("irreducible", FAIL, {"strategy": used, "invariant_subspace": witness})
        )
        return report
    if verdict == "inconclusive":
        report.add(Check("irreducible", INCONCLUSIVE, {"strategy": used, "detail": witness}))
        return report
    report.add(Check("irreducible", PASS, {"strategy": used, "detail": witness}))

    shape, problem = compute_shape(e_fam, estar_fam)
    if problem:
        report.add(Check("shape", FAIL, problem))
        return report
    report.shape = shape
    report.add(Check("shape", PASS, {"rho": list(shape)}))

    report.sharp = check_sharp(shape)
    if report.sharp:
        report.add(Check("sharp", PASS, {"rho_0": 1}))
    else:
        report.add(
            Check("sharp", SKIP, {"rho_0": shape[0], "note": "not sharp; sharp-only analyses unavailable"})
        )
    return report


def find_duplicate(values):
    """The first repeated value and the indices of its two occurrences, or None."""
    seen = {}
    for i, v in enumerate(values):
        if v in seen:
            return {"indices": [seen[v], i], "value": v}
        seen[v] = i
    return None
