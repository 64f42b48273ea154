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
from itertools import product

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


def verdict(check_id: str, failures) -> Check:
    """Passes when the iterator `failures` yields nothing, else fails with its
    first witness; nothing after the first is drawn."""
    bad = next(failures, None)
    return Check(check_id, FAIL if bad else PASS, bad)


@dataclass
class VerificationReport:
    checks: list = dc_field(default_factory=list)
    shape: tuple | None = None
    sharp: bool | None = None
    # irreducibility was proved in a way that shows only scalars commute
    # with A and A* (see check_irreducible)
    absolutely_irreducible: bool = False

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
    """Primitive idempotents of one operator in the candidate order, their
    partial sums and the line factors of the rank-one ones."""

    mats: tuple
    eigenspaces: tuple  # Subspace per eigenvalue
    ranks: tuple
    reversal_of: "IdempotentFamily | None" = dc_field(default=None, repr=False, compare=False)
    _lines: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def __iter__(self):
        return iter(self.mats)

    def __getitem__(self, i):
        return self.mats[i]

    def __len__(self):
        return len(self.mats)

    def reversed(self) -> "IdempotentFamily":
        """The same idempotents for the reversed eigenvalue order."""
        return IdempotentFamily(self.mats[::-1], self.eigenspaces[::-1], self.ranks[::-1], self)

    @cached_property
    def partial_sums(self) -> tuple:
        """(prefix, suffix): prefix[i] = E_0V+...+E_iV and suffix[i] =
        E_iV+...+E_dV, each chain one elimination (see _running_sums).  The
        family of the reversed order reads its original's chains reversed."""
        if self.reversal_of is not None:
            prefix, suffix = self.reversal_of.partial_sums
            return suffix[::-1], prefix[::-1]
        return _running_sums(self.eigenspaces), _running_sums(self.eigenspaces[::-1])[::-1]

    def line_factors(self, i: int):
        """(x, y) with E_i = x y^t (see _line_factors), derived once per i.
        The family of the reversed order reads its original's."""
        if self.reversal_of is not None:
            return self.reversal_of.line_factors(len(self) - 1 - i)
        if i not in self._lines:
            self._lines[i] = _line_factors(self, i)
        return self._lines[i]

    def transposed(self) -> "IdempotentFamily":
        """The family of the transposed operator: E_i^t, whose image is its eigenspace."""
        mats = tuple(e.transpose() for e in self.mats)
        spaces = tuple(mx.image(e) for e in mats)
        return IdempotentFamily(mats, spaces, self.ranks)


def _running_sums(spaces) -> tuple:
    """spaces[0], spaces[0]+spaces[1], ...: mx.direct_sums, asserting every
    step direct, as eigenspaces are (projections inverted their bases)."""
    return tuple(mx.direct_sums(spaces))


@dataclass(frozen=True)
class ValidateOptions:
    irreducibility: str = "auto"  # auto | exhaustive_gfp | assume
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
        """rref-canonical basis of the algebra generated by A and A*, solved
        on first read.  Validation never reads it, and conjlab reads it only
        on a pair not proved absolutely irreducible; on one that is, the
        algebra is all of Mat_n (see check_irreducible)."""
        return mx.algebra_closure([self.sys.A, self.sys.Astar])

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

    With C holding the concatenated bases as columns and R = C^-1 as rows,
    F_i = C_i R_i: one inversion serves all of them.  Asserted: the F_i sum
    to C R = I.  The rest follows: C is square (else the inversion raises),
    so R C = I as well, that is R_i C_j = delta_ij I; hence F_i F_j =
    delta_ij F_i, F_i C_i = C_i, and F_i has the span of C_i as image.
    """
    change = Matrix(field, [v for s in subspaces for v in s.basis]).transpose()
    change_inv = mx.inverse(change)
    out = []
    lo = 0
    for s in subspaces:
        hi = lo + s.dim
        if lo == hi:
            out.append(Matrix.zeros(field, n, n))
        else:
            block = Matrix(field, [row[lo:hi] for row in change.data])
            out.append(block * Matrix(field, change_inv.data[lo:hi]))
        lo = hi
    if sum(out, Matrix.zeros(field, n, n)) != Matrix.identity(field, n):
        raise InvariantViolation("projections do not sum to the identity")
    return out


def primitive_idempotents(m: Matrix, thetas) -> IdempotentFamily:
    """The primitive idempotents of a diagonalizable operator, in the order of
    thetas: the projections along its eigenspace decomposition.

    Raises NotDiagonalizableError when the eigenvalue list does not exhaust
    the space, and ValueError on a repeated eigenvalue.  Asserted before
    returning, besides the sum to the identity (see projections): the
    eigen-relation (m - theta_i) v = 0 on each basis vector v of E_iV.  As
    E_i = C_i R_i with R_i of full row rank, that is m E_i = theta_i E_i;
    rank E_i = dim E_iV follows from R_i C_i = I, and m = m sum E_i =
    sum theta_i E_i.
    """
    field = m.field
    thetas = tuple(thetas)
    if len(set(thetas)) != len(thetas):
        raise ValueError("repeated eigenvalues")
    n = m.rows
    ident = Matrix.identity(field, n)
    shifts = [m - ident.scale(t) for t in thetas]
    spaces = [mx.kernel(s) for s in shifts]
    total = sum(s.dim for s in spaces)
    if total < n:
        raise NotDiagonalizableError(
            "eigenvalue list does not exhaust the space",
            defect={"kernel_dims": [s.dim for s in spaces], "n": n},
        )
    mats = projections(field, n, spaces)
    for shift, space in zip(shifts, spaces):
        if any(any(shift.apply(v)) for v in space.basis):
            raise InvariantViolation("idempotent fails the eigen-relation")
    return IdempotentFamily(
        mats=tuple(mats),
        eigenspaces=tuple(spaces),
        ranks=tuple(s.dim for s in spaces),
    )


def band_blocks(fam: IdempotentFamily, m: Matrix) -> list:
    """(i, j, block) for every |i - j| > 1, scanning i, then j: the block
    is E_i M applied to the basis of E_jV, one vector per basis vector.

    E_j maps V onto E_jV, so the block is zero exactly when E_i M E_j is,
    and M is block-tridiagonal for the ordering (M E_jV within
    E_{j-1}V + E_jV + E_{j+1}V) iff every block is zero.  No matrix
    product is formed.
    """
    images = [[m.apply(v) for v in space.basis] for space in fam.eigenspaces]
    return [
        (i, j, [ei.apply(w) for w in images[j]])
        for i, ei in enumerate(fam)
        for j in range(len(fam))
        if abs(i - j) > 1
    ]


def check_tridiagonal(sys: TdSystem, e_fam: IdempotentFamily, estar_fam: IdempotentFamily):
    """Block-tridiagonality of both candidate orderings.

    Returns the two checks (primary ordering against Astar, dual ordering
    against A); each failure carries the first index pair whose band block
    (see band_blocks) is nonzero.
    """
    return [
        verdict(check_id, ({"i": i, "j": j} for i, j, block in band_blocks(fam, m) if any(map(any, block))))
        for check_id, fam, m in (
            ("tridiagonal/A_ordering", e_fam, sys.Astar),
            ("tridiagonal/Astar_ordering", estar_fam, sys.A),
        )
    ]


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

    * auto: Norton's test when E*_0 has rank 1, which is complete there:
      one spin of the line E*_0 V and one of its transposed twin decide
      (see _norton), and the strategy reported is "norton".  Otherwise
      "inconclusive", with no closure solved.  Burnside's test could not
      prove irreducibility there: validate calls this only on a
      diagonalizable, block-tridiagonal pair with every eigenspace nonzero,
      so a generated algebra of dimension n^2 would make it a tridiagonal
      pair over the algebraic closure with the same eigenspace dimensions,
      and every such pair is sharp (Nomura-Terwilliger, Sharp tridiagonal
      pairs, 2008): E*_0 would be a line.  When every eigenspace of A is a
      line, n = d+1, so every eigenspace of A* is one too.
    * exhaustive_gfp: complete over GF(p) with p^n within the enumeration
      budget; every line is closed under both operators.
    * assume: trust the caller and record the note.

    When a complete strategy proves irreducibility and E_0 or E*_0 is a
    line, every map commuting with A and A* fixes that line and so is a
    scalar; validate records this as `report.absolutely_irreducible`.  A
    and A* then generate all of Mat_n by the density theorem, which the
    corner algebra reads without solving the closure.  Every reducibility
    witness is re-verified before it is returned.  The families come from
    `ctx`, and are derived only when a strategy needs them.
    """
    sys = ctx.sys
    if strategy == "assume":
        return "irreducible", {"note": assume_note or "assumed by caller"}, "assume"
    if strategy == "auto" and ctx.estar_fam.ranks[0] == 1:
        return _proved(ctx, _norton(ctx, *ctx.estar_fam.line_factors(0)), "norton")
    if strategy == "auto":
        return "inconclusive", {"note": "burnside insufficient and E*_0 is not a line"}, "auto"
    if strategy == "exhaustive_gfp":
        if not isinstance(sys.field, PrimeField):
            raise ValueError("exhaustive_gfp strategy needs a prime field")
        if sys.field.p**sys.n > EXHAUSTIVE_LIMIT:
            raise ValueError(
                f"exhaustive_gfp strategy infeasible: {sys.field.p}^{sys.n} exceeds {EXHAUSTIVE_LIMIT}"
            )
        for vec in _gfp_line_representatives(sys.field, sys.n):
            span, _, _ = _spin((sys.A, sys.Astar), vec)
            if span.dim < sys.n:
                return _proved(ctx, span.subspace(), "exhaustive_gfp")
        lines_tested = (sys.field.p**sys.n - 1) // (sys.field.p - 1)
        return _proved(ctx, {"lines_tested": lines_tested}, "exhaustive_gfp")
    raise ValueError(f"unknown irreducibility strategy {strategy!r}")


def _proved(ctx: SystemContext, outcome, strategy: str):
    """The verdict of a complete strategy: a Subspace outcome is an invariant
    subspace, re-verified here; anything else details a proof of
    irreducibility."""
    if isinstance(outcome, Subspace):
        if not _verify_invariant_subspace(ctx.sys, outcome):
            raise InvariantViolation(f"{strategy} witness failed re-verification")
        return "reducible", outcome, strategy
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
    checks are not emitted).  `idempotents/<op>` fails when a listed
    eigenvalue has no eigenvector: the ordering is one of eigenspaces, each
    nonzero.  Sharpness is recorded as pass when the first eigenspace is a
    line and as skip otherwise: a valid non-sharp system is still a valid
    system, but its sharp-only analyses are unavailable.

    The families are taken from `ctx`, a context of `sys`; without one, a
    fresh context derives them.
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
        ranks = list(fams[name].ranks)
        if 0 in ranks:  # a listed eigenvalue without an eigenvector
            report.add(Check(f"idempotents/{name}", FAIL, {"ranks": ranks}))
            return report
        report.add(Check(f"idempotents/{name}", PASS, {"ranks": ranks}))
    e_fam, estar_fam = fams["A"], fams["Astar"]

    trid = check_tridiagonal(sys, e_fam, estar_fam)
    report.checks.extend(trid)
    if any(c.status == FAIL for c in trid):
        return report

    outcome, witness, used = check_irreducible(
        ctx,
        strategy=options.irreducibility,
        assume_note=options.assume_note,
    )
    if outcome == "reducible":
        report.add(
            Check("irreducible", FAIL, {"strategy": used, "invariant_subspace": witness})
        )
        return report
    if outcome == "inconclusive":
        report.add(Check("irreducible", INCONCLUSIVE, {"strategy": used, "detail": witness}))
        return report
    report.add(Check("irreducible", PASS, {"strategy": used, "detail": witness}))
    # norton runs only when E*_0 is a line
    report.absolutely_irreducible = used == "norton" or (
        used == "exhaustive_gfp" and 1 in (e_fam.ranks[0], estar_fam.ranks[0])
    )

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
