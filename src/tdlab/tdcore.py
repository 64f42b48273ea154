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
from itertools import combinations, permutations

from . import matrices as mx
from .matrices import Matrix, Subspace
from .polys import set_of
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

    def ok(self) -> bool:
        return self.status == PASS


@dataclass
class VerificationReport:
    checks: list = dc_field(default_factory=list)
    reducibility_witness: Subspace | None = None
    shape: tuple | None = None
    sharp: bool | None = None
    irreducibility_strategy: str | None = None

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
    eigenvalues: tuple
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
        return IdempotentFamily(
            self.mats[::-1], self.eigenvalues[::-1], self.eigenspaces[::-1], self.ranks[::-1]
        )

    def transposed(self) -> "IdempotentFamily":
        """The family of the transposed operator: E_i^t, whose image is its eigenspace."""
        mats = tuple(e.transpose() for e in self.mats)
        spaces = tuple(mx.image(e) for e in mats)
        return IdempotentFamily(mats, self.eigenvalues, spaces, self.ranks)


@dataclass(frozen=True)
class ValidateOptions:
    irreducibility: str = "auto"  # auto | burnside | eigen_subset | exhaustive_gfp | assume
    assume_note: str | None = None


class SystemContext:
    """One system and the objects derived from it, each derived at most once.

    Derived on first use: the two idempotent families, the validation
    report, the basis of the algebra generated by A and A*, the split
    decomposition, the split sequence, and the operator polynomials the
    split identities read.  A context for a relative or the dual of a system
    starts from families permuted or transposed from that system's, so it
    never rebuilds them.
    """

    def __init__(self, sys: TdSystem, options: ValidateOptions | None = None, families=None):
        self.sys = sys
        self.options = options or ValidateOptions()
        if families is not None:
            self.e_fam, self.estar_fam = families

    @cached_property
    def e_fam(self) -> IdempotentFamily:
        return primitive_idempotents(self.sys.A, self.sys.thetas)

    @cached_property
    def estar_fam(self) -> IdempotentFamily:
        return primitive_idempotents(self.sys.Astar, self.sys.thetas_star)

    @cached_property
    def closure(self) -> list:
        """rref-canonical basis of the algebra generated by A and A*."""
        return mx.algebra_closure([self.sys.A, self.sys.Astar])

    @cached_property
    def report(self) -> VerificationReport:
        return validate(self.sys, self.options, self)

    @cached_property
    def decomposition(self):
        from .splitparam import split_decomposition

        return split_decomposition(self)

    @cached_property
    def zetas(self) -> tuple:
        from .splitparam import split_sequence

        return split_sequence(self)

    @cached_property
    def tau(self) -> list:
        """tau_i(A) = (A - theta_0)...(A - theta_{i-1}) for i = 0..d."""
        return _linear_products(self.sys.A, self.sys.thetas[:-1])

    @cached_property
    def tau_star(self) -> list:
        """tau*_i(A*) = (A* - theta*_0)...(A* - theta*_{i-1}) for i = 0..d."""
        return _linear_products(self.sys.Astar, self.sys.thetas_star[:-1])

    @cached_property
    def alternating(self) -> list:
        """(A* - theta*_1)...(A* - theta*_i) tau_i(A) for i = 0..d; on U_0 it is zeta_i."""
        return _alternating(_linear_products(self.sys.Astar, self.sys.thetas_star[1:]), self.tau)

    @cached_property
    def alternating_star(self) -> list:
        """(A - theta_1)...(A - theta_i) tau*_i(A*) for i = 0..d."""
        return _alternating(_linear_products(self.sys.A, self.sys.thetas[1:]), self.tau_star)


def _linear_products(m: Matrix, values) -> list:
    """The prefix products of (m - v I) over `values`: entry i is the product
    of the first i factors, entry 0 the identity.  The identity is never a
    factor of a multiplication."""
    ident = Matrix.identity(m.field, m.rows)
    out = [ident]
    for v in values:
        factor = m - ident.scale(v)
        out.append(factor if len(out) == 1 else out[-1] * factor)
    return out


def _alternating(sigma: list, tau: list) -> list:
    """sigma_i tau_i for i = 0..d, where both tables start at the identity."""
    return [tau[0]] + [s * t for s, t in zip(sigma[1:], tau[1:])]


def primitive_idempotents(m: Matrix, thetas) -> IdempotentFamily:
    """The Lagrange-product idempotent family of a diagonalizable operator.

    Raises NotDiagonalizableError when the eigenvalue list does not exhaust
    the space, and ValueError on a repeated eigenvalue.  All family
    invariants (partition of identity, orthogonality, eigen-relation,
    eigenspace match) are asserted before returning.
    """
    field = m.field
    thetas = tuple(thetas)
    if len(set_of(field, thetas)) != len(thetas):
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
    mats = []
    for i, ti in enumerate(thetas):
        others = thetas[:i] + thetas[i + 1 :]
        scale = field.one
        for tj in others:
            scale = scale / (ti - tj)
        mats.append(_linear_products(m, others)[-1].scale(scale))
    fam = IdempotentFamily(
        mats=tuple(mats),
        eigenvalues=thetas,
        eigenspaces=tuple(spaces),
        ranks=tuple(s.dim for s in spaces),
    )
    _assert_family_invariants(m, fam)
    return fam


def _assert_family_invariants(m: Matrix, fam: IdempotentFamily):
    field = m.field
    n = m.rows
    ident = Matrix.identity(field, n)
    total = Matrix.zeros(field, n, n)
    recon = Matrix.zeros(field, n, n)
    for t, e in zip(fam.eigenvalues, fam.mats):
        total = total + e
        recon = recon + e.scale(t)
        if not (m * e - e.scale(t)).is_zero():
            raise InvariantViolation("idempotent fails the eigen-relation")
    if total != ident:
        raise InvariantViolation("idempotents do not sum to the identity")
    if recon != m:
        raise InvariantViolation("operator is not the eigenvalue-weighted idempotent sum")
    for i, ei in enumerate(fam.mats):
        for j, ej in enumerate(fam.mats):
            prod = ei * ej
            expected = ei if i == j else Matrix.zeros(field, n, n)
            if prod != expected:
                raise InvariantViolation(f"idempotent product E_{i}E_{j} wrong")
    for e, space, rk in zip(fam.mats, fam.eigenspaces, fam.ranks):
        if mx.rank(e) != rk:
            raise InvariantViolation("idempotent rank differs from eigenspace dimension")
        if mx.image(e) != space:
            raise InvariantViolation("idempotent image differs from the eigenspace")


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


def _closure_of_vector(sys: TdSystem, vec) -> Subspace:
    builder = mx.SpanBuilder(sys.field, sys.n)
    builder.add(vec)
    frontier = [vec]
    while frontier:
        new_frontier = []
        for v in frontier:
            for m in (sys.A, sys.Astar):
                w = m.apply(v)
                if builder.add(w):
                    new_frontier.append(w)
        frontier = new_frontier
    return builder.subspace()


def check_irreducible(
    ctx: SystemContext,
    strategy: str = "auto",
    assume_note: str | None = None,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
):
    """Irreducibility of the pair, with an explicit verdict hierarchy.

    Returns (verdict, witness, strategy_used) where verdict is one of
    "irreducible", "reducible", "inconclusive".

    * burnside: generated-algebra dimension n^2 implies irreducible
      (sufficient only over non-closed fields).
    * eigen_subset: complete when every eigenspace of A is a line; any
      invariant subspace is then a sum of eigenlines, and all 2^(d+1)
      subsets are tested against Astar-invariance.
    * exhaustive_gfp: complete over GF(p) with p^n within the enumeration
      budget; every line is closed under both operators.
    * assume: trust the caller and record the note.

    The generated algebra and the primary family come from `ctx`, and are
    derived only when a strategy needs them.
    """
    sys = ctx.sys
    if strategy == "assume":
        return "irreducible", {"note": assume_note or "assumed by caller"}, "assume"
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
                        if not _verify_invariant_subspace(sys, w):
                            raise InvariantViolation("eigen-subset witness failed re-verification")
                        return "reducible", w, "eigen_subset"
            return "irreducible", {"subsets_tested": 2**d1 - 2}, "eigen_subset"
        if strategy == "eigen_subset":
            raise ValueError("eigen_subset strategy needs every eigenspace of A to be a line")
    if strategy == "exhaustive_gfp":
        if not isinstance(sys.field, PrimeField):
            raise ValueError("exhaustive_gfp strategy needs a prime field")
        if sys.field.p**sys.n > exhaustive_limit:
            raise ValueError(
                f"exhaustive_gfp infeasible: {sys.field.p}^{sys.n} exceeds {exhaustive_limit}"
            )
        for vec in _gfp_line_representatives(sys.field, sys.n):
            closure = _closure_of_vector(sys, vec)
            if not closure.is_full():
                if not _verify_invariant_subspace(sys, closure):
                    raise InvariantViolation("exhaustive witness failed re-verification")
                return "reducible", closure, "exhaustive_gfp"
        return "irreducible", {"lines_tested": (sys.field.p**sys.n - 1) // (sys.field.p - 1)}, "exhaustive_gfp"
    if strategy == "auto":
        return "inconclusive", {"note": "burnside insufficient and eigen_subset inapplicable"}, "auto"
    raise ValueError(f"unknown irreducibility strategy {strategy!r}")


def _gfp_line_representatives(field: PrimeField, n: int):
    """One representative per 1-dimensional subspace of GF(p)^n.

    Representatives have first nonzero coordinate 1: for each position k the
    earlier coordinates are 0, coordinate k is 1, later coordinates free.
    """
    p = field.p
    zero, one = field.zero, field.one
    for k in range(n):
        tail = n - k - 1
        counter = [0] * tail
        while True:
            yield tuple(
                [zero] * k + [one] + [field.from_int(c) for c in counter]
            )
            i = tail - 1
            while i >= 0:
                counter[i] += 1
                if counter[i] < p:
                    break
                counter[i] = 0
                i -= 1
            else:
                break
            continue


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

    dup = find_duplicate(sys.field, sys.thetas) or find_duplicate(sys.field, sys.thetas_star)
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
    report.irreducibility_strategy = used
    if verdict == "reducible":
        report.reducibility_witness = witness
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


def find_duplicate(field, values):
    seen = {}
    for i, v in enumerate(values):
        key = field.format(v)
        if key in seen:
            return {"indices": [seen[key], i], "value": key}
        seen[key] = i
    return None


def enumerate_standard_orderings(sys: TdSystem, e_fam: IdempotentFamily, estar_fam: IdempotentFamily):
    """All standard orderings of each eigenvalue list, by full enumeration.

    Factorial in d+1; restricted to d <= 4.
    """
    if sys.d > 4:
        raise ValueError("standard-ordering enumeration is limited to d <= 4")
    out = {}
    for name, fam, middle in (("A", e_fam, sys.Astar), ("Astar", estar_fam, sys.A)):
        good = []
        for perm in permutations(range(len(fam))):
            if _off_band_pair([fam[k] for k in perm], middle) is None:
                good.append(tuple(fam.eigenvalues[k] for k in perm))
        out[name] = good
    return out
