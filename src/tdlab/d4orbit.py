"""The eight-element relative group acting on systems, the q parameter, the
three-index Pochhammer bracket, and the relations tying the split
sequences of the relatives together.

Each element is kept as its canonical word rev_dual^a rev_primary^b swap^c,
whose letters act on a system from left to right: rev_dual reverses the dual
eigenvalue order, rev_primary reverses the primary one, and swap exchanges
the two operators.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import splitparam as sp
from .polys import TauEtaFamily
from .scalars import Field, sqrt_in_field
from .tdcore import (
    FAIL,
    PASS,
    SKIP,
    Check,
    InvariantViolation,
    SystemContext,
    TdSystem,
    compute_shape,
    verdict,
)


@dataclass(frozen=True)
class D4Element:
    rev_dual: bool = False
    rev_primary: bool = False
    swap: bool = False

    @property
    def name(self) -> str:
        if self == IDENTITY:
            return "id"
        parts = []
        if self.rev_dual:
            parts.append("rev_dual")
        if self.rev_primary:
            parts.append("rev_primary")
        if self.swap:
            parts.append("swap")
        return "_".join(parts)

    def __repr__(self):
        return f"D4Element({self.name})"


IDENTITY = D4Element()
REV_DUAL = D4Element(rev_dual=True)
REV_PRIMARY = D4Element(rev_primary=True)
SWAP = D4Element(swap=True)

ALL_ELEMENTS = (
    IDENTITY,
    REV_DUAL,
    REV_PRIMARY,
    D4Element(rev_dual=True, rev_primary=True),
    SWAP,
    D4Element(rev_dual=True, swap=True),
    D4Element(rev_primary=True, swap=True),
    D4Element(rev_dual=True, rev_primary=True, swap=True),
)


def apply_relative(sys: TdSystem, g: D4Element) -> TdSystem:
    """The relative of a system: reorderings and/or the operator swap.

    Pure data transform; relative_context adds the derived objects.
    """
    thetas = tuple(reversed(sys.thetas)) if g.rev_primary else sys.thetas
    thetas_star = tuple(reversed(sys.thetas_star)) if g.rev_dual else sys.thetas_star
    if g.swap:
        return TdSystem(sys.field, sys.n, sys.Astar, sys.A, thetas_star, thetas, sys.q_hint)
    return TdSystem(sys.field, sys.n, sys.A, sys.Astar, thetas, thetas_star, sys.q_hint)


def relative_context(ctx: SystemContext, g: D4Element) -> SystemContext:
    """The context of a relative (see SystemContext.seeded): reversing an
    eigenvalue order reverses that family, and the swap exchanges the two."""
    e_fam, estar_fam = ctx.e_fam, ctx.estar_fam
    if g.rev_primary:
        e_fam = e_fam.reversed()
    if g.rev_dual:
        estar_fam = estar_fam.reversed()
    if g.swap:
        e_fam, estar_fam = estar_fam, e_fam
    return ctx.seeded(apply_relative(ctx.sys, g), e_fam, estar_fam)


@dataclass(frozen=True)
class QData:
    kind: str  # generic | one | minus_one | undetermined
    q: object = None
    beta: object = None
    chosen_root_note: str = ""

    def report_fields(self) -> dict:
        """The q data as a report shows it: only what is known."""
        out = {"kind": self.kind}
        if self.q is not None:
            out["q"] = self.q
        if self.beta is not None:
            out["beta"] = self.beta
        if self.chosen_root_note:
            out["note"] = self.chosen_root_note
        return out


class BracketUnavailable(ValueError):
    """No bracket value can be produced for the requested q situation."""


def q_extract(sys: TdSystem) -> QData:
    """The common eigenvalue-ratio value and the q solving it.

    For d >= 3 every three-term ratio of both sequences must agree; the
    double-root cases of q^2 - (beta-1)q + 1 = 0 are exactly q = 1
    (beta = 3) and q = -1 (beta = -1).  Distinct roots are a reciprocal
    pair; the one with shortlex-smaller canonical text is chosen (the
    choice is immaterial: brackets are invariant under q <-> 1/q).
    """
    field, d = sys.field, sys.d
    ratios = sp.three_term_ratios(sys.thetas) + sp.three_term_ratios(sys.thetas_star)
    if not ratios:
        if sys.q_hint is not None:
            return _classify_hint(field, sys.q_hint)
        return QData("undetermined", chosen_root_note="no ratio data for d <= 2 and no hint")
    beta = ratios[0]
    for k, r in enumerate(ratios[1:], start=1):
        if r != beta:
            raise InvariantViolation(
                "eigenvalue ratios are not constant",
                {"first": beta, "other": r, "position": k},
            )
    if beta == field.from_int(3):
        return QData("one", field.one, beta, "double root at 1")
    if beta == -field.one:
        return QData("minus_one", -field.one, beta, "double root at -1")
    b1 = beta - field.one
    disc = b1 * b1 - field.from_int(4)
    root = sqrt_in_field(field, disc)
    if root is None:
        note = "discriminant is not a square in the field"
        if sys.q_hint is not None:
            note += "; supplied q hint cannot satisfy the quadratic and was ignored"
        return QData("undetermined", beta=beta, chosen_root_note=note)
    two = field.from_int(2)
    r1 = (b1 + root) / two
    r2 = (b1 - root) / two
    q = _shortlex_min(field, r1, r2)
    other = r2 if q == r1 else r1
    return QData(
        "generic",
        q,
        beta,
        f"roots {field.format(r1)} and {field.format(r2)}; chose {field.format(q)} "
        f"(shortlex) over {field.format(other)}",
    )


def _classify_hint(field: Field, hint) -> QData:
    if hint == field.zero:
        raise ValueError("q hint must be nonzero")
    if hint == field.one:
        return QData("one", field.one, field.from_int(3), "q = 1 from hint")
    if hint == -field.one:
        return QData("minus_one", -field.one, -field.one, "q = -1 from hint")
    beta = hint + field.one / hint + field.one
    return QData("generic", hint, beta, "q from hint (d <= 2 has no ratio data)")


def _shortlex_min(field: Field, a, b):
    ta, tb = field.format(a), field.format(b)
    return a if (len(ta), ta) <= (len(tb), tb) else b


def bracket(field: Field, r: int, s: int, t: int, qd: QData):
    """The symmetric three-index Pochhammer ratio.

    Brackets with a zero index are 1 and need no q at all.  Generic q uses
    the Pochhammer formula; q = 1 uses the factorial-ratio limit (rejected
    in characteristic <= r+s+t, where a needed factorial vanishes); q = -1
    and undetermined q are unavailable.
    """
    if min(r, s, t) < 0:
        raise ValueError("bracket indices must be nonnegative")
    if min(r, s, t) == 0:
        return field.one
    if qd.kind == "generic":
        q, one = qd.q, field.one
        poch, term = [one], q  # (q;q)_0 .. (q;q)_{r+s+t}, (q;q)_k = (1-q)...(1-q^k)
        for _ in range(r + s + t):
            poch.append(poch[-1] * (one - term))
            term = term * q
        num = poch[r + s] * poch[r + t] * poch[s + t]
        den = poch[r] * poch[s] * poch[t] * poch[r + s + t]
        if den == field.zero:
            raise BracketUnavailable(
                f"q has multiplicative order <= {r + s + t}; Pochhammer denominator vanishes"
            )
        return num / den
    if qd.kind == "one":
        char = field.characteristic
        if char != 0 and char <= r + s + t:
            raise BracketUnavailable(
                f"characteristic {char} divides a required factorial at q = 1"
            )
        num = _field_factorial(field, r + s) * _field_factorial(field, r + t) * _field_factorial(field, s + t)
        den = (
            _field_factorial(field, r)
            * _field_factorial(field, s)
            * _field_factorial(field, t)
            * _field_factorial(field, r + s + t)
        )
        return num / den
    if qd.kind == "minus_one":
        raise BracketUnavailable("no bracket value is defined here for q = -1")
    raise BracketUnavailable("q is undetermined and the bracket has all indices positive")


def _field_factorial(field: Field, n: int):
    acc = field.one
    for k in range(2, n + 1):
        acc = acc * field.from_int(k)
    return acc


def bracket_expansion_check(sys: TdSystem, qd: QData):
    """The eta-into-tau expansion with bracket coefficients, per degree.

    Checked as exact polynomial identities for every window size.  When
    brackets are unavailable the check is reported as skip with the reason.
    """
    field, d = sys.field, sys.d
    fam = TauEtaFamily(field, sys.thetas)
    witness_note = {"q_one_limit": True} if qd.kind == "one" else None
    try:
        for i in range(d + 1):
            lhs = fam.eta(i)
            rhs = None
            for h in range(i + 1):
                coeff = bracket(field, h, i - h, d - i, qd) * fam.eta_at(i - h, sys.thetas[0])
                term = fam.tau(h).scale(coeff)
                rhs = term if rhs is None else rhs + term
            if lhs != rhs:
                return Check(
                    "poly/eta_bracket_expansion",
                    FAIL,
                    {"i": i, "lhs": lhs.coeffs, "rhs": rhs.coeffs},
                )
    except BracketUnavailable as reason:
        return Check("poly/eta_bracket_expansion", SKIP, {"reason": str(reason)})
    return Check("poly/eta_bracket_expansion", PASS, witness_note)


def compute_orbit(ctx: SystemContext):
    """The split data of all eight relatives of a validated sharp system.

    The identity relative is the base context itself.  The others take its
    families and report (see relative_context), and each builds its own split
    sequence and parameter array and reads its shape from its own families.
    The complement g' of g (all three letters flipped) has U'_i =
    (E_dV+...+E_{d-i}V) meet (E*_{d-i}V+...+E*_0V) = U_{d-i}, so it takes g's
    summands reversed: four split decompositions serve all eight.  The
    assertions split_decomposition would make on g' repeat g's: its partial
    sums are g's tail sums, its raising is g's lowering and its lowering g's
    raising, and dim U'_i = dim U_{d-i} = rho*_{d-i} follows from g's
    partial-sum identities.  Returns {name: dict} in the fixed element order.
    """
    if not ctx.report.passed():
        raise InvariantViolation("relative id failed validation", {"relative": "id"})
    if not ctx.report.sharp:
        raise InvariantViolation("relative id is not sharp", {"relative": "id"})
    orbit, summands = {}, {}
    for g in ALL_ELEMENTS:
        rel = ctx if g == IDENTITY else relative_context(ctx, g)
        complement = D4Element(not g.rev_dual, not g.rev_primary, not g.swap)
        if complement in summands:
            rel.decomposition = summands[complement][::-1]
        summands[g] = rel.decomposition
        orbit[g.name] = {
            "zetas": rel.zetas,
            "array": sp.parameter_array(rel.sys, rel.zetas),
            "shape": compute_shape(rel.e_fam, rel.estar_fam)[0],
        }
    return orbit


def zeta_relations_check(sys: TdSystem, qd: QData, orbit: dict):
    """All split-sequence relations across the orbit.

    Bracket unavailability downgrades only the bracket-dependent relation
    checks to skip; the column-sharing and last-term statements never need
    brackets.
    """
    field, d = sys.field, sys.d
    checks = []

    shapes = {name: data["shape"] for name, data in orbit.items()}
    base_shape = shapes["id"]
    bad = {n: list(s) for n, s in shapes.items() if s != base_shape}
    checks.append(Check("orbit/shapes_equal", FAIL if bad else PASS, bad or None))

    pairs = [
        ("id", "swap"),
        ("rev_dual", "rev_dual_swap"),
        ("rev_primary", "rev_primary_swap"),
        ("rev_dual_rev_primary", "rev_dual_rev_primary_swap"),
    ]
    unequal = ((a, b) for a, b in pairs if orbit[a]["zetas"] != orbit[b]["zetas"])
    witnesses = ({"pair": [a, b], "first": orbit[a]["zetas"], "second": orbit[b]["zetas"]} for a, b in unequal)
    checks.append(verdict("orbit/column_sequences_equal", witnesses))

    z = orbit["id"]["zetas"]
    z_rd = orbit["rev_dual"]["zetas"]
    z_rp = orbit["rev_primary"]["zetas"]
    z_both = orbit["rev_dual_rev_primary"]["zetas"]

    fam_t = TauEtaFamily(field, sys.thetas)
    fam_s = TauEtaFamily(field, sys.thetas_star)
    pre_t = sp._prefix_products(field, list(sys.thetas), sys.thetas[0])
    pre_s = sp._prefix_products(field, list(sys.thetas_star), sys.thetas_star[0])
    suf_t = sp._prefix_products(field, list(reversed(sys.thetas)), sys.thetas[d])
    suf_s = sp._prefix_products(field, list(reversed(sys.thetas_star)), sys.thetas_star[d])

    relations = [
        ("orbit/relation_rev_dual", pre_t,
         lambda k: fam_s.eta_at(k, sys.thetas_star[0]), z_rd, z,
         lambda k: fam_s.tau_at(k, sys.thetas_star[d])),
        ("orbit/relation_rev_primary", pre_s,
         lambda k: fam_t.eta_at(k, sys.thetas[0]), z_rp, z,
         lambda k: fam_t.tau_at(k, sys.thetas[d])),
        ("orbit/relation_rev_both_from_rev_dual", suf_s,
         lambda k: fam_t.eta_at(k, sys.thetas[0]), z_both, z_rd,
         lambda k: fam_t.tau_at(k, sys.thetas[d])),
        ("orbit/relation_rev_both_from_rev_primary", suf_t,
         lambda k: fam_s.eta_at(k, sys.thetas_star[0]), z_both, z_rp,
         lambda k: fam_s.tau_at(k, sys.thetas_star[d])),
    ]
    q_note = {"q_one_limit": True} if qd.kind == "one" else None
    for check_id, dens, weight_fwd, z_new, z_old, weight_inv in relations:
        try:
            bad = _relation_witness(field, d, qd, dens, weight_fwd, z_new, z_old)
            if bad is None:
                bad = _relation_witness(field, d, qd, dens, weight_inv, z_old, z_new)
                if bad is not None:
                    bad["direction"] = "inverse"
            else:
                bad["direction"] = "forward"
        except BracketUnavailable as reason:
            checks.append(Check(check_id, SKIP, {"reason": str(reason)}))
            continue
        checks.append(Check(check_id, FAIL if bad else PASS, bad or q_note))

    weighted = sp.weighted_zeta_sum(field, sys.thetas, sys.thetas_star, z)
    last = {name: data["zetas"][d] for name, data in orbit.items()}
    unchanged = ("id", "swap", "rev_dual_rev_primary", "rev_dual_rev_primary_swap")
    moved = ({"relative": r, "last_term": last[r]} for r in unchanged if last[r] != z[d])
    checks.append(verdict("orbit/last_term_unchanged_group", moved))
    weighted_group = ("rev_dual", "rev_primary", "rev_dual_swap", "rev_primary_swap")
    off = (r for r in weighted_group if last[r] != weighted)
    witnesses = ({"relative": r, "last_term": last[r], "weighted_sum": weighted} for r in off)
    checks.append(verdict("orbit/last_term_weighted_group", witnesses))

    # cross-consistency: the rev_primary relation at i = d (all brackets have a
    # zero index there) must reproduce the weighted sum.
    acc = field.zero
    for h in range(d + 1):
        acc = acc + fam_t.eta_at(d - h, sys.thetas[0]) * (pre_s[d] / pre_s[h]) * z[h]
    bad = None
    if acc != weighted or z_rp[d] != acc:
        bad = {"relation_value": acc, "weighted_sum": weighted, "last_term": z_rp[d]}
    checks.append(Check("orbit/last_term_cross_consistency", FAIL if bad else PASS, bad))
    return checks


def _relation_witness(field, d, qd, dens, weight_at, z_lhs, z_rhs):
    """One direction of a relation: z_lhs through brackets from z_rhs."""
    for i in range(d + 1):
        lhs = z_lhs[i] / dens[i]
        rhs = field.zero
        for h in range(i + 1):
            rhs = rhs + bracket(field, h, i - h, d - i, qd) * weight_at(i - h) * z_rhs[h] / dens[h]
        if lhs != rhs:
            return {"i": i, "lhs": lhs, "rhs": rhs}
    return None

