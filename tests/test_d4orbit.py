from fractions import Fraction as F

import pytest

from tdlab.d4orbit import (
    ALL_ELEMENTS,
    IDENTITY,
    REV_DUAL,
    REV_PRIMARY,
    SWAP,
    BracketUnavailable,
    D4Element,
    QData,
    apply_relative,
    bracket,
    bracket_expansion_check,
    compute_orbit,
    q_extract,
    zeta_relations_check,
)
from tdlab.appshell import relations_stage
from tdlab.polys import Poly
from tdlab.rng import SplitMix64
from tdlab.scalars import PrimeField, RationalField
from tdlab.tdcore import InvariantViolation, SystemContext, TdSystem

QQ = RationalField()


def d4_compose(g: D4Element, h: D4Element) -> D4Element:
    """The word g followed by h, in canonical form.

    Pushing a trailing swap past reversal letters exchanges the two
    reversals (swap conjugates one reversal into the other), which is the
    whole group law of this dihedral group.
    """
    if g.swap:
        a = g.rev_dual ^ h.rev_primary
        b = g.rev_primary ^ h.rev_dual
    else:
        a = g.rev_dual ^ h.rev_dual
        b = g.rev_primary ^ h.rev_primary
    return D4Element(a, b, g.swap ^ h.swap)


def test_group_has_eight_elements():
    seen = set()
    for g in ALL_ELEMENTS:
        for h in ALL_ELEMENTS:
            seen.add(d4_compose(g, h))
    assert seen == set(ALL_ELEMENTS)
    assert len(ALL_ELEMENTS) == 8


def test_defining_relations():
    for g in (SWAP, REV_DUAL, REV_PRIMARY):
        assert d4_compose(g, g) == IDENTITY
    # pushing the swap past a reversal exchanges the two reversals
    assert d4_compose(REV_PRIMARY, SWAP) == d4_compose(SWAP, REV_DUAL)
    assert d4_compose(REV_DUAL, SWAP) == d4_compose(SWAP, REV_PRIMARY)
    assert d4_compose(REV_DUAL, REV_PRIMARY) == d4_compose(REV_PRIMARY, REV_DUAL)


def d4_inverse(g):
    return next(h for h in ALL_ELEMENTS if d4_compose(g, h) == IDENTITY)


def test_group_axioms():
    for g in ALL_ELEMENTS:
        assert d4_compose(IDENTITY, g) == g == d4_compose(g, IDENTITY)
        assert d4_compose(g, d4_inverse(g)) == IDENTITY
        for h in ALL_ELEMENTS:
            for k in ALL_ELEMENTS:
                assert d4_compose(d4_compose(g, h), k) == d4_compose(g, d4_compose(h, k))


def test_involution_word():
    # swap twice then rev_dual is rev_dual
    w = d4_compose(d4_compose(SWAP, SWAP), REV_DUAL)
    assert w == REV_DUAL


def test_apply_matches_compose(x1):
    sys, _ = x1
    for g in ALL_ELEMENTS:
        for h in ALL_ELEMENTS:
            one_shot = apply_relative(sys, d4_compose(g, h))
            two_step = apply_relative(apply_relative(sys, g), h)
            assert one_shot == two_step


def test_relative_data(x1):
    sys, _ = x1
    down_up = apply_relative(apply_relative(sys, REV_DUAL), REV_DUAL)
    assert down_up == sys
    rp = apply_relative(sys, REV_PRIMARY)
    assert rp.thetas == (F(0), F(1))
    assert rp.thetas_star == (F(1), F(0))
    sw = apply_relative(sys, SWAP)
    assert sw.A == sys.Astar and sw.Astar == sys.A


def test_orbit_shapes_equal(x1):
    sys, _ = x1
    orbit = compute_orbit(SystemContext(sys))
    assert len(orbit) == 8
    assert all(data["shape"] == (1, 1) for data in orbit.values())


def test_x1_orbit_split_sequences(x1):
    sys, _ = x1
    orbit = compute_orbit(SystemContext(sys))
    assert orbit["id"]["zetas"] == (F(1), F(1))
    assert orbit["swap"]["zetas"] == (F(1), F(1))
    assert orbit["rev_dual"]["zetas"] == (F(1), F(2))
    assert orbit["rev_primary"]["zetas"] == (F(1), F(2))


def test_q_extract_powers_of_two():
    thetas = tuple(F(v) for v in (1, 2, 4, 8))
    sys = _fake_system(thetas, thetas)
    qd = q_extract(sys)
    assert qd.beta == F(7, 2)
    assert qd.kind == "generic"
    assert qd.q == F(2)
    assert "1/2" in qd.chosen_root_note


def test_q_extract_arithmetic_progression():
    thetas = tuple(F(v) for v in (0, 1, 2, 3))
    qd = q_extract(_fake_system(thetas, thetas))
    assert qd.kind == "one" and qd.beta == F(3)


def test_q_extract_minus_one():
    # beta = -1 sequence: theta_{i+1} = theta_{i-2} + (theta_{i-1} - theta_i)
    thetas = tuple(F(v) for v in (0, 1, 3, -2))
    assert (thetas[0] - thetas[3]) / (thetas[1] - thetas[2]) == F(-1)
    qd = q_extract(_fake_system(thetas, thetas))
    assert qd.kind == "minus_one"


def test_q_extract_undetermined_low_diameter(x1):
    sys, _ = x1
    assert q_extract(sys).kind == "undetermined"


def test_q_extract_uses_hint_below_d3(x1):
    sys, _ = x1
    hinted = TdSystem(sys.field, sys.n, sys.A, sys.Astar, sys.thetas, sys.thetas_star, F(2))
    qd = q_extract(hinted)
    assert qd.kind == "generic" and qd.q == F(2) and qd.beta == F(7, 2)


def test_q_extract_inconsistent_ratios():
    thetas = tuple(F(v) for v in (1, 2, 4, 8, 10))
    with pytest.raises(InvariantViolation):
        q_extract(_fake_system(thetas, thetas))


def test_q_extract_non_square_discriminant(inst_d3_no_q):
    sys, _ = inst_d3_no_q
    qd = q_extract(sys)
    assert qd.kind == "undetermined"
    assert qd.beta == F(1)


def test_q_extract_over_gf():
    f = PrimeField(13)
    q = f.from_int(2)
    thetas = tuple(f.from_int(3) * q**i for i in range(4))
    qd = q_extract(_fake_system(thetas, thetas, field=f))
    assert qd.kind == "generic"
    # beta = q + 1/q + 1 = 2 + 7 + 1
    assert qd.beta == f.from_int(10)
    assert qd.q in (f.from_int(2), f.from_int(7))


def _fake_system(thetas, thetas_star, field=QQ):
    from tdlab.matrices import Matrix

    n = len(thetas)
    zero = field.zero
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = thetas[i]
    a = Matrix(field, rows)
    return TdSystem(field, n, a, a, thetas, thetas_star)


def test_zero_index_brackets_need_no_q():
    qd = QData("undetermined")
    for r in range(4):
        for s in range(4):
            assert bracket(QQ, r, s, 0, qd) == F(1)
            assert bracket(QQ, 0, r, s, qd) == F(1)


def test_bracket_example_q2():
    qd = QData("generic", q=F(2))
    assert bracket(QQ, 1, 1, 1, qd) == F(9, 7)


def test_bracket_example_q_half():
    qd = QData("generic", q=F(1, 2))
    assert bracket(QQ, 1, 1, 1, qd) == F(9, 7)


def test_bracket_symmetry_and_reciprocal_invariance():
    rng = SplitMix64(123)
    fields = [(QQ, None), (PrimeField(10007), None)]
    for field, _ in fields:
        for _ in range(10):
            if field is QQ:
                q = F(rng.randint(2, 12), rng.randint(1, 3))
                if q in (F(1), F(-1), F(0)):
                    continue
            else:
                q = field.from_int(2 + rng.randrange(field.p - 3))
            qd = QData("generic", q=q)
            qd_inv = QData("generic", q=field.one / q)
            for r in range(3):
                for s in range(3):
                    for t in range(3):
                        v = bracket(field, r, s, t, qd)
                        assert v == bracket(field, s, r, t, qd)
                        assert v == bracket(field, t, s, r, qd)
                        assert v == bracket(field, r, t, s, qd)
                        assert v == bracket(field, r, s, t, qd_inv)


def _q_one_limit_oracle(r, s, t):
    """Exact q -> 1 limit of the Pochhammer ratio via repeated division
    by (1 - q) of numerator and denominator polynomials."""

    def poch(n):
        p = Poly.one(QQ)
        for k in range(1, n + 1):
            term = Poly(QQ, [F(1)] + [F(0)] * (k - 1) + [F(-1)])  # 1 - q^k
            p = p * term
        return p

    num = poch(r + s) * poch(r + t) * poch(s + t)
    den = poch(r) * poch(s) * poch(t) * poch(r + s + t)
    one_minus_q = Poly(QQ, [F(1), F(-1)])
    while num(F(1)) == 0 and den(F(1)) == 0:
        num, rem1 = num.divmod(one_minus_q)
        den, rem2 = den.divmod(one_minus_q)
        assert rem1.is_zero() and rem2.is_zero()
    return num(F(1)) / den(F(1))


def test_q_one_bracket_matches_limit_oracle():
    qd = QData("one", q=F(1))
    for r in range(4):
        for s in range(4):
            for t in range(4):
                assert bracket(QQ, r, s, t, qd) == _q_one_limit_oracle(r, s, t)


def test_bracket_unavailable_cases():
    with pytest.raises(BracketUnavailable):
        bracket(QQ, 1, 1, 1, QData("minus_one", q=F(-1)))
    with pytest.raises(BracketUnavailable):
        bracket(QQ, 1, 1, 1, QData("undetermined"))
    with pytest.raises(BracketUnavailable):
        bracket(PrimeField(5), 2, 2, 2, QData("one", q=PrimeField(5).one))


def test_bracket_expansion_d2_trivial(inst_d2):
    sys, _ = inst_d2
    check = bracket_expansion_check(sys, QData("undetermined"))
    assert check.status == "pass"


def test_bracket_expansion_d3_geometric(inst_d3):
    sys, _ = inst_d3
    qd = q_extract(sys)
    assert qd.q == F(2)
    check = bracket_expansion_check(sys, qd)
    assert check.status == "pass"


def test_bracket_expansion_skips_without_q(inst_d3_no_q):
    sys, _ = inst_d3_no_q
    check = bracket_expansion_check(sys, q_extract(sys))
    assert check.status == "skip"


def test_zeta_relations_x1(x1):
    sys, _ = x1
    orbit = compute_orbit(SystemContext(sys))
    checks = zeta_relations_check(sys, q_extract(sys), orbit)
    assert all(c.status == "pass" for c in checks), [c for c in checks if c.status != "pass"]
    # the reversed relatives end at the weighted sum: 1 + 1 = 2
    assert orbit["rev_primary"]["zetas"][1] == F(2)


def test_zeta_relations_d3(inst_d3):
    sys, _ = inst_d3
    orbit = compute_orbit(SystemContext(sys))
    checks = zeta_relations_check(sys, q_extract(sys), orbit)
    assert all(c.status == "pass" for c in checks), [c for c in checks if c.status != "pass"]


def test_zeta_relations_skip_bracket_parts_only(inst_d3_no_q):
    sys, _ = inst_d3_no_q
    orbit = compute_orbit(SystemContext(sys))
    checks = zeta_relations_check(sys, q_extract(sys), orbit)
    by_id = {c.id: c.status for c in checks}
    assert by_id["orbit/column_sequences_equal"] == "pass"
    assert by_id["orbit/last_term_unchanged_group"] == "pass"
    assert by_id["orbit/last_term_weighted_group"] == "pass"
    assert by_id["orbit/last_term_cross_consistency"] == "pass"
    assert by_id["orbit/relation_rev_dual"] == "skip"


def test_orbit_report_x1(x1):
    sys, _ = x1
    _, out = relations_stage(SystemContext(sys))
    assert len(out["orbit"]) == 8
    by_name = {e["relative"]: e for e in out["orbit"]}
    assert by_name["id"]["zeta"] == [F(1), F(1)]
    assert by_name["rev_dual"]["zeta"] == [F(1), F(2)]
    assert all(e["shape"] == [1, 1] for e in out["orbit"])


def test_canonical_names():
    assert IDENTITY.name == "id"
    assert D4Element(rev_dual=True, rev_primary=True, swap=True).name == "rev_dual_rev_primary_swap"


def test_char_two_generic_ops_but_no_q_one_brackets():
    f = PrimeField(2)
    assert f.one + f.one == f.zero  # generic arithmetic is fine
    with pytest.raises(BracketUnavailable):
        bracket(f, 1, 1, 1, QData("one", q=f.one))
