from fractions import Fraction as F

import pytest

from tdlab.appshell import gen_leonard_split
from tdlab.scalars import PrimeField, RationalField


@pytest.fixture(scope="session")
def QQ():
    return RationalField()


@pytest.fixture(scope="session")
def GF13():
    return PrimeField(13)


@pytest.fixture(scope="session")
def x1(QQ):
    """The golden d=1 instance and its context."""
    ctx = gen_leonard_split(QQ, (F(1), F(0)), (F(1), F(0)), (F(1),))
    assert ctx.report.passed()
    return ctx.sys, ctx


@pytest.fixture(scope="session")
def inst_d2(QQ):
    """A frozen validated d=2 instance over the rationals."""
    ctx = gen_leonard_split(QQ, (F(0), F(1), F(3)), (F(2), F(-1), F(5)), (F(16), F(1)))
    assert ctx.report.passed()
    return ctx.sys, ctx


@pytest.fixture(scope="session")
def inst_d3(QQ):
    """A frozen validated geometric d=3 instance (ratio 2) over the rationals."""
    ctx = gen_leonard_split(
        QQ, (F(1), F(2), F(4), F(8)), (F(3), F(6), F(12), F(24)), (F(59), F(342, 7), F(-4))
    )
    assert ctx.report.passed()
    return ctx.sys, ctx


@pytest.fixture(scope="session")
def inst_d3_no_q(QQ):
    """A frozen d=3 instance whose ratio quadratic has no rational root."""
    ctx = gen_leonard_split(
        QQ, (F(0), F(1), F(3), F(2)), (F(0), F(1), F(3), F(2)), (F(-1), F(-1), F(3))
    )
    assert ctx.report.passed()
    return ctx.sys, ctx


@pytest.fixture(scope="session")
def inst_gf13_d2(GF13):
    """A frozen validated d=2 instance over GF(13)."""
    e = GF13.from_int
    ctx = gen_leonard_split(GF13, (e(0), e(1), e(3)), (e(2), e(12), e(5)), (e(5), e(3)))
    assert ctx.report.passed()
    return ctx.sys, ctx
