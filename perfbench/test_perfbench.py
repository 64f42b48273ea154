"""Tests of the benchmark's own parts: span arithmetic, the Krawtchouk
documents, the fuzz seed stream, and the metric names in BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
from pathlib import Path

import pytest

import kraw
import run
import spans

ROOT = Path(__file__).resolve().parent.parent


def ticking_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children():
    # a [0, 10] holds b [1, 4], which holds c [2, 3], and d [5, 6]
    tracer = spans.Tracer(clock=ticking_clock(0, 1, 2, 3, 4, 5, 6, 10))
    a = tracer.open("x.a")
    b = tracer.open("x.b")
    c = tracer.open("x.c")
    tracer.close(c)
    tracer.close(b)
    d = tracer.open("y.d")
    tracer.close(d)
    tracer.close(a)
    self_s = {s[0]: s[5] for s in tracer.spans}
    assert self_s == {"x.a": 6, "x.b": 2, "x.c": 1, "y.d": 1}
    summary = spans.summarize(tracer.spans)
    assert summary["names"]["x.a"] == {"calls": 1, "s": 10, "self_s": 6}
    assert summary["modules"] == {"x": 9, "y": 1}
    # one trace for the whole tree, parents by index
    assert {s[1] for s in tracer.spans} == {1}
    assert [s[4] for s in tracer.spans] == [-1, 0, 1, 0]


def test_recursive_calls_count_inclusive_time_once():
    tracer = spans.Tracer(clock=ticking_clock(0, 2, 5, 9))
    outer = tracer.open("m.f")
    inner = tracer.open("m.f")
    tracer.close(inner)
    tracer.close(outer)
    entry = spans.summarize(tracer.spans)["names"]["m.f"]
    assert entry == {"calls": 2, "s": 9, "self_s": 9}


def test_trace_roots_start_new_trace_ids():
    tracer = spans.Tracer(clock=ticking_clock(*range(8)))
    req = tracer.open("cli.run")
    for _ in range(2):
        trial = tracer.open("appshell.run_trial")
        tracer.close(trial)
    tracer.close(req)
    other = tracer.open("cli.run")
    tracer.close(other)
    assert [s[1] for s in tracer.spans] == [1, 2, 3, 4]


def test_spans_must_close_in_order():
    tracer = spans.Tracer(clock=ticking_clock(0, 1, 2))
    a = tracer.open("x.a")
    tracer.open("x.b")
    with pytest.raises(RuntimeError):
        tracer.close(a)


def test_install_wraps_and_uninstall_restores():
    pytest.importorskip("tdlab")
    from tdlab import matrices, tdcore
    from tdlab.scalars import RationalField

    original_validate = tdcore.validate
    tracer = spans.Tracer()
    tracer.install()
    try:
        field = RationalField()
        m = matrices.Matrix.from_ints(field, [[1, 2], [3, 4]])
        product = m * m
        matrices.rank(product)
    finally:
        tracer.uninstall()
    assert tdcore.validate is original_validate
    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["matrices.matmul", "matrices.rank"]
    assert "matrices.rref" in names  # called from rank through the module global
    assert tracer.counters["matrices.matmul.scalar_mults"] == 8


@pytest.mark.parametrize("shape, dims", sorted(kraw.SHAPES.items()))
def test_kraw_shapes(shape, dims):
    assert kraw.shape_of(dims) == shape
    a, astar, thetas = kraw.krawtchouk_pair(dims, (2, 3, 5)[: len(dims)])
    n = sum(shape)
    assert len(a) == len(astar) == n
    assert len(thetas) == len(shape)
    # A* = sum(a_i e_i + f_i / a_i) differs from A exactly where e or f acts
    assert all((x == 0) == (y == 0) for ra, rs in zip(a, astar) for x, y in zip(ra, rs))


def test_gfp_document_reduces_fractions():
    doc = kraw.krawtchouk_document((1, 2, 1), (2, 3), kraw.PRIME)
    values = {int(x) for row in doc["Astar"] for x in row}
    assert 2 in values and pow(2, -1, kraw.PRIME) in values
    assert all(0 <= v < kraw.PRIME for v in values)


@pytest.mark.parametrize("prime", [None, kraw.PRIME])
def test_kraw_documents_verify_with_their_shape(tmp_path, prime):
    pytest.importorskip("tdlab")
    for shape in [(1, 2, 1), (1, 2, 2, 1)]:
        path = tmp_path / "doc.json"
        run.write_kraw_document(path, shape, (5, 2), prime)
        run.check_document(path, shape)


def test_leonard_arguments():
    args = kraw.leonard_gen_args(kraw.PRIME)
    assert args[:2] == ["gen", "leonard"]
    assert "--theta=0,1,2,3,4,5,6" in args
    assert "--phi=-12,-20,-24,-24,-20,-12" in args
    assert f"--field=p={kraw.PRIME}" in args


def test_fuzz_seeds_come_in_cycles_of_every_diameter():
    pytest.importorskip("tdlab")

    def first(n):
        seeds = iter(run.FuzzSeeds("fuzz-gfp", 1, run.FUZZ_FIELDS["fuzz-gfp"]))
        return [next(seeds) for _ in range(n)]

    stream = first(3 * run.D_MAX)
    for k in range(0, len(stream), run.D_MAX):
        assert sorted(d for _, d in stream[k : k + run.D_MAX]) == list(range(1, run.D_MAX + 1))
    assert len({s for s, _ in stream}) == len(stream)
    assert first(3 * run.D_MAX) == stream  # the same seed gives the same inputs


EXPECTED_END_TO_END = [
    "setup_s",
    "trials_per_s",
    "request_s.p50",
    "request_s.tail",
    "verify_s.p50",
    "params_s.p50",
    "orbit_s.p50",
    "form_s.p50",
    "conjectures_s.p50",
]
EXPECTED_PER_LAYER = [
    *(f"appshell.run_trial_s.d{d}" for d in range(1, 6)),
    "appshell.accept_ratio",
    "appshell.load_system.s",
    "appshell.dumps_document.s",
    "tdcore.validate.calls",
    "tdcore.primitive_idempotents.calls",
    "tdcore.primitive_idempotents.s",
    "tdcore.check_irreducible.s",
    "splitparam.split_decomposition.calls",
    "splitparam.split_decomposition.s",
    "d4orbit.compute_orbit.s",
    "formlab.isomorphism_test.calls",
    "formlab.isomorphism_test.s",
    "formlab.invariant_form.s",
    "formlab.dual_system.s",
    "conjlab.generate_subalgebras.s",
    "conjlab.corner_algebra_checks.s",
    "matrices.matmul.calls",
    "matrices.matmul.scalar_mults",
    "matrices.matmul.self_s",
    "matrices.rref.calls",
    "matrices.rref.self_s",
    "matrices.algebra_closure.s",
    "matrices.intertwiner_space.s",
    *(f"{layer}.self_s" for layer in spans.LAYERS),
    "cli.startup_s",
    "trace.trials_per_s",
    "trace.overhead",
]


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_every_metric_name_is_in_benchmark_json():
    spec = benchmark_spec()
    assert [m["name"] for m in spec["end_to_end"]] == EXPECTED_END_TO_END
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(EXPECTED_PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_run_prints_exactly_the_declared_metrics():
    spec = benchmark_spec()
    assert list(run.END_TO_END) == [m["name"] for m in spec["end_to_end"]]
    produced = run.per_layer_metrics([], {}, {"cli.startup_s": 0.0, "trace.trials_per_s": 1.0, "trace.overhead": 1.0})
    assert sorted(produced) == sorted(m["name"] for m in spec["per_layer"])


def test_harrell_davis_quantile():
    values = list(range(1, 41))
    assert run.quantile(values, 0.5) == pytest.approx(20.5, abs=1e-3)
    assert run.quantile(values, 0.75) == pytest.approx(30.5, abs=0.05)
    assert run.quantile([3.0] * 7, 0.5) == pytest.approx(3.0)
    assert run.quantile([2.0], 0.5) == 2.0
    # one outlier moves the estimate a little, not to the outlier
    assert run.quantile([1, 2, 3, 4, 5, 6, 7, 80], 0.5) < 5
