"""Tests of the benchmark itself: span arithmetic, seeded op lists, and that
tracing neither leaves the package patched nor changes what it computes."""

from __future__ import annotations

import sys

import pytest

import child
import run
import tracing
import workloads


def test_self_times_subtract_the_direct_children():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 3.0, 4.0, 0, 0],
        ["c", 5.0, 6.0, 0, 0],
        ["c.child", 5.2, 5.5, 3, 0],
        ["c.child.child", 5.3, 5.4, 4, 0],
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx([10.0 - 2.0 - 1.0 - 1.0, 2.0, 1.0, 0.7, 0.2, 0.1])
    assert sum(got) == pytest.approx(10.0)


def test_pass_metrics_self_sum_stays_within_the_pass():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["cli.main", 0.0, 4.0, -1, 0],
        ["solver.solve", 0.5, 3.0, 0, 0],
        ["problems.forcing", 0.6, 1.0, 1, 0],
        ["specfun.mittag_leffler", 0.7, 0.9, 2, 0],
        ["cli.main", 4.0, 5.0, -1, 1],
    ]
    m = tracing.pass_metrics(tracer)
    assert m["cli.main.self_s"] == pytest.approx(1.5 + 1.0)
    assert m["solver.solve.self_s"] == pytest.approx(2.1)
    assert m["problems.forcing.self_s"] == pytest.approx(0.2)
    assert m["specfun.mittag_leffler.self_s"] == pytest.approx(0.2)
    assert m["trace.self_sum_s"] == pytest.approx(5.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_ops_are_deterministic_per_seed_and_differ_between_seeds(workload):
    assert workloads.make_ops(workload, 3) == workloads.make_ops(workload, 3)
    assert workloads.make_ops(workload, 3) != workloads.make_ops(workload, 4)


def test_long_solve_passes_cover_every_scheme_and_both_alpha_ranges():
    for seed in range(40):
        ops = workloads.make_ops("long_solve", seed)
        assert sorted(op.scheme for op in ops) == list(workloads.SCHEME_TAGS)
        assert any(op.alpha < 1.0 for op in ops) and any(op.alpha > 1.0 for op in ops)
        assert sum(op.n == workloads.LONG_N[1] for op in ops) == workloads.LONG_BIG_PER_PASS
        assert all(op.err_band[0] <= op.ref <= op.err_band[1] for op in ops)


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 31)]
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100.0 * 20 / 30)
    assert run.tail(samples[:10]) == (10.0, 100.0)


def _snapshot():
    import fracrelax.cli  # noqa: F401  (install imports every layer)

    mods = {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "fracrelax" or name.startswith("fracrelax.")}
    render = vars(sys.modules["fracrelax.report"].ConvergenceReport)["render"]
    return mods, render


def test_tracer_restores_every_wrapped_attribute():
    mods_before, render_before = _snapshot()
    tracer = tracing.Tracer()
    with tracer:
        from fracrelax import cli, problems, tables

        assert tables.solve is not mods_before["fracrelax.tables"]["solve"]
        assert cli.solve is tables.solve
        assert problems.mittag_leffler is tables.mittag_leffler
        assert problems.mittag_leffler.__wrapped__ is mods_before["fracrelax.specfun"]["mittag_leffler"]
    mods_after, render_after = _snapshot()
    assert render_after is render_before
    assert mods_after.keys() == mods_before.keys()
    for name, before in mods_before.items():
        after = mods_after[name]
        assert after.keys() == before.keys(), name
        for attr, value in before.items():
            assert after[attr] is value, f"{name}.{attr}"


SMALL_OPS = [
    workloads.Op("table", ("table", "1", "--format", "json")),
    workloads.Op("solve", p=2.5, alpha=1.3, scheme="A3", n=256, err_band=(0.0, 1.0)),
    workloads.Op("sweep", ("sweep", "--problem", "ml", "--alpha", "1.3", "--X", "1.5",
                           "--m", "3", "--scheme", "A1", "--format", "json",
                           "--h-list", "0.1,0.05")),
    workloads.Op("curve", ("curve", "--problem", "exp", "--alpha", "0.6", "--X", "2",
                           "--m", "2", "--scheme", "A,A4", "--h", "0.1")),
]


def test_traced_outputs_equal_untraced_outputs(tmp_path):
    tally = {"attempted": 0, "failed": 0, "wrong": 0, "reasons": []}
    _, plain = child.run_pass(SMALL_OPS, tmp_path / "plain", tally)
    tracer = tracing.Tracer()
    with tracer:
        wall, traced = child.run_pass(SMALL_OPS, tmp_path / "traced", tally, tracer)
    assert tally == {"attempted": 8, "failed": 0, "wrong": 0, "reasons": []}
    assert all(plain) and traced == plain
    m = tracing.pass_metrics(tracer)
    assert m["cli.main.calls"] == 3
    assert m["solver.solve.calls"] == 1 + 3 + 2  # solve op, sweep at 2h, h, h/2, curve
    assert m["specfun.mittag_leffler.calls"] > 0
    assert m["tables.t1.err_headroom"] < 1.0
    assert m["trace.self_sum_s"] <= wall
    assert {rec[4] for rec in tracer.spans} == {0, 1, 2, 3}


def test_a_failing_op_counts_as_failed_not_wrong(tmp_path):
    op = workloads.Op("sweep", ("sweep", "--problem", "ml", "--alpha", "0.7", "--X", "1.5",
                                "--m", "1", "--scheme", "A", "--format", "json"))
    tally = {"attempted": 0, "failed": 0, "wrong": 0, "reasons": []}
    child.run_pass([op], tmp_path, tally)
    assert (tally["attempted"], tally["failed"], tally["wrong"]) == (1, 1, 0)
    assert "ml problem requires m >= 2" in tally["reasons"][0]


def test_an_output_that_differs_from_the_cold_pass_is_wrong(tmp_path):
    tally = {"attempted": 0, "failed": 0, "wrong": 0, "reasons": []}
    _, cold = child.run_pass(SMALL_OPS[1:2], tmp_path, tally)
    child.run_pass(SMALL_OPS[1:2], tmp_path, tally, expect=cold)
    assert (tally["attempted"], tally["failed"], tally["wrong"]) == (2, 0, 0)
    child.run_pass(SMALL_OPS[1:2], tmp_path, tally, expect=["stale"])
    assert (tally["attempted"], tally["failed"], tally["wrong"]) == (3, 1, 1)
    assert "differs from the cold pass" in tally["reasons"][0]


def test_a_missing_trace_target_is_an_error(monkeypatch):
    from fracrelax import specfun

    monkeypatch.delattr(specfun, "zeta")
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="specfun has no zeta"):
        tracer.install()
    tracer.uninstall()
