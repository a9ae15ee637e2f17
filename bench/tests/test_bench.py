"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH, SRC]

import child  # noqa: E402
import metrics  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1, 2, 7)


# -- trace wrappers leave the output alone ----------------------------------------

_CLI_SNIPPET = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
from refclock import RefClock
clock = RefClock()
if {trace!r}:
    from spans import Tracer
    clock.start()
    getattr(Tracer(), {trace!r})()
from extremal_lie import cli
try:
    rc = cli.main({argv!r})
finally:
    if clock.start_t is not None:
        clock.stop()
sys.exit(rc)
"""


@pytest.mark.parametrize("argv", [
    ["--json", "radicals", "--type", "G2", "--char", "3"],
    ["--json", "tables", "lr", "--max-r", "3"],
])
def test_stdout_is_byte_identical_with_and_without_trace(argv, tmp_path):
    outs = []
    for trace in (None, "install_spans", "install_counters"):
        code = _CLI_SNIPPET.format(bench=BENCH, src=SRC, trace=trace, argv=argv)
        env = dict(os.environ, EXTREMAL_LIE_CACHE=str(tmp_path / ("cache-%s" % trace)))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == outs[2]


def test_tracer_rebinds_every_alias_and_uninstalls():
    from extremal_lie import chevalley, cli, liealg

    before = (cli.extremal_form, cli.structural_subspaces, chevalley.subalgebra_generated)
    tracer = spans.Tracer().install_spans()
    try:
        assert cli.extremal_form is liealg.extremal_form
        assert cli.structural_subspaces is liealg.structural_subspaces
        assert chevalley.subalgebra_generated is liealg.subalgebra_generated
        assert all(getattr(f, "__wrapped__", None) is g for f, g in zip(
            (cli.extremal_form, cli.structural_subspaces, chevalley.subalgebra_generated), before))
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    assert (cli.extremal_form, cli.structural_subspaces, chevalley.subalgebra_generated) == before


def test_missing_target_is_reported_absent_not_fatal(monkeypatch):
    targets = tuple(
        (m, "_CoverEngine.extend_gone", k) if k == "nilquot.extend" else (m, p, k)
        for m, p, k in spans.SPAN_TARGETS
    ) + (("no_such_module", "f", "cli.gone"),)
    monkeypatch.setattr(spans, "SPAN_TARGETS", targets)
    tracer = spans.Tracer().install_spans()
    try:
        from extremal_lie import cli

        start = tracer.start_run()
        outcome = child.run_op(cli, ["tables", "lr", "--max-r", "2"])
        got = spans.layer_metrics(tracer, start, 1.0)
    finally:
        tracer.uninstall()
    assert workloads.gate({"dim L_2": 3}, outcome) == []
    assert set(tracer.absent) == {"nilquot._CoverEngine.extend_gone", "no_such_module.f"}
    for name in ("nilquot.extend_s", "nilquot.rows", "nilquot.rank", "nilquot.basis_dim"):
        assert name not in got
    assert got["linalg.insert_calls"] > 0 and "scalars.ops" not in got


def test_field_counters_count_without_spans():
    tracer = spans.Tracer().install_counters()
    try:
        from extremal_lie import cli

        tracer.start_run()
        child.run_op(cli, ["tables", "lr", "--max-r", "3"])
        got = spans.counter_metrics(tracer)
    finally:
        tracer.uninstall()
    assert got["scalars.ops"] > 0 and got["scalars.is_zero"] > 0
    assert tracer.spans == [] and tracer.absent == []


def test_counted_wrapper_keeps_results_for_every_signature():
    class Ops:
        def one(self, a):
            return -a

        def two(self, a, b):
            return a - b

        def other(self, a, b=1, *rest):
            return a + b + sum(rest)

    cell = [0]
    for name in ("one", "two", "other"):
        setattr(Ops, name, spans._counted(vars(Ops)[name], cell))
    ops = Ops()
    assert (ops.one(2), ops.two(5, 3), ops.other(1), ops.other(1, 2, 3)) == (-2, 2, 2, 6)
    assert cell == [4]


# -- the frozen gate --------------------------------------------------------------


def _report(expect):
    checks = [{"name": k, "expected": v, "actual": v, "pass": True} for k, v in expect.items()]
    checks.append({"name": "some boolean check", "expected": True, "actual": True, "pass": True})
    return {"rc": 0, "error": None, "stdout": json.dumps({"checks": checks, "pass": True}) + "\n"}


def _all_ops():
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for op in workloads.build(name, seed)[1]:
                yield name, seed, op


def test_gate_accepts_matching_reports():
    for _, _, op in _all_ops():
        assert op["expect"]
        assert workloads.gate(op["expect"], _report(op["expect"])) == []


def test_gate_rejects_failed_checks_and_bad_outcomes():
    expect = {"dim L_5": 537}
    good = _report(expect)
    assert workloads.gate(expect, dict(good, rc=1))
    assert workloads.gate(expect, dict(good, error="ValueError: boom"))
    assert workloads.gate(expect, dict(good, stdout="not json"))
    assert workloads.gate(expect, dict(good, stdout=good["stdout"].replace('"pass": true}', '"pass": false}', 1)))
    assert workloads.gate(expect, _report({}))  # the frozen check is missing


def _perturb(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    raise TypeError(value)


def _frozen_entries():
    """(table name, key, index in a tuple value) for every frozen value in workloads."""
    for table in ("L_DIMS", "R_DIMS", "T_G"):
        for key in getattr(workloads, table):
            yield table, key, None
    for key, counts in workloads.ROOT_COUNTS.items():
        for i in range(len(counts)):
            yield "ROOT_COUNTS", key, i
    for table in ("R4_LENGTHS", "PAIR_CASES", "RADICALS_SIMPLE", "RADICALS_G2_CHAR3"):
        for i in range(len(getattr(workloads, table))):
            yield table, None, i
    yield "THREEGEN_DIM", None, None
    yield "THREEGEN_CASE", None, None


def _perturbed_table(table, key, index):
    value = getattr(workloads, table)
    if key is not None:
        value = dict(value)
        value[key] = _perturbed_table_value(value[key], index)
        return value
    return _perturbed_table_value(value, index)


def _perturbed_table_value(value, index):
    if index is None:
        return _perturb(value)
    items = list(value)
    items[index] = _perturb(items[index])
    return type(value)(items)


@pytest.mark.parametrize("table,key,index", list(_frozen_entries()))
def test_every_frozen_value_is_gated(table, key, index, monkeypatch):
    originals = list(_all_ops())
    monkeypatch.setattr(workloads, table, _perturbed_table(table, key, index))
    caught = 0
    for (name, seed, op), (_, _, new) in zip(originals, _all_ops()):
        assert new["argv"] == op["argv"]
        if workloads.gate(new["expect"], _report(op["expect"])):
            caught += 1
    assert caught > 0, "perturbing %s[%r][%r] went unnoticed" % (table, key, index)


def test_cheap_real_operations_pass_the_gate(tmp_path, monkeypatch):
    monkeypatch.setenv("EXTREMAL_LIE_CACHE", str(tmp_path))
    from extremal_lie import cli

    for seed in SEEDS:
        _, ops = workloads.build("chevalley-modp", seed)
        _, ops_q = workloads.build("chevalley-q", seed)
        for op in [o for o in ops + ops_q if o["argv"][0] == "threegen"] + [ops[2], ops[5]]:
            assert workloads.gate(op["expect"], child.run_op(cli, op["argv"])) == [], op["argv"]
    # the cross-layer operations: Chevalley commands on A2, tables up to L_4
    for op in workloads.build("sandwich-q", 0)[1][3:] + [ops[-1]]:
        assert workloads.gate(op["expect"], child.run_op(cli, op["argv"])) == [], op["argv"]


# -- workloads --------------------------------------------------------------------


def test_workloads_are_determined_by_the_seed():
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            assert workloads.build(name, seed) == workloads.build(name, seed)
    ps = {workloads.build("chevalley-modp", s)[0]["p"] for s in range(40)}
    assert ps <= set(workloads.PRIMES) and len(ps) > 5
    assert min(workloads.PRIMES) > 11


# -- span arithmetic --------------------------------------------------------------


def test_self_times_add_up_on_a_synthetic_tree():
    # cli.main [0, 10] > liealg.extremal_form [1, 6] > liealg.assoc [2, 5] > linalg.insert [3, 4]
    #                  > linalg.insert [7, 8]
    # cli.main [11, 13] > nilquot.extend [11.5, 12.5] > nilquot.extend [12, 12.25] (recursion)
    tree = [
        (3, 2, "linalg.insert", 3.0, 4.0, True),
        (2, 1, "liealg.assoc", 2.0, 5.0, True),
        (1, 0, "liealg.extremal_form", 1.0, 6.0, True),
        (4, 0, "linalg.insert", 7.0, 8.0, True),
        (0, None, "cli.main", 0.0, 10.0, True),
        (7, 6, "nilquot.extend", 12.0, 12.25, False),
        (6, 5, "nilquot.extend", 11.5, 12.5, True),
        (5, None, "cli.main", 11.0, 13.0, True),
    ]
    a = spans.analyse(tree)
    assert a["self"] == pytest.approx({"cli": 4.0 + 1.0, "liealg": 2.0 + 2.0, "linalg": 2.0, "nilquot": 1.0})
    assert sum(a["self"].values()) == pytest.approx(a["roots"]) == pytest.approx(12.0)
    assert a["incl"]["nilquot.extend"] == pytest.approx(1.0)  # the nested call is not counted twice
    assert a["calls"]["nilquot.extend"] == 2 and a["max"]["nilquot.extend"] == pytest.approx(1.0)
    assert a["layer_incl"]["liealg"] == pytest.approx(5.0)  # assoc sits inside extremal_form
    assert a["layer_incl"]["linalg"] == pytest.approx(2.0)
    groups = spans.by_root(tree)
    assert list(groups) == [0, 5]
    assert sorted(s[0] for s in groups[0]) == [0, 1, 2, 3, 4]
    rows = spans.breakdown(tree, 0.0)
    assert [r["wall_s"] for r in rows] == [10.0, 2.0]
    assert rows[0]["incl_s"]["liealg.assoc"] == pytest.approx(3.0)
    under = spans.breakdown(tree, 0.0, "liealg.extremal_form")
    assert [r["wall_s"] for r in under] == [5.0]
    assert under[0]["layer_incl_s"] == pytest.approx({"liealg": 5.0, "linalg": 1.0})


def test_traced_wall_is_accounted_for():
    tracer = spans.Tracer().install_spans()
    try:
        from extremal_lie import cli

        import time

        start = tracer.start_run()
        child.run_op(cli, ["mingen", "--type", "G2", "--char", "0"])
        wall = time.perf_counter() - start
        got = spans.layer_metrics(tracer, start, wall)
    finally:
        tracer.uninstall()
    layers = sum(got["%s.self_s" % layer] for layer in spans.LAYERS)
    assert layers + got["trace.outside_s"] == pytest.approx(wall, rel=1e-9)
    assert 0 <= got["trace.outside_s"] < 0.1 * wall
    assert got["chevalley.generation_checks"] >= 1 and got["liealg.jacobi_calls"] >= 1


# -- BENCHMARK.json agrees with metrics.py ----------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in metrics.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(m[0] for m in metrics.PER_LAYER) - {"trace.overhead_ratio"} == set(
        spans.METRIC_SOURCES) | {"%s.self_s" % l for l in spans.LAYERS} | {
        "trace.wall_s", "trace.outside_s", "trace.spans"}


# -- per-layer metrics a workload reports -----------------------------------------


def test_every_per_layer_metric_is_reported_and_a_zero_is_logged():
    values = {name: 1.5 for name, *_ in reversed(metrics.PER_LAYER)}
    values["linalg.max_width"] = 0
    del values["nilquot.extend_s"]  # its trace target is absent
    logged = []
    got = run.per_layer(values, logged.append)
    assert list(got) == [name for name, *_ in metrics.PER_LAYER if name != "nilquot.extend_s"]
    assert got["linalg.max_width"] == 0 and any("linalg.max_width" in line for line in logged)
    assert len(logged) == 1


@pytest.mark.parametrize("seed", SEEDS)
def test_every_workload_runs_every_traced_layer(seed):
    for name in workloads.WORKLOADS:
        commands = {op["argv"][0] for op in workloads.build(name, seed)[1]}
        assert {"tables", "mingen", "radicals", "rootgroups", "threegen"} <= commands, name


def test_baseline_reports_every_metric_on_every_workload_and_no_zeros():
    with open(os.path.join(BENCH, "baseline.json")) as fh:
        base = json.load(fh)
    assert set(base["workloads"]) == set(workloads.WORKLOADS)
    for name, w in base["workloads"].items():
        assert sorted(w["per_layer"]) == sorted(m[0] for m in metrics.PER_LAYER), name
        assert all(v > 0 for v in w["per_layer"].values()), name
        assert 0.8 < w["per_layer"]["trace.overhead_ratio"] < 1.25, name  # span cost is a few percent


# -- the reference clock ----------------------------------------------------------


def test_reference_clock_scales_each_interval_by_its_probe(monkeypatch):
    monkeypatch.setattr(refclock, "WINDOW", 0)
    ref = refclock.REF_PROBE_S
    clock = refclock.RefClock()
    clock.start_t = 0.0
    clock.probes = [(1.0, 1.0 + 2 * ref), (3.0, 3.0 + ref)]  # half speed, then full speed
    assert clock.at(0.5) == pytest.approx(0.25)
    assert clock.at(1.0) == pytest.approx(0.5)
    assert clock.at(1.0 + 2 * ref) == pytest.approx(0.5)  # a probe takes no reference time
    assert clock.at(3.0) == pytest.approx(0.5 + (2.0 - 2 * ref) * 1.0)
    assert clock.at(4.0 + ref) == pytest.approx(clock.at(3.0) + 1.0)  # the last factor holds after it
    assert clock.at(-1.0) == pytest.approx(-0.5)  # the first factor holds before start
    assert clock.span(0.5, 1.0) == pytest.approx(0.25)


def test_reference_clock_takes_the_median_factor_of_nearby_probes(monkeypatch):
    monkeypatch.setattr(refclock, "WINDOW", 2)
    ref = refclock.REF_PROBE_S
    slow = [2, 2, 20, 2, 2, 1, 1, 1, 1, 1]  # probe time / REF_PROBE_S; one delayed probe
    clock = refclock.RefClock()
    clock.start_t = 0.0
    clock.probes = [(float(i + 1), i + 1 + k * ref) for i, k in enumerate(slow)]
    assert clock.span(2.5, 3.0) == pytest.approx(0.25)  # before the delayed probe: still half speed
    assert clock.span(4.5, 5.0) == pytest.approx(0.25)  # median of 20, 2, 2, 1, 1
    assert clock.span(5.5, 6.0) == pytest.approx(0.5)  # median of 2, 1, 1, 1, 1
    assert clock.span(9.5, 10.0) == pytest.approx(0.5)


def test_reference_clock_probes_while_python_runs():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    clock = refclock.RefClock().start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.3:
        sum(range(1000))
    t1 = time.perf_counter()
    clock.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert clock.summary()["probes"] >= 5
    assert 0 < clock.span(t0, t1) < 10 * (t1 - t0)
