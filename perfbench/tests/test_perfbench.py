"""Fast tests of the benchmark itself: every check rejects a perturbed
value, failed operations are counted rather than dropped, the tracer's
self time adds up and leaves the program untouched, and the registered
metric names match what the runs print.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import layers
import run
import workloads
from tracer import Totals, Tracer

ROOT = Path(__file__).resolve().parents[2]


# -- checks --------------------------------------------------------------


def test_fd_check_rejects_perturbation():
    ref = [1.0 + 0.5j, -0.25 + 0j, 0.125 - 0.75j]
    assert checks.check_fd("x", ref, ref) == []
    assert checks.check_fd("x", [v * (1 + 5e-4) for v in ref], ref) == []
    assert checks.check_fd("x", [v * (1 + 2e-3) for v in ref], ref) != []
    assert checks.check_fd("x", [math.nan] + ref[1:], ref) != []


def test_representation_check_rejects_perturbation():
    a = 0.3 - 0.1j
    assert checks.check_representation("x", a + 0.9e-5, a) == []
    assert checks.check_representation("x", a + 1.2e-5 * (1 + abs(a)), a) != []


def test_decay_check_rejects_perturbation():
    rate, power = checks.predicted_decay(0.5, 1.0)
    assert rate == pytest.approx(-1.5 + math.sqrt(2.0))
    assert power == 0.0
    assert checks.predicted_decay(2.0, 1.0) == (-1.0, 0.0)
    assert checks.check_decay("x", rate * 1.09, rate) == []
    assert checks.check_decay("x", rate * 1.11, rate) != []
    assert checks.check_decay("x", -1.0, -1.0, 0.4, 0.0) == []
    assert checks.check_decay("x", -1.0, -1.0, 0.6, 0.0) != []


def _kernel_csv(perturb=1.0, k0_text=None):
    lines = [",".join(checks.KERNEL_NUMERIC + ("err_flag",))]
    for t in (3.0, 7.5, 12.0):
        k0, k1 = checks.huygens_k0(t, 1.0), checks.huygens_k1(t, 1.0)
        cells = [0.5, t, k0 * perturb, 0.0, k1, 0.0, 2 * k0 + 3 * k1, 0.0, k0, k1]
        row = [repr(c) for c in cells]
        if k0_text is not None:
            row[2] = k0_text
        lines.append(",".join(row + ["ok"]))
    return "\n".join(lines) + "\n"


def test_kernel_check_rejects_perturbation():
    rows = checks.parse_csv(_kernel_csv(), checks.KERNEL_NUMERIC)
    assert checks.check_kernels("x", rows, 1.0) == []
    rows = checks.parse_csv(_kernel_csv(perturb=1 + 1e-9), checks.KERNEL_NUMERIC)
    assert checks.check_kernels("x", rows, 1.0) != []


def test_numpy_repr_in_csv_is_unparsable():
    with pytest.raises(checks.Unparsable):
        checks.parse_csv(_kernel_csv(k0_text="np.float64(-1.12)"), checks.KERNEL_NUMERIC)


def test_eval_pair_check_rejects_differences():
    csv_text = "r,t,re,im,method,err_flag\n0.5,1.0,0.25,-0.0,riemann,ok\n"
    json_text = json.dumps({"rows": [{"r": 0.5, "t": 1.0, "re": 0.25, "im": -0.0,
                                      "method": "riemann", "err_flag": "ok"}]})
    a, b = checks.eval_rows_csv(csv_text), checks.eval_rows_json(json_text)
    assert checks.check_eval_pair("x", a, b) == []
    off = checks.eval_rows_json(json_text.replace("0.25", "0.2500000000000001"))
    assert checks.check_eval_pair("x", a, off) != []
    flagged = checks.eval_rows_csv(csv_text.replace(",ok", ",ToleranceNotMet"))
    assert checks.check_eval_pair("x", flagged, flagged) != []
    with pytest.raises(checks.Unparsable):
        checks.eval_rows_json(json_text.replace("0.25", '"0.25"'))


def test_grid_check_rejects_a_perturbed_field_value():
    from dswave import desitter

    wl = workloads.Grid()
    wl.build()
    rs, ts = [0.6, 1.4], [0.5, 1.2]
    task = workloads.Task("grid", 4, None, {"ell": 1, "m": 2.0, "r": rs, "t": ts})
    values, flags = wl._eval(1, 2.0, rs, ts)
    assert wl.check([workloads.Outcome(task, (values, flags))]) == []
    bad = (values[0] * 1.01,) + values[1:]
    assert wl.check([workloads.Outcome(task, (bad, flags))]) != []


def test_spectral_check_rejects_a_perturbed_field_value():
    wl = workloads.Spectral()
    wl.build()
    task = wl._task("gauss", 0.5, 0.9, 1.1)
    value = task.call()
    assert wl.check([workloads.Outcome(task, value)]) == []
    assert wl.check([workloads.Outcome(task, value + 1e-4)]) != []


def test_cli_check_rejects_each_bad_output():
    cli = workloads.Cli()
    rnd = next(cli.rounds(random.Random(1)))
    csv_text = "r,t,re,im,method,err_flag\n0.5,1.0,0.25,-0.0,riemann,ok\n"
    json_text = json.dumps({"rows": [{"r": 0.5, "t": 1.0, "re": 0.25, "im": -0.0,
                                      "method": "riemann", "err_flag": "ok"}]})
    compare = {"passed": True, "failed_points": [], "max_rel_diff": 1e-7}

    def outcomes(jobs1=json_text, cmp=compare, kernels=_kernel_csv()):
        texts = [csv_text, jobs1, json.dumps(cmp), kernels]
        return [workloads.Outcome(task, (0, text)) for task, text in zip(rnd, texts)]

    assert cli.check(outcomes()) == []
    assert cli.check(outcomes(jobs1=json_text.replace("0.25", "0.26"))) != []
    assert cli.check(outcomes(cmp={**compare, "passed": False})) != []
    assert cli.check(outcomes(kernels=_kernel_csv(perturb=1 + 1e-9))) != []


# -- counting --------------------------------------------------------------


class _Toy(workloads.Workload):
    name = "toy"

    def rounds(self, rng):
        from dswave.errors import ToleranceNotMet

        def fail():
            raise ToleranceNotMet("no", value=1j, err_est=1.0)

        while True:
            yield [workloads.Task("ok", 3, lambda: 1.0, {}),
                   workloads.Task("bad", 2, fail, {})]


def test_failed_operation_is_counted_not_dropped():
    wl = _Toy()
    results = run.run_rounds(wl, [next(wl.rounds(None)) for _ in range(3)])
    attempted, failed, rate = run.summarize(wl, results)
    assert (attempted, failed) == (15, 6)
    assert rate > 0.0


def test_grid_counts_flagged_points():
    task = workloads.Task("grid", 4, None, {})
    out = workloads.Outcome(task, ((0j,) * 4, ["ok", "ToleranceNotMet", "ok", "ok"]))
    assert workloads.Grid().failed_ops(out) == 1
    assert workloads.Grid().failed_ops(workloads.Outcome(task)) == 4


def test_cli_counts_exit_codes_and_unparsable_output():
    cli = workloads.Cli()
    task = workloads.Task("kernels", 1, None, {"args": cli.KERNELS})
    assert cli.failed_ops(workloads.Outcome(task, (0, _kernel_csv()))) == 0
    assert cli.failed_ops(workloads.Outcome(task, (2, _kernel_csv()))) == 1
    bad = _kernel_csv(k0_text="np.float64(-1.12)")
    assert cli.failed_ops(workloads.Outcome(task, (0, bad))) == 1


def test_rounds_repeat_for_a_seed_and_have_one_make_up():
    for cls in (workloads.Grid, workloads.Spectral, workloads.Decay, workloads.Cli):
        wl = cls()
        wl.build()
        a = [[(t.kind, t.n_ops, t.inputs) for t in r]
             for r, _ in zip(wl.rounds(random.Random(5)), range(3))]
        b = [[(t.kind, t.n_ops, t.inputs) for t in r]
             for r, _ in zip(wl.rounds(random.Random(5)), range(3))]
        assert a == b
        assert len({tuple((k, n) for k, n, _ in r) for r in a}) == 1


def test_strata_draw_one_point_per_cell():
    xs = workloads.strata(random.Random(1), 0.0, 2.0, 4)
    assert all(0.5 * k < x <= 0.5 * (k + 1) for k, x in enumerate(xs))


# -- tracer ----------------------------------------------------------------


def test_self_time_is_span_minus_children():
    tr = Tracer()
    inner = tr.span("inner", lambda: sum(range(2000)))
    outer = tr.span("outer", lambda: [inner() for _ in range(3)])
    outer()
    assert tr.calls[("inner", "")] == 3
    assert tr.self_s["outer"] + tr.total_s["inner"] == pytest.approx(tr.total_s["outer"], rel=1e-9)
    snap = tr.snapshot()
    assert snap["spans"] == 4
    parents = list(tr._span_parent)
    assert parents[0] == -1 and parents[1:] == [0, 0, 0]


def test_forked_process_starts_afresh():
    tr = Tracer()
    seen = []
    tr.on_fork = seen.append
    f = tr.span("f", lambda: None)
    f()
    tr.pid = -1  # as in a forked child
    f()
    assert seen == [tr]
    assert tr.calls == {("f", ""): 1}
    assert tr.snapshot()["spans"] == 1


def test_install_wraps_and_restores_bindings():
    import dswave
    from dswave import desitter, kernels

    mode = dswave.ModeState(1, 0, dswave.gaussian_profile(1))
    params = dswave.PhysicalParams(H=1.0, m=2.0)
    before = (desitter.wave_block, kernels.hyp2f1, dict(desitter._METHODS))
    plain = desitter.evaluate_grid(mode, params, "riemann", [0.7], [0.9]).grid.values
    tr = Tracer()
    tr.install()
    try:
        assert desitter.wave_block is not before[0]
        traced = desitter.evaluate_grid(mode, params, "riemann", [0.7], [0.9]).grid.values
    finally:
        tr.uninstall()
    assert (desitter.wave_block, kernels.hyp2f1, desitter._METHODS) == before
    assert (traced == plain).all()
    totals = Totals()
    totals.add(tr.snapshot())
    m = layers.metrics(totals, {}, 0.0, 0)
    assert m["desitter.point.calls"]["value"] == 1
    assert m["minkowski.wave_block.calls"]["value"] > 0
    assert m["kernels.kernel_eval.calls"]["value"] * 2 == m["specfun.hyp2f1.calls"]["value"]
    assert m["quadrature.integrand.evals"]["value"] > 0
    assert m["desitter.panel_quad.calls"]["value"] == 0


def test_importtime_line_is_read():
    log = ("import time:       120 |        200 | numpy\n"
           "import time:      3000 |     612345 | scipy.integrate\n")
    assert layers._scipy_integrate_import_s(log) == pytest.approx(0.612345)


# -- registration ----------------------------------------------------------


def test_registered_metrics_match_the_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in layers.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in layers.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {"ops_per_s", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
