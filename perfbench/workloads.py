"""The benchmark's workloads.

A workload is an endless sequence of rounds drawn from the seed; a round
is a fixed list of tasks, and a task is one call into the program that
makes one or more operations (an operation is one field value, one
remainder sample or one CLI command).  Every round of a workload has the
same make-up, so the share of operations that fail is the same in every
run, whatever its length.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import dswave
from dswave import desitter
from dswave.errors import DegenerateFit, DomainError, InstabilityDetected, QuadratureFailure

import checks

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# the failures the program documents for one evaluation; an operation that
# raises one of them counts as failed, anything else stops the benchmark
OP_FAILURES = (QuadratureFailure, DegenerateFit, InstabilityDetected, DomainError)

H = 1.0
MASSES = (0.5, 2.0)  # light and heavy regimes, one on each side of sqrt(2) H

# gate 3 certifies the finite-difference reference for t <= 2; its coarse
# level n_r = 1000 is within 3e-5 of the field on these grids, far inside
# the 1e-3 bound, at 40% of the cost of n_r = 2000
FD_T_MAX = 2.0
FD_N_R = 1000


@dataclass
class Task:
    kind: str  # operation kind; spans and per-op counts are grouped by it
    n_ops: int
    call: Callable[[], Any]
    inputs: dict[str, Any]


@dataclass
class Outcome:
    task: Task
    output: Any = None  # None when the call raised
    error: str = ""


def strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw in each of n equal cells of (lo, hi]: a run's cost
    then depends little on the seed."""
    width = (hi - lo) / n
    return [lo + (k + 1.0 - rng.random()) * width for k in range(n)]


def python_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fd_reference(mode, params, points: list[tuple[float, float]]) -> dict[tuple[float, float], complex]:
    """solve_fd values of the radial factor at the given (r, t) points."""
    rs = sorted({r for r, _ in points})
    ts = sorted({t for _, t in points})
    cfg = dswave.FDConfig(r_max=rs[-1] + ts[-1] + 0.5, n_r=FD_N_R, t_end=ts[-1])
    grid = dswave.solve_fd(params, mode, cfg, rs, ts)
    ri = {r: i for i, r in enumerate(rs)}
    ti = {t: j for j, t in enumerate(ts)}
    return {(r, t): complex(grid.values[ri[r], ti[t]]) for r, t in points}


class Workload:
    name = ""
    # round length on the reference machine; sets the round count of a
    # traced run from --seconds alone, so traced counts repeat exactly
    nominal_round_s = 1.0

    def build(self) -> None:
        """Profiles and parameters: the set-up a user pays before the first
        operation."""

    def warmup(self) -> None:
        """One operation outside the timed part."""

    def rounds(self, rng: random.Random) -> Iterator[list[Task]]:
        raise NotImplementedError

    def failed_ops(self, outcome: Outcome) -> int:
        return outcome.task.n_ops if outcome.output is None else 0

    def check(self, outcomes: list[Outcome]) -> list[str]:
        raise NotImplementedError

    def setup_command(self) -> list[str]:
        return [sys.executable, str(HERE / "setup_probe.py"), self.name]


class Grid(Workload):
    """evaluate_grid(method="riemann") on Gaussian data: quadrature wave
    blocks convolved with direct-form kernels (q >= 0.05 at t <= 2.9)."""

    name = "grid"
    nominal_round_s = 0.8
    ELLS = (0, 1, 2)
    N_R = N_T = 4
    R_RANGE = (0.1, 3.0)
    T_MAX = 2.9

    def build(self) -> None:
        self.modes = {ell: dswave.ModeState(ell, 0, dswave.gaussian_profile(ell)) for ell in self.ELLS}
        self.params = {m: dswave.PhysicalParams(H=H, m=m) for m in MASSES}

    def warmup(self) -> None:
        desitter.evaluate_grid(self.modes[1], self.params[2.0], "riemann", [1.0], [1.0])

    def rounds(self, rng):
        while True:
            tasks = []
            for ell in self.ELLS:
                for m in MASSES:
                    rs = strata(rng, *self.R_RANGE, self.N_R)
                    ts = strata(rng, 0.0, self.T_MAX, self.N_T)
                    tasks.append(Task("grid", len(rs) * len(ts),
                                      lambda ell=ell, m=m, rs=rs, ts=ts: self._eval(ell, m, rs, ts),
                                      {"ell": ell, "m": m, "r": rs, "t": ts}))
            yield tasks

    def _eval(self, ell, m, rs, ts):
        grid = desitter.evaluate_grid(self.modes[ell], self.params[m], "riemann", rs, ts).grid
        return tuple(complex(v) for v in grid.values.ravel()), [f for row in grid.err_flags for f in row]

    def failed_ops(self, outcome):
        if outcome.output is None:
            return outcome.task.n_ops
        return sum(flag != "ok" for flag in outcome.output[1])

    def check(self, outcomes):
        by_config = defaultdict(list)
        for oc in outcomes:
            if oc.output is not None:
                by_config[(oc.task.inputs["ell"], oc.task.inputs["m"])].append(oc)
        out = []
        for (ell, m), group in sorted(by_config.items()):
            points = [(r, t) for oc in group for r in oc.task.inputs["r"] for t in oc.task.inputs["t"]]
            ref = fd_reference(self.modes[ell], self.params[m], points)
            y = checks.y_l0(ell)
            for oc in group:
                pts = [(r, t) for r in oc.task.inputs["r"] for t in oc.task.inputs["t"]]
                ok = [k for k, flag in enumerate(oc.output[1]) if flag == "ok"]
                out += checks.check_fd(f"grid ell={ell} m={m}",
                                       [oc.output[0][k] for k in ok],
                                       [y * ref[pts[k]] for k in ok])
        return out


class Spectral(Workload):
    """field_hankel: the pionic atom (closed-form transform through hyp2f1)
    and Gaussian data (oscillatory ladder), plus one late-time point."""

    name = "spectral"
    nominal_round_s = 7.5
    # one late point that field_hankel's rescaled assembly, lacking the
    # late-time endpoint layer, cannot resolve (ROADMAP item 2)
    LATE = {"m": 2.0, "r": 0.7, "t": 40.0}
    PIONIC_M = 2.0

    def build(self) -> None:
        self.params = {m: dswave.PhysicalParams(H=H, m=m) for m in MASSES}
        self.modes = {("pionic", self.PIONIC_M): desitter.pionic_mode(2, 1, energy=self.PIONIC_M)}
        gauss = dswave.ModeState(1, 0, dswave.gaussian_profile(1))
        self.modes.update({("gauss", m): gauss for m in MASSES})

    def warmup(self) -> None:
        desitter.field_hankel(self.modes[("gauss", 0.5)], self.params[0.5], 1.0, 1.0)

    def _task(self, kind, m, r, t):
        profile = "gauss" if kind == "late" else kind
        mode, params = self.modes[(profile, m)], self.params[m]
        return Task(kind, 1, lambda: desitter.field_hankel(mode, params, r, t),
                    {"profile": profile, "m": m, "r": r, "t": t})

    def rounds(self, rng):
        while True:
            # a pionic point costs 2-4.7 s by where it sits, and at m = 0.5
            # the cost jumps by 40% within 5% of r and t; at m = 2 in this
            # box it holds within a few percent, so the seed hardly moves
            # the round's cost
            tasks = [self._task("pionic", self.PIONIC_M, rng.uniform(1.1, 1.3), rng.uniform(0.9, 1.1))]
            for m in MASSES:
                for t in strata(rng, 0.0, 5.0, 2):
                    tasks.append(self._task("gauss", m, rng.uniform(0.3, 2.5), t))
            tasks.append(self._task("late", **self.LATE))
            yield tasks

    def check(self, outcomes):
        out = []
        fd_points = defaultdict(list)
        for oc in outcomes:
            if oc.output is None:
                continue
            p = oc.task.inputs
            key = (p["profile"], p["m"])
            ref = desitter.field_riemann(self.modes[key], self.params[p["m"]], p["r"], p["t"])
            out += checks.check_representation(f"spectral {p}", oc.output, ref)
            if p["t"] <= FD_T_MAX:
                fd_points[key].append(((p["r"], p["t"]), oc.output))
        y = checks.y_l0(1)
        for key, items in sorted(fd_points.items()):
            ref = fd_reference(self.modes[key], self.params[key[1]], [pt for pt, _ in items])
            out += checks.check_fd(f"spectral {key}", [v for _, v in items],
                                   [y * ref[pt] for pt, _ in items])
        return out


class Decay(Workload):
    """decay_fit over ita_remainder samples of the pionic atom on the
    late window: the paper's application, run through the endpoint-layer
    panels."""

    name = "decay"
    nominal_round_s = 4.0
    WINDOW = (14.0, 34.0)
    N_SAMPLES = 7

    def build(self) -> None:
        self.params = {m: dswave.PhysicalParams(H=H, m=m) for m in MASSES}
        self.modes = {m: desitter.pionic_mode(2, 1, energy=m) for m in MASSES}

    def warmup(self) -> None:
        desitter.ita_remainder(self.modes[0.5], self.params[0.5], 0.7, self.WINDOW[0])

    def _fit(self, m, r):
        mode, params = self.modes[m], self.params[m]
        heavy = m >= 1.5 * H
        report = desitter.decay_fit(
            lambda t: desitter.ita_remainder(mode, params, r, t),
            self.WINDOW, self.N_SAMPLES, params=params, fit_poly_power=heavy)
        return report.fitted_exponent, (report.fitted_poly_power if heavy else None)

    def rounds(self, rng):
        while True:
            yield [Task("decay", self.N_SAMPLES, lambda m=m, r=r: self._fit(m, r), {"m": m, "r": r})
                   for m, r in ((m, rng.uniform(0.5, 1.2)) for m in MASSES)]

    def check(self, outcomes):
        out = []
        for oc in outcomes:
            if oc.output is not None:
                m = oc.task.inputs["m"]
                rate, power = checks.predicted_decay(m, H)
                out += checks.check_decay(f"decay {oc.task.inputs}", oc.output[0], rate,
                                          oc.output[1], power)
        return out


class Cli(Workload):
    """dswave commands as subprocesses: start-up, schema validation, the
    --jobs process pool, the writers and solve_fd."""

    name = "cli"
    nominal_round_s = 8.0
    # fixed inputs: the collapsing mass, where K0 and K1 have closed forms
    KERNELS = ["kernels", "--format", "csv", "--mass", repr(math.sqrt(2.0)),
               "--r", "0:0.9:10", "--t", "3:12:10"]
    trace_dir: Path | None = None

    def __init__(self) -> None:
        self._n_commands = 0

    def setup_command(self):
        return [sys.executable, "-m", "dswave", "kernels", "--r", "0.5", "--t", "1.0"]

    def warmup(self) -> None:
        self._dswave(self.setup_command()[3:])

    def _dswave(self, args: list[str]) -> tuple[int, str]:
        if self.trace_dir is None:
            proc = subprocess.run([sys.executable, "-m", "dswave", *args], env=python_env(),
                                  capture_output=True, text=True, timeout=150)
            return proc.returncode, proc.stdout
        self._n_commands += 1
        prefix = self.trace_dir / f"cmd{self._n_commands:04d}-{args[0]}"
        cmd = [sys.executable, "-X", "importtime", str(HERE / "cli_shim.py"), str(prefix), *args]
        # the import-time log goes to a file that layers.collect_cli reads
        with open(f"{prefix}.stderr", "w", encoding="utf-8") as err:
            proc = subprocess.run(cmd, env=python_env(), stdout=subprocess.PIPE, stderr=err,
                                  text=True, timeout=150)
        return proc.returncode, proc.stdout

    def rounds(self, rng):
        while True:
            ell = rng.choice((0, 1, 2))
            m = rng.choice(MASSES)
            rs = ",".join(repr(v) for v in strata(rng, 0.2, 2.5, 6))
            ts = ",".join(repr(v) for v in strata(rng, 0.0, 2.9, 6))
            grid = ["--ell", str(ell), "--mass", repr(m), "--r", rs, "--t", ts]
            cmds = [
                ("eval", ["eval", "--jobs", "2", "--format", "csv", *grid]),
                ("eval", ["eval", "--jobs", "1", "--format", "json", *grid]),
                ("compare", ["compare", "--method", "riemann", "--method-b", "fd", "--jobs", "1", *grid]),
                ("kernels", self.KERNELS),
            ]
            yield [Task(kind, 1, lambda a=args: self._dswave(a), {"args": args}) for kind, args in cmds]

    @staticmethod
    def _parse(task: Task, stdout: str) -> Any:
        args = task.inputs["args"]
        if task.kind == "eval":
            return checks.eval_rows_csv(stdout) if "csv" in args else checks.eval_rows_json(stdout)
        if task.kind == "kernels":
            return checks.parse_csv(stdout, checks.KERNEL_NUMERIC)
        return checks.parse_json(stdout)

    def failed_ops(self, outcome):
        if outcome.output is None or outcome.output[0] != 0:
            return 1
        try:
            self._parse(outcome.task, outcome.output[1])
        except checks.Unparsable:
            return 1
        return 0

    def check(self, outcomes):
        out = []
        for k in range(0, len(outcomes), 4):
            jobs2, jobs1, compare, kernels = [
                self._parse(oc.task, oc.output[1]) if self.failed_ops(oc) == 0 else None
                for oc in outcomes[k:k + 4]]
            label = f"cli round {k // 4}"
            if jobs2 is not None and jobs1 is not None:
                out += checks.check_eval_pair(label, jobs1, jobs2)
            if compare is not None and not (compare.get("passed") is True and not compare.get("failed_points")):
                out.append(f"{label}: compare did not pass: max_rel_diff {compare.get('max_rel_diff')}")
            if kernels is not None:
                out += checks.check_kernels(label, kernels, H)
        return out


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Grid, Spectral, Decay, Cli)}
