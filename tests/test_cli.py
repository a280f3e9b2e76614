"""Command-line front end tests: output contracts, exit codes, and
determinism across parallelism degrees."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dswave
from dswave import (
    ModeState,
    PhysicalParams,
    field_riemann,
    gaussian_profile,
    kernel_eval,
    pionic_mode,
)
from dswave.cli import main

SQRT2 = math.sqrt(2.0)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def python(*argv, **kwargs) -> subprocess.Popen:
    """A fresh interpreter that imports the dswave under test."""
    src = str(Path(dswave.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.Popen([sys.executable, *argv], env=env, **kwargs)


class TestEval:
    def test_csv_contract_and_initial_row(self, capsys):
        code, out, _ = run(
            capsys,
            "eval",
            "--profile", "pionic", "--n-quantum", "1", "--ell", "0",
            "--r", "1.0", "--t", "0,0.5,1",
            "--method", "huygens_riemann",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "r,t,re,im,method,err_flag"
        assert len(lines) == 4
        first = lines[1].split(",")
        # t = 0 row is the initial datum F0(1/H) Y00
        mode = pionic_mode(1, 0)
        want = mode.f0(1.0).real * 0.5 / math.sqrt(math.pi)
        assert float(first[2]) == pytest.approx(want, rel=1e-12)
        assert first[4] == "huygens_riemann" and first[5] == "ok"

    def test_csv_floats_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--r", "0.7", "--t", "0.9", "--mass", "1.0", "--ell", "1"
        )
        assert code == 0
        row = out.splitlines()[1].split(",")
        mode = ModeState(ell=1, m=0, f0=gaussian_profile(1))
        mode_val = field_riemann(mode, PhysicalParams(H=1.0, m=1.0), 0.7, 0.9)
        assert float(row[2]) == mode_val.real  # bit-exact round trip
        assert float(row[3]) == mode_val.imag

    def test_byte_identical_across_jobs(self, tmp_path):
        base = [
            "eval", "--r", "0.4:1.6:3", "--t", "0:1.5:3",
            "--ell", "1", "--mass", "2.0",
        ]
        p1 = tmp_path / "j1.csv"
        p2 = tmp_path / "j2.csv"
        assert main(base + ["--jobs", "1", "--out", str(p1)]) == 0
        assert main(base + ["--jobs", "2", "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "argv,want",
        [
            # flagged points: the t = 400 rows leave the binary64 range
            (["eval", "--mass", "2.0", "--r", "0.7,0.8", "--t", "0,1,400"], 2),
            # one radius: the pool splits its times
            (["eval", "--r", "0.7", "--t", "0:3:9"], 0),
            (["compare", "--method", "riemann", "--method-b", "hankel",
              "--r", "0.6,1.2", "--t", "0.4,1.1", "--mass", "1.0"], 0),
        ],
    )
    def test_pool_output_matches_one_job(self, capsys, argv, want):
        outs = []
        for jobs in ("1", "2"):
            code, out, _ = run(capsys, *argv, "--jobs", jobs)
            assert code == want
            outs.append(out)
        assert outs[0] == outs[1]

    def test_repeat_run_byte_identical(self, tmp_path):
        argv = ["eval", "--r", "1.0", "--t", "0,1", "--out"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(argv + [str(a)]) == 0
        assert main(argv + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "o.csv"
        assert main(["eval", "--r", "1.0", "--t", "0", "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_late_time_overflow_flags_and_exits_two(self, capsys):
        code, out, err = run(
            capsys, "eval", "--ell", "1", "--mass", "2.0", "--r", "0.7",
            "--t", "400", "--jobs", "1",
        )
        assert code == 2
        assert "Traceback" not in err
        row = out.splitlines()[1].split(",")
        assert row[5] == "NonFiniteIntegrand"
        assert math.isnan(float(row[2]))

    def test_heavy_mass_flags_and_exits_two(self, capsys):
        # the kernels' series cannot be summed at m = 300: a flagged row,
        # no traceback and no overflow warning
        code, out, err = run(
            capsys, "eval", "--mass", "300", "--ell", "1", "--r", "0.5",
            "--t", "1", "--jobs", "1",
        )
        assert code == 2
        assert err == ""
        row = out.splitlines()[1].split(",")
        assert row[5] == "NonFiniteIntegrand"
        assert math.isnan(float(row[2])) and math.isnan(float(row[3]))

    def test_heavy_mass_flagged_value_is_null_in_json(self, capsys):
        code, out, err = run(
            capsys, "eval", "--mass", "300", "--ell", "1", "--r", "0.5",
            "--t", "1", "--jobs", "1", "--format", "json",
        )
        assert code == 2
        assert err == ""
        row = json.loads(out)["rows"][0]
        assert row["err_flag"] == "NonFiniteIntegrand"
        assert row["re"] is None and row["im"] is None

    def test_unreachable_tolerance_flags_and_exits_two(self, capsys):
        code, out, err = run(
            capsys, "eval", "--ell", "1", "--r", "0.7", "--t", "2",
            "--rel-tol", "1e-16", "--abs-tol", "1e-30", "--jobs", "1",
        )
        assert code == 2
        assert "Traceback" not in err
        assert out.splitlines()[1].split(",")[5] == "ToleranceNotMet"

    def test_json_embeds_resolved_config(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--r", "1.0", "--t", "0.5", "--format", "json",
            "--jobs", "2", "--mass", "1.0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "eval"
        cfg = doc["config"]
        assert cfg["physical"]["m"] == 1.0
        assert cfg["method"] == "riemann"
        # execution-only keys stay out of the report so bytes cannot depend
        # on parallelism or output naming
        assert "jobs" not in cfg and "output" not in cfg
        assert doc["rows"][0]["err_flag"] == "ok"

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = {
            "physical": {"H": 1.0, "m": 1.0},
            "mode": {"ell": 1, "profile": {"kind": "gaussian", "sigma": 0.5}},
            "grid": {"r": [0.8], "t": [0.4]},
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(
            capsys, "eval", "--config", str(path), "--mass", "2.0",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["physical"]["m"] == 2.0  # flag wins
        assert doc["config"]["mode"]["profile"]["sigma"] == 0.5

    def test_default_config_is_embedded_whole(self, capsys):
        code, out, _ = run(capsys, "eval", "--format", "json", "--jobs", "1")
        assert code == 0
        assert json.loads(out)["config"] == {
            "decay": {
                "discard_fraction": 0.0, "fit_poly_power": False, "n_samples": 21, "r": 1.0,
                "t_window": [10.0, 30.0], "tolerance": 0.1,
            },
            "fd": {},
            "grid": {"phi": 0.0, "r": [1.0], "t": [0.0, 0.5, 1.0], "theta": 0.0},
            "method": "riemann",
            "method_b": "hankel",
            "mode": {
                "ell": 0, "m": 0,
                "profile": {"amplitude": 1.0, "kind": "gaussian", "power": None, "sigma": 1.0},
                "velocity": {"kind": "none"},
            },
            "physical": {"H": 1.0, "m": 1.4142135623730951, "n_dim": 3},
            "quadrature": {},
            "tolerance": 1e-05,
        }

    def test_pionic_config_with_file_override_is_embedded_whole(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        # --profile starts the profile afresh: the file's sigma does not stay
        path.write_text(json.dumps({
            "physical": {"H": 2.0},
            "mode": {"ell": 1, "profile": {"kind": "gaussian", "sigma": 0.5}},
            "quadrature": {"rel_tol": 1e-7}, "fd": {"n_r": 400},
        }))
        code, out, _ = run(
            capsys, "eval", "--format", "json", "--jobs", "1", f"--config={path}",
            "--profile", "pionic", "--n-quantum", "2", "--velocity", "pionic_phase",
            "--mass", repr(2 * SQRT2), "--r", "0.5,1.0", "--t", "0:1:3",
        )
        assert code == 0
        assert json.loads(out)["config"] == {
            "decay": {
                "discard_fraction": 0.0, "fit_poly_power": False, "n_samples": 21, "r": 1.0,
                "t_window": [10.0, 30.0], "tolerance": 0.1,
            },
            "fd": {"n_r": 400},
            "grid": {"phi": 0.0, "r": [0.5, 1.0], "t": [0.0, 0.5, 1.0], "theta": 0.0},
            "method": "riemann",
            "method_b": "hankel",
            "mode": {
                "ell": 1, "m": 0,
                "profile": {"Z": 1, "kind": "pionic", "n": 2, "normalization": 1.0},
                "velocity": {"E": None, "kind": "pionic_phase"},
            },
            "physical": {"H": 2.0, "m": 2.8284271247461903, "n_dim": 3},
            "quadrature": {"rel_tol": 1e-07},
            "tolerance": 1e-05,
        }


class TestConfigErrors:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"tipo": 1}')
        code, _, err = run(capsys, "eval", "--config", str(path))
        assert code == 1
        assert "config error" in err

    def test_invalid_physical_value(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"physical": {"H": -2.0}}')
        assert run(capsys, "eval", "--config", str(path))[0] == 1

    def test_azimuthal_index_beyond_ell(self, capsys):
        assert run(capsys, "eval", "--ell", "1", "--m", "2")[0] == 1

    def test_huygens_method_needs_collapsing_mass(self, capsys):
        code, _, err = run(
            capsys, "eval", "--mass", "1.0", "--method", "huygens_riemann"
        )
        assert code == 1
        assert "sqrt(2)" in err

    @pytest.mark.parametrize("argv", [
        ["eval", "--method", "hankel"],
        ["eval", "--method", "huygens_hankel", "--mass", repr(SQRT2)],
        ["compare", "--method", "riemann"],  # --method-b defaults to hankel
    ])
    def test_tabulated_profile_on_a_spectral_method(self, tmp_path, capsys, argv):
        # a tabulated profile has no closed-form transform: the spectral
        # methods refuse it before any work
        rs = [0.02 * (i + 1) for i in range(300)]
        path = tmp_path / "profile.csv"
        path.write_text("".join(f"{r!r},{r * math.exp(-r * r / 2)!r}\n" for r in rs))
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--ell", "1", "--profile", "tabulated",
                             "--profile-file", str(path), "--jobs", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("config error: method ") and err.count("\n") == 1
        assert "closed-form transform" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(capsys, "eval", "--config", str(path))[0] == 1

    def test_missing_config_file(self, capsys):
        assert run(capsys, "eval", "--config", "/nonexistent.json")[0] == 1

    def test_bad_flag_value_exits_one(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["eval", "--method", "bogus"])
        assert info.value.code == 1


class TestCompare:
    def test_method_against_itself_is_exact(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--method", "riemann", "--method-b", "riemann",
            "--r", "0.7", "--t", "0.5,1.0", "--mass", "1.0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["max_abs_diff"] == 0.0
        assert doc["passed"] is True

    def test_riemann_vs_hankel_within_tolerance(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--r", "0.6,1.2", "--t", "0.4,1.1",
            "--ell", "1", "--mass", "1.0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["methods"] == ["riemann", "hankel"]
        assert doc["max_rel_diff"] <= 1e-5
        assert set(doc["worst_point"]) == {"r", "t", "value_a", "value_b", "abs_diff"}

    def test_tolerance_failure_exits_three(self, capsys):
        # a deliberately coarse finite-difference run cannot meet 1e-8
        code, out, _ = run(
            capsys, "compare", "--method", "riemann", "--method-b", "fd",
            "--r", "0.5,1.0", "--t", "0.0,1.0", "--ell", "1", "--mass", "1.0",
            "--tolerance", "1e-8", "--config", "/dev/null/nothing",
        )
        assert code == 1  # sanity: bad config path still wins
        code, out, _ = run(
            capsys, "compare", "--method", "riemann", "--method-b", "fd",
            "--r", "0.5,1.0", "--t", "0.0,1.0", "--ell", "1", "--mass", "1.0",
            "--tolerance", "1e-8",
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["passed"] is False
        assert doc["max_rel_diff"] > 1e-8

    def test_coarse_fd_passes_loose_gate(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--method", "riemann", "--method-b", "fd",
            "--r", "0.5,1.0", "--t", "0.0,1.0", "--ell", "1", "--mass", "1.0",
            "--tolerance", "1e-2",
        )
        assert code == 0
        assert json.loads(out)["passed"] is True


class TestDecay:
    def test_critical_mass_passes(self, capsys):
        code, out, _ = run(
            capsys, "decay", "--mass", repr(SQRT2), "--decay-r", "0.7",
            "--t-window", "8,14", "--n-samples", "5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["regime"] == "critical"
        assert doc["report"]["fitted_exponent"] == pytest.approx(-1.0, abs=0.05)
        assert doc["passed"] is True

    def test_unreachable_quadrature_tolerance_exits_two(self, capsys):
        # the wave blocks nested in the remainder miss; exit 2, no traceback
        code, _, err = run(
            capsys, "decay", "--ell", "1", "--mass", repr(SQRT2), "--decay-r", "0.7",
            "--t-window", "8,14", "--n-samples", "5",
            "--rel-tol", "1e-16", "--abs-tol", "1e-30",
        )
        assert code == 2
        assert err.startswith("numerical failure:")

    def test_tight_tolerance_exits_three(self, capsys):
        code, out, _ = run(
            capsys, "decay", "--mass", repr(SQRT2), "--decay-r", "0.7",
            "--t-window", "8,14", "--n-samples", "5",
            "--decay-tolerance", "1e-12",
        )
        assert code == 3
        assert json.loads(out)["passed"] is False


class TestKernels:
    def test_huygens_columns_present_on_collapsing_mass(self, capsys):
        code, out, _ = run(capsys, "kernels", "--r", "0.0", "--t", "0,1")
        assert code == 0
        lines = out.splitlines()
        header = lines[0].split(",")
        assert "huygens_k0" in header and "huygens_k1" in header
        row0 = dict(zip(header, lines[1].split(",")))
        assert float(row0["k1_re"]) == pytest.approx(0.5, rel=1e-12)
        assert float(row0["huygens_k1"]) == 0.5

    def test_no_huygens_columns_off_the_collapsing_mass(self, capsys):
        code, out, _ = run(
            capsys, "kernels", "--mass", "1.0", "--r", "0.1", "--t", "1.0"
        )
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert "huygens_k0" not in header
        row = dict(zip(header, out.splitlines()[1].split(",")))
        ev = kernel_eval(0.1, 1.0, PhysicalParams(H=1.0, m=1.0))
        assert float(row["k0_re"]) == ev.k0.real
        assert float(row["comb_re"]) == (2.0 * ev.k0 + 3.0 * ev.k1).real

    def test_every_csv_cell_parses(self, capsys):
        code, out, _ = run(
            capsys, "kernels", "--format", "csv", "--mass", "1.4142135623730951",
            "--r", "0:0.9:10", "--t", "3:12:10",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 101
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[-1] == "ok"
            for cell in cells[:-1]:
                float(cell)

    def test_late_time_rows_flagged(self, capsys):
        code, out, _ = run(
            capsys, "kernels", "--mass", "2.0", "--r", "0.5,1.0", "--t", "400,746"
        )
        assert code == 2
        flags = [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]]
        assert flags == ["ok", "DomainError", "DomainError", "DomainError"]

    @pytest.mark.parametrize("mass", ["100", "300"])
    def test_heavy_mass_rows_flagged(self, capsys, mass):
        # m = 100: the series cancels away its digits; m = 300: its
        # coefficients overflow
        code, out, err = run(capsys, "kernels", "--mass", mass, "--r", "0.5", "--t", "1")
        assert code == 2
        assert err == ""
        row = out.splitlines()[1].split(",")
        assert row[-1] == "DivergentSeries"
        assert all(math.isnan(float(c)) for c in row[2:-1])

    def test_inadmissible_point_flags_and_exits_two(self, capsys):
        code, out, _ = run(capsys, "kernels", "--r", "0.0,0.9", "--t", "0.1")
        assert code == 2
        lines = out.splitlines()
        assert lines[1].endswith(",ok")
        assert lines[2].endswith(",DomainError")
        assert "nan" in lines[2]


# finite extremes of every numeric flag, and ordinary values between them
_EXTREME = st.one_of(
    st.sampled_from([0.0, 1e-300, 1e-8, 0.5, 1.0, SQRT2, 2.0, 1e8, 1e300, 1.7976931348623157e308]),
    st.floats(min_value=-1e308, max_value=1e308, allow_nan=False, allow_infinity=False),
)


# configuration values of the wrong JSON type
_WRONG_TYPE = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2),
    st.just({"x": 1}),
)
_NUMBER = st.one_of(_EXTREME, _WRONG_TYPE)
# a count sets the work and the memory that a run asks for: small ones run,
# and those above every count's ceiling (at most 10**6) are config errors.
# Between the two a count asks for minutes of honest work.
_COUNT = st.one_of(st.integers(-2, 6), st.integers(10**6 + 1, 10**12), _EXTREME, _WRONG_TYPE)


def _section(**fields):
    return st.fixed_dictionaries({}, optional=fields)


_CONFIGS = _section(
    physical=_section(H=_NUMBER, m=_NUMBER, n_dim=_COUNT),
    mode=_section(
        ell=st.one_of(st.integers(-1, 2), _EXTREME, _WRONG_TYPE),
        m=_COUNT,
        profile=st.one_of(
            st.fixed_dictionaries(
                {"kind": st.just("gaussian")},
                optional={"sigma": _NUMBER, "power": _COUNT, "amplitude": _NUMBER},
            ),
            st.fixed_dictionaries(
                {"kind": st.just("pionic")},
                optional={"n": _COUNT, "Z": _COUNT, "normalization": _NUMBER},
            ),
            _WRONG_TYPE,
        ),
        velocity=st.one_of(
            st.fixed_dictionaries({"kind": st.just("pionic_phase")}, optional={"E": _NUMBER}),
            _WRONG_TYPE,
        ),
    ),
    grid=_section(
        r=st.one_of(st.lists(_EXTREME, min_size=1, max_size=2), _NUMBER,
                    st.fixed_dictionaries({"start": _NUMBER, "stop": _NUMBER, "num": _COUNT})),
        t=st.one_of(st.lists(_EXTREME, min_size=1, max_size=2), _NUMBER),
        theta=_NUMBER, phi=_NUMBER,
    ),
    tolerance=_NUMBER,
    decay=_section(
        r=_NUMBER, t_window=st.one_of(st.lists(_EXTREME, min_size=2, max_size=2), _NUMBER),
        n_samples=_COUNT, fit_poly_power=st.one_of(st.booleans(), _NUMBER),
        discard_fraction=_NUMBER, tolerance=_NUMBER,
    ),
    quadrature=_section(abs_tol=_NUMBER, rel_tol=_NUMBER, max_subdivisions=_COUNT),
    fd=_section(n_r=_COUNT, r_max=_NUMBER, cfl_safety=_NUMBER),
)


class TestExtremeInputs:
    @pytest.mark.parametrize("argv", [
        ["kernels", "--t", "1e300", "--r", "0.5"],
        ["eval", "--amplitude", "1e308", "--r", "0.5", "--t", "1", "--jobs", "1"],
    ])
    def test_out_of_range_point_is_a_flagged_row(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err == ""
        row = out.splitlines()[1].split(",")
        assert row[-1] == "DomainError"
        assert all(math.isnan(float(c)) for c in row[2:-2 if argv[0] == "eval" else -1])

    @pytest.mark.parametrize("argv", [
        ["decay", "--n-dim", "2"],
        ["eval", "--mass", "1e300", "--r", "0.5", "--t", "1", "--jobs", "1"],
        ["kernels", "--mass", "1e300", "--r", "0.5", "--t", "1"],
        ["decay", "--t-window", "30,10"],
    ])
    def test_unusable_setting_is_a_config_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("config error:") and err.count("\n") == 1

    @given(
        command=st.sampled_from(["kernels", "eval", "decay"]),
        H=_EXTREME, mass=_EXTREME, r=_EXTREME, t=_EXTREME, t2=_EXTREME,
        amplitude=_EXTREME, sigma=_EXTREME,
        n_dim=st.integers(1, 4), ell=st.integers(0, 2),
    )
    @settings(max_examples=400, deadline=None)
    def test_no_input_ends_in_a_traceback(
        self, command, H, mass, r, t, t2, amplitude, sigma, n_dim, ell
    ):
        argv = [
            command, f"--H={H!r}", f"--mass={mass!r}", f"--n-dim={n_dim}",
            f"--ell={ell}", f"--amplitude={amplitude!r}", f"--sigma={sigma!r}",
        ]
        if command == "decay":
            argv += [f"--decay-r={r!r}", f"--t-window={t!r},{t2!r}", "--n-samples=4"]
        else:
            argv += [f"--r={r!r}", f"--t={t!r}"]
        if command == "eval":
            argv += ["--jobs=1", "--method=riemann"]
        _assert_clean_exit(argv)

    @given(
        argv=st.sampled_from([
            ["eval", "--method=hankel"],
            ["eval", "--method=huygens_riemann"],
            ["eval", "--method=huygens_hankel"],
            ["compare", "--method=riemann", "--method-b=hankel"],
            ["compare", "--method=riemann", "--method-b=huygens_riemann"],
        ]),
        H=_EXTREME, mass=st.one_of(st.none(), _EXTREME), r=_EXTREME, t=_EXTREME,
        amplitude=_EXTREME, sigma=_EXTREME, ell=st.integers(0, 2),
    )
    @settings(max_examples=200, deadline=None)
    def test_other_methods_end_in_an_exit_code(self, argv, H, mass, r, t, amplitude, sigma, ell):
        # mass None is the collapsing mass sqrt(2) H, which the Huygens
        # methods require
        mass = SQRT2 * H if mass is None else mass
        _assert_clean_exit([
            *argv, "--jobs=1", f"--H={H!r}", f"--mass={mass!r}", f"--ell={ell}",
            f"--amplitude={amplitude!r}", f"--sigma={sigma!r}", f"--r={r!r}", f"--t={t!r}",
        ])

    @given(command=st.sampled_from(["eval", "compare", "decay", "kernels"]), cfg=_CONFIGS)
    @settings(max_examples=200, deadline=None)
    def test_config_file_ends_in_an_exit_code(self, tmp_path_factory, command, cfg):
        path = tmp_path_factory.mktemp("cfg") / "config.json"
        path.write_text(json.dumps(cfg))
        _assert_clean_exit([command, "--jobs=1", f"--config={path}"])

    def test_integer_setting_written_as_a_float_is_a_config_error(self, tmp_path, capsys):
        # JSON 3.0 passed the schema's "integer" and then failed in range()
        # or numpy with a TypeError traceback
        for section, key, value in [
            ("grid", "r", {"start": 0.5, "stop": 1.0, "num": 3.0}),
            ("mode", "ell", 1.0),
            ("quadrature", "max_subdivisions", 50.0),
        ]:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({section: {key: value}}))
            code, out, err = run(capsys, "eval", "--jobs=1", f"--config={path}")
            assert code == 1 and out == ""
            assert err.startswith("config error:") and "is not of type 'integer'" in err
        path.write_text(json.dumps({"decay": {"n_samples": 4.0}}))
        code, _, err = run(capsys, "decay", f"--config={path}")
        assert code == 1 and "is not of type 'integer'" in err

    def test_subdivision_limit_below_the_spec_minimum_is_a_config_error(self, tmp_path, capsys):
        # QuadratureSpec requires >= 8; its InvalidParam escaped the config
        # checks as a traceback
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"quadrature": {"max_subdivisions": 1}}))
        code, out, err = run(capsys, "eval", "--jobs=1", f"--config={path}")
        assert code == 1 and out == ""
        assert err.startswith("config error: quadrature.max_subdivisions:")

    def test_pionic_overflow_is_a_config_error(self, capsys):
        # the Gamma functions of the Laguerre coefficients overflow at large
        # n_quantum (from 170 at ell = 0); that raised a bare OverflowError
        for extra in ([], ["--normalization=l2"]):
            code, out, err = run(
                capsys, "eval", "--jobs=1", "--profile=pionic", "--n-quantum=200", *extra
            )
            assert code == 1 and out == ""
            assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, config", [
        (["eval", "--r", "0:1:1180591620717411303424", "--jobs", "1"], None),
        (["eval", "--r", "0.5:1:100000000", "--t", "1"], None),
        (["eval", "--r", "0.5:1:1000", "--t", "0:1:1001", "--jobs", "1"], None),
        (["eval", "--ell", "10000000", "--sigma", "0.5"], None),
        (["eval", "--method", "fd", "--jobs", "1"], {"fd": {"cfl_safety": 1e-3}}),
        (["compare", "--method-b", "fd", "--jobs", "1"], {"fd": {"cfl_safety": 1e-3}}),
        (["decay", "--n-samples", "1000000"], None),
        (["eval", "--profile", "pionic", f"--Z={10**400}"], None),
        (["eval", "--power", "100000"], None),
        (["kernels", "--n-dim", "5000"], None),
    ])
    def test_work_beyond_a_ceiling_is_a_config_error(self, tmp_path, capsys, argv, config):
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv = [*argv, f"--config={path}"]
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("config error:") and err.count("\n") == 1


def _assert_clean_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    msg = err.getvalue()
    # nothing on stderr but the one line that explains the exit code
    assert msg == "" or (
        msg.count("\n") == 1 and msg.startswith(("config error:", "numerical failure:"))
    )


class TestProcess:
    def test_reader_closing_the_pipe_early(self):
        # ~270 kB of rows, four times the pipe buffer: the writer is still
        # writing when the reader leaves after one line (`| head -1`)
        proc = python(
            "-m", "dswave", "kernels", "--r", "0:0.99:200", "--t", "0.5:3:10", "--jobs", "1",
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert first.startswith(b"r,t,k0_re")
        assert err == b""

    def test_no_scipy_on_the_start_up_path(self):
        # scipy serves only tabulated profiles, minkowski_kg and the FD
        # oracle; the import, the default eval, the collapsing-mass kernels
        # (log case: Gamma and digamma), the late-time endpoint layer
        # (t = 5, 10), compare and decay load none of it, nor jsonschema
        script = textwrap.dedent("""
            import contextlib, io, sys

            def unwanted_modules():
                return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "jsonschema"))

            import dswave.cli
            assert not unwanted_modules(), unwanted_modules()
            # the process pool is imported by a run with more than one worker
            assert "concurrent.futures.process" not in sys.modules
            for argv in (
                ["eval"],
                ["kernels", "--mass", repr(2 ** 0.5), "--r", "0:0.9:10", "--t", "3:12:10"],
                ["eval", "--t", "5,10"],
                ["compare", "--method", "huygens_riemann", "--method-b", "riemann", "--jobs", "1"],
                ["decay", "--mass", "2.0", "--t-window", "14,34", "--n-samples", "5"],
            ):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = dswave.cli.main(argv)
                assert code in (0, 3), (argv, code)
                assert not unwanted_modules(), (argv, unwanted_modules())
        """)
        proc = python("-c", script, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err.decode()
