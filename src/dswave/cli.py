"""Command-line front end.

Four subcommands: ``eval`` tabulates a field over an (r, t) grid, ``compare``
runs two methods on a shared grid and reports the worst discrepancy,
``decay`` fits the late-time envelope of the kernel remainder against the
classified prediction, and ``kernels`` tabulates K0, K1 and the assembly
combination 2 K0 + n H K1.

Configuration is a single JSON document validated against a schema that
rejects unknown keys; every setting is also exposed as a flag, and flags win
over the file.  CSV output uses the shortest decimal that round-trips a
64-bit float and LF line endings; JSON reports embed the resolved
configuration (minus execution-only keys) so a run can be repeated from its
own output.  Exit codes: 0 success, 1 configuration error, 2 numerical
failure, 3 tolerance failure in compare/decay.
"""

from __future__ import annotations

import argparse
import cmath
import copy
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import Any, Callable, Sequence, TextIO

import numpy as np
import jsonschema

from .desitter import (
    FieldGrid,
    _METHODS,
    decay_fit,
    evaluate_grid,
    ita_remainder,
    pionic_profile,
)
from .errors import (
    ConfigError,
    DegenerateFit,
    DivergentSeries,
    DomainError,
    InstabilityDetected,
    InvalidParam,
    QuadratureFailure,
)
from .kernels import (
    PhysicalParams,
    huygens_k0,
    huygens_k1,
    kernel_eval,
)
from .minkowski import (
    ModeState,
    gaussian_profile,
    scaled_profile,
    tabulated_profile,
)
from .oracle import FDConfig
from .quadrature import DEFAULT_SPEC, QuadratureSpec

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Configuration

_AXIS_SCHEMA = {
    "oneOf": [
        {"type": "array", "items": {"type": "number"}, "minItems": 1},
        {
            "type": "object",
            "properties": {
                "start": {"type": "number"},
                "stop": {"type": "number"},
                "num": {"type": "integer", "minimum": 2},
            },
            "required": ["start", "stop", "num"],
            "additionalProperties": False,
        },
    ]
}

_PROFILE_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "kind": {"const": "gaussian"},
                "sigma": {"type": "number", "exclusiveMinimum": 0},
                "power": {"type": ["integer", "null"]},
                "amplitude": {"type": "number"},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "pionic"},
                "n": {"type": "integer", "minimum": 1},
                "Z": {"type": "integer", "minimum": 1},
                "normalization": {"oneOf": [{"type": "number"}, {"const": "l2"}]},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "tabulated"},
                "path": {"type": "string"},
                "mu": {"type": ["number", "null"]},
            },
            "required": ["kind", "path"],
            "additionalProperties": False,
        },
    ]
}

_VELOCITY_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"kind": {"const": "none"}},
            "required": ["kind"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "pionic_phase"},
                "E": {"type": ["number", "null"]},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
    ]
}

_METHOD_NAMES = sorted(_METHODS) + ["fd"]

_SCHEMA = {
    "type": "object",
    "properties": {
        "physical": {
            "type": "object",
            "properties": {
                "H": {"type": "number", "exclusiveMinimum": 0},
                "m": {"type": "number", "minimum": 0},
                "n_dim": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "mode": {
            "type": "object",
            "properties": {
                "ell": {"type": "integer", "minimum": 0},
                "m": {"type": "integer"},
                "profile": _PROFILE_SCHEMA,
                "velocity": _VELOCITY_SCHEMA,
            },
            "additionalProperties": False,
        },
        "grid": {
            "type": "object",
            "properties": {
                "r": _AXIS_SCHEMA,
                "t": _AXIS_SCHEMA,
                "theta": {"type": "number"},
                "phi": {"type": "number"},
            },
            "additionalProperties": False,
        },
        "method": {"enum": _METHOD_NAMES},
        "method_b": {"enum": _METHOD_NAMES},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
        "decay": {
            "type": "object",
            "properties": {
                "r": {"type": "number", "exclusiveMinimum": 0},
                "t_window": {
                    "type": "array",
                    "items": {"type": "number"},
                    "minItems": 2,
                    "maxItems": 2,
                },
                "n_samples": {"type": "integer", "minimum": 4},
                "fit_poly_power": {"type": "boolean"},
                "discard_fraction": {"type": "number", "minimum": 0, "maximum": 0.89},
                "tolerance": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "quadrature": {
            "type": "object",
            "properties": {
                "abs_tol": {"type": "number", "exclusiveMinimum": 0},
                "rel_tol": {"type": "number", "exclusiveMinimum": 0},
                "max_subdivisions": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "fd": {
            "type": "object",
            "properties": {
                "n_r": {"type": "integer", "minimum": 200},
                "r_max": {"type": "number", "exclusiveMinimum": 0},
                "cfl_safety": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            },
            "additionalProperties": False,
        },
        "output": {
            "type": "object",
            "properties": {
                "path": {"type": ["string", "null"]},
                "format": {"enum": ["csv", "json", None]},
            },
            "additionalProperties": False,
        },
        "jobs": {"type": ["integer", "null"], "minimum": 1},
    },
    "additionalProperties": False,
}

_DEFAULTS: dict[str, Any] = {
    "physical": {"H": 1.0, "m": math.sqrt(2.0), "n_dim": 3},
    "mode": {
        "ell": 0,
        "m": 0,
        "profile": {"kind": "gaussian"},
        "velocity": {"kind": "none"},
    },
    "grid": {"r": [1.0], "t": [0.0, 0.5, 1.0], "theta": 0.0, "phi": 0.0},
    "method": "riemann",
    "method_b": "hankel",
    "tolerance": 1e-5,
    "decay": {
        "r": 1.0,
        "t_window": [10.0, 30.0],
        "n_samples": 21,
        "fit_poly_power": False,
        "discard_fraction": 0.0,
        "tolerance": 0.1,
    },
    "quadrature": {},
    "fd": {},
    "output": {"path": None, "format": None},
    "jobs": None,
}

_PROFILE_DEFAULTS: dict[str, dict[str, Any]] = {
    "gaussian": {"sigma": 1.0, "power": None, "amplitude": 1.0},
    "pionic": {"n": 1, "Z": 1, "normalization": 1.0},
    "tabulated": {"mu": None},
}

_VELOCITY_DEFAULTS: dict[str, dict[str, Any]] = {
    "none": {},
    "pionic_phase": {"E": None},
}


def _merge(base: dict[str, Any], update: dict[str, Any]) -> dict[str, Any]:
    """Recursive dict merge; discriminated-union values (anything carrying a
    "kind") replace the base wholesale so stale keys of the other variant
    cannot leak through."""
    out = dict(base)
    for key, val in update.items():
        if isinstance(val, dict) and "kind" in val:
            out[key] = copy.deepcopy(val)
        elif isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _expand_axis(value: Any, name: str) -> list[float]:
    if isinstance(value, dict):
        pts = np.linspace(value["start"], value["stop"], value["num"])
    else:
        pts = np.asarray(value, dtype=float)
    pts = [float(v) for v in pts]
    if not all(math.isfinite(v) for v in pts):
        raise ConfigError(f"grid axis {name!r} contains non-finite points")
    return pts


def _parse_axis_text(text: str) -> Any:
    """Grid axis from a flag: "a:b:n" is an n-point linear range, otherwise a
    comma-separated list of values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"range must be start:stop:num, got {text!r}")
        try:
            return {"start": float(parts[0]), "stop": float(parts[1]), "num": int(parts[2])}
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_normalization(text: str) -> Any:
    if text == "l2":
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"normalization must be a number or 'l2', got {text!r}"
        ) from None


# built once: jsonschema.validate would check the schema and build a new
# validator on every call
_VALIDATOR = jsonschema.validators.validator_for(_SCHEMA)(_SCHEMA)


def _validate(cfg: dict[str, Any]) -> None:
    # the error jsonschema.validate would raise
    exc = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(cfg))
    if exc is not None:
        path = ".".join(str(p) for p in exc.absolute_path) or "<top level>"
        raise ConfigError(f"{path}: {exc.message}")


# flag destination -> (section, key); None section means top level
_OVERRIDES: dict[str, tuple[str | None, str]] = {
    "H": ("physical", "H"),
    "mass": ("physical", "m"),
    "n_dim": ("physical", "n_dim"),
    "ell": ("mode", "ell"),
    "m": ("mode", "m"),
    "r": ("grid", "r"),
    "t": ("grid", "t"),
    "theta": ("grid", "theta"),
    "phi": ("grid", "phi"),
    "method": (None, "method"),
    "method_b": (None, "method_b"),
    "tolerance": (None, "tolerance"),
    "decay_r": ("decay", "r"),
    "t_window": ("decay", "t_window"),
    "n_samples": ("decay", "n_samples"),
    "fit_poly": ("decay", "fit_poly_power"),
    "discard": ("decay", "discard_fraction"),
    "decay_tolerance": ("decay", "tolerance"),
    "abs_tol": ("quadrature", "abs_tol"),
    "rel_tol": ("quadrature", "rel_tol"),
    "out": ("output", "path"),
    "format": ("output", "format"),
    "jobs": (None, "jobs"),
}

_PROFILE_FLAG_KEYS = {
    "sigma": "sigma",
    "power": "power",
    "amplitude": "amplitude",
    "n_quantum": "n",
    "Z": "Z",
    "normalization": "normalization",
    "profile_file": "path",
    "mu": "mu",
}


def _resolve_config(args: argparse.Namespace) -> dict[str, Any]:
    cfg = copy.deepcopy(_DEFAULTS)
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
        _validate(user)
        cfg = _merge(cfg, user)

    if getattr(args, "profile", None) is not None:
        cfg["mode"]["profile"] = {"kind": args.profile}
    for dest, key in _PROFILE_FLAG_KEYS.items():
        val = getattr(args, dest, None)
        if val is not None:
            cfg["mode"]["profile"][key] = val
    if getattr(args, "velocity", None) is not None:
        cfg["mode"]["velocity"] = {"kind": args.velocity}
    if getattr(args, "energy", None) is not None:
        cfg["mode"]["velocity"]["E"] = args.energy
    for dest, (section, key) in _OVERRIDES.items():
        val = getattr(args, dest, None)
        if val is None:
            continue
        if section is None:
            cfg[key] = val
        else:
            cfg[section][key] = val

    prof = cfg["mode"]["profile"]
    kind = prof.get("kind")
    if kind not in _PROFILE_DEFAULTS:
        raise ConfigError(f"unknown profile kind {kind!r}")
    cfg["mode"]["profile"] = {**_PROFILE_DEFAULTS[kind], **prof}
    vel = cfg["mode"]["velocity"]
    if vel.get("kind") not in _VELOCITY_DEFAULTS:
        raise ConfigError(f"unknown velocity kind {vel.get('kind')!r}")
    cfg["mode"]["velocity"] = {**_VELOCITY_DEFAULTS[vel["kind"]], **vel}

    _validate(cfg)
    if cfg["jobs"] is None:
        cfg["jobs"] = os.cpu_count() or 1
    cfg["grid"]["r"] = _expand_axis(cfg["grid"]["r"], "r")
    cfg["grid"]["t"] = _expand_axis(cfg["grid"]["t"], "t")
    # pre-flight the physical builds so every bad setting exits as a
    # configuration error rather than surfacing mid-run
    _, params, _ = _build_point_args(cfg)
    if args.command in ("eval", "compare"):
        methods = [cfg["method"]] + ([cfg["method_b"]] if args.command == "compare" else [])
        for meth in methods:
            if meth.startswith("huygens") and not params.is_huygensian:
                raise ConfigError(
                    f"method {meth!r} requires the collapsing mass m = sqrt(2) H"
                )
        if any(r <= 0.0 for r in cfg["grid"]["r"]):
            raise ConfigError("field evaluation needs r > 0 on the whole grid")
        if any(t < 0.0 for t in cfg["grid"]["t"]):
            raise ConfigError("field evaluation needs t >= 0 on the whole grid")
    return cfg


def _build_params(cfg: dict[str, Any]) -> PhysicalParams:
    p = cfg["physical"]
    try:
        return PhysicalParams(H=p["H"], m=p["m"], n=p["n_dim"])
    except (InvalidParam, DomainError) as exc:
        raise ConfigError(str(exc)) from None


def _build_mode(cfg: dict[str, Any], params: PhysicalParams) -> ModeState:
    mc = cfg["mode"]
    prof = mc["profile"]
    try:
        if prof["kind"] == "gaussian":
            f0 = gaussian_profile(
                mc["ell"], prof["sigma"], prof["power"], prof["amplitude"]
            )
        elif prof["kind"] == "pionic":
            f0 = pionic_profile(prof["n"], mc["ell"], prof["Z"], prof["normalization"])
        else:
            data = np.loadtxt(prof["path"], delimiter=",", ndmin=2)
            if data.shape[1] not in (2, 3):
                raise ConfigError(
                    f"tabulated profile needs 2 or 3 columns, got {data.shape[1]}"
                )
            f_vals = data[:, 1] if data.shape[1] == 2 else data[:, 1] + 1j * data[:, 2]
            kwargs = {} if prof["mu"] is None else {"mu": prof["mu"]}
            f0 = tabulated_profile(data[:, 0], f_vals, mc["ell"], **kwargs)
        vel = mc["velocity"]
        f1 = None
        if vel["kind"] == "pionic_phase":
            energy = vel["E"] if vel["E"] is not None else params.m
            f1 = scaled_profile(f0, -1j * energy)
        if abs(mc["m"]) > mc["ell"]:
            raise ConfigError(f"|m| = {abs(mc['m'])} exceeds ell = {mc['ell']}")
        return ModeState(ell=mc["ell"], m=mc["m"], f0=f0, f1=f1)
    except (InvalidParam, DomainError, OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _build_spec(cfg: dict[str, Any]) -> QuadratureSpec:
    q = cfg["quadrature"]
    return replace(DEFAULT_SPEC, **q) if q else DEFAULT_SPEC


def _build_point_args(cfg: dict[str, Any]) -> tuple[ModeState, PhysicalParams, QuadratureSpec]:
    params = _build_params(cfg)
    return _build_mode(cfg, params), params, _build_spec(cfg)


def _build_fd(cfg: dict[str, Any]) -> FDConfig:
    fd = cfg["fd"]
    t_end = max(cfg["grid"]["t"])
    r_max = fd.get("r_max", max(cfg["grid"]["r"]) + t_end + 0.5)
    try:
        return FDConfig(
            r_max=r_max,
            n_r=fd.get("n_r", 2000),
            t_end=t_end,
            cfl_safety=fd.get("cfl_safety", 0.2),
        )
    except (InvalidParam, DomainError) as exc:
        raise ConfigError(str(exc)) from None


def _embedded(cfg: dict[str, Any]) -> dict[str, Any]:
    """The resolved configuration as reports embed it: execution-only keys
    dropped so output bytes do not depend on parallelism or file naming."""
    out = copy.deepcopy(cfg)
    out.pop("jobs", None)
    out.pop("output", None)
    return out


# ---------------------------------------------------------------------------
# Grid execution

# what a pool worker hands evaluate_grid besides its sub-grid, set once per
# worker by _init_worker
_WORKER: tuple[ModeState, PhysicalParams, str, float, float, QuadratureSpec] | None = None


def _init_worker(cfg: dict[str, Any], method: str) -> None:
    # profiles hold closures, which do not pickle: each worker builds its
    # own from the configuration
    global _WORKER
    mode, params, spec = _build_point_args(cfg)
    _WORKER = (mode, params, method, cfg["grid"]["theta"], cfg["grid"]["phi"], spec)


def _subgrid_task(task: tuple[float, list[float]]) -> FieldGrid:
    r, ts = task
    mode, params, method, theta, phi, spec = _WORKER
    return evaluate_grid(mode, params, method, [r], ts, theta, phi, spec).grid


def _run_grid(cfg: dict[str, Any], method: str, jobs: int) -> FieldGrid:
    """Evaluate one method over the configured grid.

    The finite-difference method (a single whole-grid evolution) and a run
    with one worker (jobs <= 1, or a one-point grid) are one evaluate_grid
    call in-process.  Otherwise a pool of at most `jobs` workers runs
    evaluate_grid on sub-grids: one radius and a contiguous run of times
    each, about four per worker, so that a one-radius grid spreads too.
    The rows come back in order, so output is identical for every
    parallelism degree.
    """
    rs, ts = cfg["grid"]["r"], cfg["grid"]["t"]
    # built in the parent first: a failure ends the run here as it does at
    # jobs = 1, and the pool's initializer repeats a build that passed, in
    # the same floating-point state (forked) or a laxer one (spawned)
    mode, params, spec = _build_point_args(cfg)
    theta, phi = cfg["grid"]["theta"], cfg["grid"]["phi"]
    workers = min(jobs, len(rs) * len(ts))
    if method == "fd" or workers <= 1:
        fd_config = _build_fd(cfg) if method == "fd" else None
        return evaluate_grid(
            mode, params, method, rs, ts, theta, phi, spec, fd_config=fd_config
        ).grid
    runs = min(len(ts), math.ceil(4 * workers / len(rs)))
    tasks = [(r, part.tolist()) for r in rs for part in np.array_split(ts, runs)]
    with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(cfg, method)) as pool:
        parts = list(pool.map(_subgrid_task, tasks))
    rows = [parts[i:i + runs] for i in range(0, len(parts), runs)]
    return FieldGrid(
        r_values=rs,
        t_values=ts,
        values=[np.concatenate([p.values[0] for p in row]) for row in rows],
        err_flags=[[f for p in row for f in p.err_flags[0]] for row in rows],
        method=method,
    )


# ---------------------------------------------------------------------------
# Output

def _open_out(cfg: dict[str, Any]):
    path = cfg["output"]["path"]
    if path is None:
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _dump_json(fh: TextIO, doc: dict[str, Any]) -> None:
    json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
    fh.write("\n")


def _nan_to_none(x: float) -> float | None:
    return None if math.isnan(x) else x


def _emit(cfg: dict[str, Any], write: Callable[[TextIO], None]) -> None:
    fh, owned = _open_out(cfg)
    try:
        write(fh)
    finally:
        if owned:
            fh.close()


def _write_rows(
    cfg: dict[str, Any], command: str, header: Sequence[str], rows: list[list[Any]]
) -> None:
    """Header and rows as CSV (the default), or as a JSON report of one
    object per row in which a nan cell is null."""
    if cfg["output"]["format"] == "json":
        doc = {
            "command": command,
            "config": _embedded(cfg),
            "rows": [
                {k: (_nan_to_none(v) if isinstance(v, float) else v) for k, v in zip(header, row)}
                for row in rows
            ],
        }
        _emit(cfg, lambda fh: _dump_json(fh, doc))
        return

    def write_csv(fh: TextIO) -> None:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = (repr(float(c)) if isinstance(c, float) else str(c) for c in row)
            fh.write(",".join(cells) + "\n")

    _emit(cfg, write_csv)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_eval(cfg: dict[str, Any]) -> int:
    grid = _run_grid(cfg, cfg["method"], cfg["jobs"])
    rows = [[s.r, s.t, s.value.real, s.value.imag, s.method, s.err_flag] for s in grid]
    _write_rows(cfg, "eval", ("r", "t", "re", "im", "method", "err_flag"), rows)
    failed = any(s.err_flag != "ok" for s in grid)
    return 2 if failed else 0


def cmd_compare(cfg: dict[str, Any]) -> int:
    grid_a = _run_grid(cfg, cfg["method"], cfg["jobs"])
    grid_b = _run_grid(cfg, cfg["method_b"], cfg["jobs"])
    bad = [
        (s_a.r, s_a.t, s_a.err_flag, s_b.err_flag)
        for s_a, s_b in zip(grid_a, grid_b)
        if s_a.err_flag != "ok" or s_b.err_flag != "ok"
    ]
    max_abs = 0.0
    max_rel = 0.0
    worst: dict[str, Any] | None = None
    if not bad:
        for s_a, s_b in zip(grid_a, grid_b):
            diff = abs(s_a.value - s_b.value)
            rel = diff / (1.0 + max(abs(s_a.value), abs(s_b.value)))
            max_abs = max(max_abs, diff)
            if rel >= max_rel:
                max_rel = rel
                worst = {
                    "r": s_a.r,
                    "t": s_a.t,
                    "value_a": [s_a.value.real, s_a.value.imag],
                    "value_b": [s_b.value.real, s_b.value.imag],
                    "abs_diff": diff,
                }
    passed = not bad and max_rel <= cfg["tolerance"]
    doc = {
        "command": "compare",
        "config": _embedded(cfg),
        "methods": [cfg["method"], cfg["method_b"]],
        "max_abs_diff": max_abs,
        "max_rel_diff": max_rel,
        "worst_point": worst,
        "tolerance": cfg["tolerance"],
        "failed_points": [
            {"r": r, "t": t, "err_flag_a": fa, "err_flag_b": fb} for r, t, fa, fb in bad
        ],
        "passed": passed,
    }
    _emit(cfg, lambda fh: _dump_json(fh, doc))
    if bad:
        return 2
    return 0 if passed else 3


def cmd_decay(cfg: dict[str, Any]) -> int:
    mode, params, spec = _build_point_args(cfg)
    dc = cfg["decay"]

    def sampler(t: float) -> complex:
        return ita_remainder(mode, params, dc["r"], t, spec)

    report = decay_fit(
        sampler,
        (dc["t_window"][0], dc["t_window"][1]),
        dc["n_samples"],
        params=params,
        fit_poly_power=dc["fit_poly_power"],
        discard_fraction=dc["discard_fraction"],
    )
    deviation = abs(report.fitted_exponent - report.predicted_exponent)
    # relative gate on the exponent, floored for near-zero predictions
    threshold = dc["tolerance"] * max(abs(report.predicted_exponent), 0.05 * params.H)
    passed = deviation <= threshold
    doc = {
        "command": "decay",
        "config": _embedded(cfg),
        "report": {
            "regime": report.regime,
            "predicted_exponent": report.predicted_exponent,
            "predicted_poly_power": report.predicted_poly_power,
            "fitted_exponent": report.fitted_exponent,
            "fitted_poly_power": _nan_to_none(report.fitted_poly_power),
            "fit_residual": report.fit_residual,
            "t_window": list(report.t_window),
            "n_samples": report.n_samples,
        },
        "deviation": deviation,
        "threshold": threshold,
        "passed": passed,
    }
    _emit(cfg, lambda fh: _dump_json(fh, doc))
    return 0 if passed else 3


def cmd_kernels(cfg: dict[str, Any]) -> int:
    params = _build_params(cfg)
    rs, ts = cfg["grid"]["r"], cfg["grid"]["t"]
    huy = params.is_huygensian
    rows: list[list[Any]] = []
    nan = math.nan
    for r in rs:
        for t in ts:
            flag = "ok"
            try:
                ev = kernel_eval(r, t, params)
                comb = 2.0 * ev.k0 + params.n * params.H * ev.k1
                if not cmath.isfinite(comb):
                    raise DomainError(f"2 K0 + n H K1 at r={r}, t={t} exceeds the binary64 range")
                row = [
                    r, t,
                    ev.k0.real, ev.k0.imag,
                    ev.k1.real, ev.k1.imag,
                    comb.real, comb.imag,
                ]
            except (DomainError, DivergentSeries, QuadratureFailure) as exc:
                row = [r, t, nan, nan, nan, nan, nan, nan]
                flag = type(exc).__name__
            except ArithmeticError:
                row = [r, t, nan, nan, nan, nan, nan, nan]
                flag = DomainError.__name__
            if huy:
                # the closed forms stay where they are finite, even in a
                # row whose hypergeometric kernels failed
                try:
                    row += [huygens_k0(t, params.H), huygens_k1(t, params.H)]
                except DomainError as exc:
                    row += [nan, nan]
                    if flag == "ok":
                        flag = type(exc).__name__
            row.append(flag)
            rows.append(row)
    failed = any(row[-1] != "ok" for row in rows)
    header = ["r", "t", "k0_re", "k0_im", "k1_re", "k1_im", "comb_re", "comb_im"]
    if huy:
        header += ["huygens_k0", "huygens_k1"]
    header.append("err_flag")
    _write_rows(cfg, "kernels", header, rows)
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# Argument parsing

class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; this front end reserves 2
    for numerical failures, so usage errors are remapped to 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument("--jobs", type=int, help="worker processes (default: logical cores)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=["csv", "json"], help="output format")
    p.add_argument("--H", type=float, help="expansion rate")
    p.add_argument("--mass", type=float, help="field mass")
    p.add_argument("--n-dim", type=int, dest="n_dim", help="spatial dimension")
    p.add_argument("--ell", type=int, help="angular degree")
    p.add_argument("--m", type=int, help="azimuthal index")
    p.add_argument("--theta", type=float, help="polar angle")
    p.add_argument("--phi", type=float, help="azimuthal angle")
    p.add_argument("--r", type=_parse_axis_text, help="radii: list v1,v2,... or range a:b:n")
    p.add_argument("--t", type=_parse_axis_text, help="times: list v1,v2,... or range a:b:n")
    p.add_argument("--profile", choices=["gaussian", "pionic", "tabulated"],
                   help="initial data profile family")
    p.add_argument("--sigma", type=float, help="gaussian width parameter")
    p.add_argument("--power", type=int, help="gaussian radial power (default ell)")
    p.add_argument("--amplitude", type=float, help="gaussian amplitude")
    p.add_argument("--n-quantum", type=int, dest="n_quantum", help="bound-state principal number")
    p.add_argument("--Z", type=int, help="bound-state charge number")
    p.add_argument("--normalization", type=_parse_normalization,
                   help="bound-state normalization constant or 'l2'")
    p.add_argument("--profile-file", dest="profile_file", help="tabulated profile CSV")
    p.add_argument("--mu", type=float, help="tabulated profile small-r exponent")
    p.add_argument("--velocity", choices=["none", "pionic_phase"],
                   help="initial velocity family")
    p.add_argument("--energy", type=float, help="phase energy for velocity=pionic_phase (default: mass)")
    p.add_argument("--abs-tol", type=float, dest="abs_tol", help="quadrature absolute tolerance")
    p.add_argument("--rel-tol", type=float, dest="rel_tol", help="quadrature relative tolerance")


def _build_parser() -> _Parser:
    parser = _Parser(prog="dswave", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_eval = sub.add_parser("eval", help="tabulate a field over an (r, t) grid")
    _add_common(p_eval)
    p_eval.add_argument("--method", choices=_METHOD_NAMES, help="evaluation method")
    p_eval.set_defaults(func=cmd_eval)

    p_cmp = sub.add_parser("compare", help="run two methods on a shared grid")
    _add_common(p_cmp)
    p_cmp.add_argument("--method", choices=_METHOD_NAMES, help="first method")
    p_cmp.add_argument("--method-b", choices=_METHOD_NAMES, dest="method_b",
                       help="second method")
    p_cmp.add_argument("--tolerance", type=float,
                       help="gate on |a-b|/(1+max(|a|,|b|))")
    p_cmp.set_defaults(func=cmd_compare)

    p_dec = sub.add_parser("decay", help="fit the late-time remainder envelope")
    _add_common(p_dec)
    p_dec.add_argument("--decay-r", type=float, dest="decay_r", help="sampling radius")
    p_dec.add_argument("--t-window", type=_parse_axis_text, dest="t_window",
                       help="fit window a,b")
    p_dec.add_argument("--n-samples", type=int, dest="n_samples", help="samples in the window")
    p_dec.add_argument("--fit-poly", action=argparse.BooleanOptionalAction,
                       dest="fit_poly", default=None,
                       help="also fit a (1+t)^p factor")
    p_dec.add_argument("--discard", type=float, help="fraction of low-envelope samples to drop")
    p_dec.add_argument("--decay-tolerance", type=float, dest="decay_tolerance",
                       help="relative gate on the fitted exponent (default 0.1)")
    p_dec.set_defaults(func=cmd_decay)

    p_ker = sub.add_parser("kernels", help="tabulate K0, K1 and the assembly combination")
    _add_common(p_ker)
    p_ker.set_defaults(func=cmd_kernels)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        # numpy arithmetic beyond the binary64 range raises: it ends as a
        # flagged row or a numerical failure, not as a warning
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(cfg)
    except BrokenPipeError:
        # the reader closed stdout early (`| head`); what it read was
        # written.  Point stdout at devnull so the flush at exit cannot
        # raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ConfigError, InvalidParam) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (
        QuadratureFailure, DegenerateFit, InstabilityDetected, DomainError, ArithmeticError
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
