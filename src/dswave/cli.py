"""Command-line front end.

Four subcommands: ``eval`` tabulates a field over an (r, t) grid, ``compare``
runs two methods on a shared grid and reports the worst discrepancy,
``decay`` fits the late-time envelope of the kernel remainder against the
classified prediction, and ``kernels`` tabulates K0, K1 and the assembly
combination 2 K0 + n H K1.

Configuration is a single JSON document, checked against one table of
settings (``_SETTINGS``) that rejects unknown keys.  Each row gives a
setting's type, bounds (work ceilings included), default, flag and help;
flags win over the file.  CSV output uses the shortest decimal that
round-trips a 64-bit float and LF line endings; JSON reports embed the
resolved configuration (minus execution-only keys) so a run can be repeated
from its own output.  Exit codes: 0 success, 1 configuration error, 2
numerical failure, 3 tolerance failure in compare/decay.
"""

from __future__ import annotations

import argparse
import cmath
import copy
import json
import math
import os
import sys
from dataclasses import replace
from typing import Any, Callable, NamedTuple, Sequence, TextIO

import numpy as np

from .desitter import (
    ALPHA_FS,
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
    _blocks,
    gaussian_profile,
    scaled_profile,
    tabulated_profile,
)
from .oracle import FDConfig
from .quadrature import DEFAULT_SPEC, QuadratureSpec

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Settings

_METHOD_NAMES = sorted(_METHODS) + ["fd"]
_COMMANDS = ("eval", "compare", "decay", "kernels")

# Work ceilings, each set from the cost per unit measured on a 2-core
# machine (README, "Ceilings"): ~1 ms per eval point and ~80 us per kernels
# point; the Y_ell^m recurrence costs ~0.25 ms a point at ell = 1000 and
# grows linearly beyond; an RK4 step costs ~50 ns per FD cell
_MAX_GRID_POINTS = 1_000_000
_MAX_ELL = 1000
_MAX_FD_STEPS = 100_000

# the default of a setting that must be given (a tabulated profile's path)
_REQUIRED = object()


class _Setting(NamedTuple):
    section: str
    key: str
    type: Any
    bounds: str | None
    default: Any
    flag: str | None
    help: str
    commands: tuple[str, ...] = _COMMANDS

    @property
    def where(self) -> tuple[str, str | None]:
        section, _, kind = self.section.partition("[")
        return section, kind.rstrip("]") or None


# Every setting, once.  section is "" for the top level, and
# "mode.profile[pionic]" for a member of the union that mode.profile.kind
# picks.  type is a _TYPES name, with "?" where null is also allowed, or a
# list of choices; bounds is an interval such as "(0, 1]".  A flag is added
# to each of the commands, in the table's order.
_SETTINGS = [_Setting(*row) for row in (
    # section, key, type, bounds, default, flag, help[, commands]
    ("", "jobs", "integer?", "[1, 256]", None, "--jobs",
     "worker processes (default: logical cores)"),
    ("output", "path", "string?", None, None, "--out", "output path (default: stdout)"),
    ("output", "format", ["csv", "json", None], None, None, "--format", "output format"),
    ("physical", "H", "number", "(0, inf)", 1.0, "--H", "expansion rate"),
    ("physical", "m", "number", "[0, inf)", math.sqrt(2.0), "--mass", "field mass"),
    ("physical", "n_dim", "integer", "[1, 1000]", 3, "--n-dim", "spatial dimension"),
    ("mode", "ell", "integer", f"[0, {_MAX_ELL}]", 0, "--ell", "angular degree"),
    ("mode", "m", "integer", None, 0, "--m", "azimuthal index"),
    ("grid", "theta", "number", None, 0.0, "--theta", "polar angle"),
    ("grid", "phi", "number", None, 0.0, "--phi", "azimuthal angle"),
    ("grid", "r", "axis", None, [1.0], "--r", "radii: list v1,v2,... or range a:b:n"),
    ("grid", "t", "axis", None, [0.0, 0.5, 1.0], "--t", "times: list v1,v2,... or range a:b:n"),
    ("mode.profile", "kind", ["gaussian", "pionic", "tabulated"], None, "gaussian", "--profile",
     "initial data profile family"),
    ("mode.profile[gaussian]", "sigma", "number", "(0, inf)", 1.0, "--sigma",
     "gaussian width parameter"),
    ("mode.profile[gaussian]", "power", "integer?", "(-inf, 1000]", None, "--power",
     "gaussian radial power (default ell)"),
    ("mode.profile[gaussian]", "amplitude", "number", None, 1.0, "--amplitude",
     "gaussian amplitude"),
    ("mode.profile[pionic]", "n", "integer", "[1, 1000]", 1, "--n-quantum",
     "bound-state principal number"),
    # Z alpha must stay below ell + 1/2
    ("mode.profile[pionic]", "Z", "integer", f"[1, {int((_MAX_ELL + 0.5) / ALPHA_FS)}]", 1, "--Z",
     "bound-state charge number"),
    ("mode.profile[pionic]", "normalization", "normalization", None, 1.0, "--normalization",
     "bound-state normalization constant or 'l2'"),
    ("mode.profile[tabulated]", "path", "string", None, _REQUIRED, "--profile-file",
     "tabulated profile CSV"),
    ("mode.profile[tabulated]", "mu", "number?", None, None, "--mu",
     "tabulated profile small-r exponent"),
    ("mode.velocity", "kind", ["none", "pionic_phase"], None, "none", "--velocity",
     "initial velocity family"),
    ("mode.velocity[pionic_phase]", "E", "number?", None, None, "--energy",
     "phase energy for velocity=pionic_phase (default: mass)"),
    ("quadrature", "abs_tol", "number", "(0, inf)", DEFAULT_SPEC.abs_tol, "--abs-tol",
     "quadrature absolute tolerance"),
    ("quadrature", "rel_tol", "number", "(0, inf)", DEFAULT_SPEC.rel_tol, "--rel-tol",
     "quadrature relative tolerance"),
    ("quadrature", "max_subdivisions", "integer", "[8, 10000]", DEFAULT_SPEC.max_subdivisions,
     None, "intervals per integral"),
    ("fd", "n_r", "integer", "[200, 20000]", 2000, None, "radial cells"),
    ("fd", "r_max", "number", "(0, inf)", None, None,
     "outer radius (default: max r + max t + 0.5)"),
    ("fd", "cfl_safety", "number", "(0, 1]", 0.2, None, "time step over radial step"),
    ("", "method", _METHOD_NAMES, None, "riemann", "--method", "evaluation method",
     ("eval", "compare")),
    ("", "method_b", _METHOD_NAMES, None, "hankel", "--method-b", "second method", ("compare",)),
    ("", "tolerance", "number", "(0, inf)", 1e-5, "--tolerance",
     "gate on |a-b|/(1+max(|a|,|b|))", ("compare",)),
    ("decay", "r", "number", "(0, inf)", 1.0, "--decay-r", "sampling radius", ("decay",)),
    ("decay", "t_window", "pair", None, [10.0, 30.0], "--t-window", "fit window a,b", ("decay",)),
    ("decay", "n_samples", "integer", "[4, 100000]", 21, "--n-samples", "samples in the window",
     ("decay",)),
    ("decay", "fit_poly_power", "boolean", None, False, "--fit-poly",
     "also fit a (1+t)^p factor", ("decay",)),
    ("decay", "discard_fraction", "number", "[0, 0.89]", 0.0, "--discard",
     "fraction of low-envelope samples to drop", ("decay",)),
    ("decay", "tolerance", "number", "(0, inf)", 0.1, "--decay-tolerance",
     "relative gate on the fitted exponent (default 0.1)", ("decay",)),
)]

# the sections that the resolved configuration, and so every JSON report,
# holds only as set: their defaults apply where they are used
_SPARSE = ("quadrature", "fd")

# (section, union member or None) -> {key: setting}, and section -> the keys
# of its sub-sections
_FIELDS: dict[tuple[str, str | None], dict[str, _Setting]] = {}
_SUBSECTIONS: dict[str, set[str]] = {}
for _s in _SETTINGS:
    _FIELDS.setdefault(_s.where, {})[_s.key] = _s
    _parent, _, _child = _s.where[0].rpartition(".")
    if _child:
        _SUBSECTIONS.setdefault(_parent, set()).add(_child)
# the range form of an axis, checked as a section of its own
_RANGE = {s.key: s for s in (
    _Setting("", "start", "number", None, _REQUIRED, None, "first point"),
    _Setting("", "stop", "number", None, _REQUIRED, None, "last point"),
    _Setting("", "num", "integer", f"[2, {_MAX_GRID_POINTS}]", _REQUIRED, None, "points"),
)}
# the sections with a "kind" are unions
_UNIONS = [section for (section, kind), fields in _FIELDS.items()
           if kind is None and "kind" in fields]


def _node(cfg: dict[str, Any], section: str) -> dict[str, Any]:
    for part in filter(None, section.split(".")):
        cfg = cfg.setdefault(part, {})
    return cfg


def _defaults() -> dict[str, Any]:
    """Every section, with the defaults of the rows outside the union members
    and the sparse sections."""
    cfg: dict[str, Any] = {}
    for s in _SETTINGS:
        section, kind = s.where
        node = _node(cfg, section)
        if kind is None and section not in _SPARSE:
            node[s.key] = copy.deepcopy(s.default)
    return cfg


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


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# type -> (test, what a value that fails it is not, flag parser); an "axis"
# and a "pair" are lists of numbers, an axis also a range
_TYPES: dict[str, tuple[Callable[[Any], bool], str, Callable[[str], Any] | None]] = {
    "number": (_is_number, "of type 'number'", float),
    "integer": (lambda v: isinstance(v, int) and not isinstance(v, bool), "of type 'integer'", int),
    "boolean": (lambda v: isinstance(v, bool), "of type 'boolean'", None),
    "string": (lambda v: isinstance(v, str), "of type 'string'", str),
    "normalization": (
        lambda v: v == "l2" or _is_number(v), "a number or 'l2'", _parse_normalization
    ),
    "axis": (lambda v: isinstance(v, list), "of type 'array', 'object'", _parse_axis_text),
    "pair": (lambda v: isinstance(v, list), "of type 'array'", _parse_axis_text),
}


def _value_error(type_: Any, bounds: str | None, v: Any, path: str) -> tuple[str, str] | None:
    """The (path, message) by which value v breaks a setting of this type and
    bounds, or None.  The messages are those of JSON Schema validators."""
    if isinstance(type_, list):
        return None if v in type_ else (path, f"{v!r} is not one of {type_!r}")
    if type_ == "axis" and isinstance(v, dict):
        return _section_error(v, path, _RANGE)
    nullable = type_.endswith("?")
    if nullable and v is None:
        return None
    test, what, _ = _TYPES[type_.rstrip("?")]
    if not test(v):
        return path, f"{v!r} is not {what}" + (", 'null'" if nullable else "")
    if type_ == "axis" and not v:
        return path, f"{v!r} should be non-empty"
    if type_ == "pair" and len(v) != 2:
        return path, f"{v!r} is too " + ("short" if len(v) < 2 else "long")
    if type_ in ("axis", "pair"):
        for i, x in enumerate(v):
            err = _value_error("number", None, x, f"{path}.{i}")
            if err:
                return err
    elif bounds is not None:
        lo, hi = (None if "inf" in p else json.loads(p) for p in bounds[1:-1].split(","))
        if lo is not None and bounds[0] == "(" and v <= lo:
            return path, f"{v!r} is less than or equal to the minimum of {lo!r}"
        if lo is not None and bounds[0] == "[" and v < lo:
            return path, f"{v!r} is less than the minimum of {lo!r}"
        if hi is not None and v > hi:
            return path, f"{v!r} is greater than the maximum of {hi!r}"
    return None


def _section_error(
    value: Any, section: str, fields: dict[str, _Setting] | None = None
) -> tuple[str, str] | None:
    where = section or "<top level>"
    if not isinstance(value, dict):
        return where, f"{value!r} is not of type 'object'"
    if fields is None:
        fields = _FIELDS.get((section, None), {})
    if section in _UNIONS:
        # the kind picks the member's rows
        if "kind" not in value:
            return where, "'kind' is a required property"
        err = _value_error(fields["kind"].type, None, value["kind"], f"{section}.kind")
        if err:
            return err
        fields = {**fields, **_FIELDS.get((section, value["kind"]), {})}
    children = _SUBSECTIONS.get(section, set())
    extra = [k for k in value if k not in fields and k not in children]
    if extra:
        were = "was" if len(extra) == 1 else "were"
        listed = ", ".join(repr(k) for k in extra)
        return where, f"Additional properties are not allowed ({listed} {were} unexpected)"
    missing = [k for k, s in fields.items() if s.default is _REQUIRED and k not in value]
    if missing:
        return where, f"{missing[0]!r} is a required property"
    for key, v in value.items():
        path = f"{section}.{key}" if section else key
        err = (_section_error(v, path) if key in children
               else _value_error(fields[key].type, fields[key].bounds, v, path))
        if err:
            return err
    return None


def _validate(cfg: dict[str, Any]) -> None:
    """Check a configuration, whole or partial, against the settings table."""
    err = _section_error(cfg, "")
    if err is not None:
        raise ConfigError(f"{err[0]}: {err[1]}")


def _resolve_config(args: argparse.Namespace) -> dict[str, Any]:
    cfg = _defaults()
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
        # a section's keys replace the defaults one by one; below the top
        # level, a union or an axis range is replaced whole, so no key of
        # another kind stays behind
        for key, val in user.items():
            cfg[key] = {**cfg[key], **val} if isinstance(val, dict) else val

    # flags win over the file; a kind flag starts its union afresh, before
    # the member flags that follow it in the table
    for s in _SETTINGS:
        val = getattr(args, s.flag.lstrip("-").replace("-", "_"), None) if s.flag else None
        if val is not None:
            node = _node(cfg, s.where[0])
            if s.key == "kind":
                node.clear()
            node[s.key] = val
    for section in _UNIONS:
        node = _node(cfg, section)
        for s in _FIELDS.get((section, node["kind"]), {}).values():
            if s.default is not _REQUIRED:
                node.setdefault(s.key, s.default)

    _validate(cfg)
    if cfg["jobs"] is None:
        cfg["jobs"] = os.cpu_count() or 1
    points = math.prod(a["num"] if isinstance(a, dict) else len(a)
                       for a in (cfg["grid"]["r"], cfg["grid"]["t"]))
    if points > _MAX_GRID_POINTS:
        raise ConfigError(
            f"grid: {points} points (r x t) exceed the ceiling of {_MAX_GRID_POINTS}"
        )
    cfg["grid"]["r"] = _expand_axis(cfg["grid"]["r"], "r")
    cfg["grid"]["t"] = _expand_axis(cfg["grid"]["t"], "t")
    # pre-flight the physical builds so every bad setting exits as a
    # configuration error rather than surfacing mid-run
    mode, params, spec = _build_point_args(cfg)
    if args.command in ("eval", "compare"):
        methods = [cfg["method"]] + ([cfg["method_b"]] if args.command == "compare" else [])
        for meth in methods:
            if meth.startswith("huygens") and not params.is_huygensian:
                raise ConfigError(
                    f"method {meth!r} requires the collapsing mass m = sqrt(2) H"
                )
            if meth.endswith("hankel"):
                try:
                    _blocks(mode.f0, spec, spectral=True)
                except InvalidParam as exc:
                    raise ConfigError(f"method {meth!r}: {exc}") from None
        if any(r <= 0.0 for r in cfg["grid"]["r"]):
            raise ConfigError("field evaluation needs r > 0 on the whole grid")
        if any(t < 0.0 for t in cfg["grid"]["t"]):
            raise ConfigError("field evaluation needs t >= 0 on the whole grid")
        if "fd" in methods:
            fd = _build_fd(cfg)
            # divided term by term: cfl_safety r_max may underflow to 0
            steps = fd.t_end / fd.cfl_safety * (fd.n_r / fd.r_max)
            if steps > _MAX_FD_STEPS:
                raise ConfigError(
                    f"fd: t_end n_r / (cfl_safety r_max) = {steps:.4g} time steps exceed "
                    f"the ceiling of {_MAX_FD_STEPS}"
                )
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
    fd = {s.key: s.default for s in _FIELDS[("fd", None)].values()} | cfg["fd"]
    t_end = max(cfg["grid"]["t"])
    r_max = fd["r_max"] if fd["r_max"] is not None else max(cfg["grid"]["r"]) + t_end + 0.5
    return FDConfig(r_max=r_max, n_r=fd["n_r"], t_end=t_end, cfl_safety=fd["cfl_safety"])


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
    from concurrent.futures import ProcessPoolExecutor

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

def _dump_json(fh: TextIO, doc: dict[str, Any]) -> None:
    json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
    fh.write("\n")


def _nan_to_none(x: float) -> float | None:
    return None if math.isnan(x) else x


def _emit(cfg: dict[str, Any], write: Callable[[TextIO], None]) -> None:
    path = cfg["output"]["path"]
    if path is None:
        write(sys.stdout)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write(fh)


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

    def sampler(t: np.ndarray) -> np.ndarray:
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


def _flag_options(s: _Setting) -> dict[str, Any]:
    if isinstance(s.type, list):
        return {"choices": [c for c in s.type if c is not None]}
    if s.type == "boolean":
        return {"action": argparse.BooleanOptionalAction}
    return {"type": _TYPES[s.type.rstrip("?")][2]}


def _build_parser() -> _Parser:
    parser = _Parser(prog="dswave", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, func, text in (
        ("eval", cmd_eval, "tabulate a field over an (r, t) grid"),
        ("compare", cmd_compare, "run two methods on a shared grid"),
        ("decay", cmd_decay, "fit the late-time remainder envelope"),
        ("kernels", cmd_kernels, "tabulate K0, K1 and the assembly combination"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON configuration file")
        for s in _SETTINGS:
            if s.flag and name in s.commands:
                p.add_argument(s.flag, help=s.help, **_flag_options(s))
        p.set_defaults(func=func)
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
