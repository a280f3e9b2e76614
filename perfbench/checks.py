"""Output checks of the benchmark.

Each check compares a program output with a computation made apart from
the code path under test (the finite-difference oracle, the quadrature
representation, closed forms written out here) or with a property the
method must have (a decay rate, identical output for every worker
count).  A check returns a list of failure messages; an empty list is a
pass.  They run outside the timed part.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any, Sequence

# gate 3: finite differences at n_r = 2000 certify a grid to relative L2 1e-3
FD_REL_L2 = 1e-3
# gate 4: spectral and quadrature representations agree to 1e-5 (1 + |a|)
REPRESENTATION_TOL = 1e-5
# gate 7: fitted rate within 10% of the classified one; heavy power within
# 0.5 of the predicted one
DECAY_RATE_REL = 0.10
DECAY_POWER_ABS = 0.5
# kernels on the collapsing mass against their elementary closed forms
HUYGENS_REL = 1e-10


def y_l0(ell: int) -> float:
    """Y_l^0 at theta = 0: sqrt((2 ell + 1) / (4 pi))."""
    return math.sqrt((2 * ell + 1) / (4.0 * math.pi))


def rel_l2(values: Sequence[complex], reference: Sequence[complex]) -> float:
    num = math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(values, reference, strict=True)))
    den = math.sqrt(sum(abs(b) ** 2 for b in reference))
    return num / den if den > 0.0 else math.inf if num > 0.0 else 0.0


def check_fd(label: str, values: Sequence[complex], reference: Sequence[complex]) -> list[str]:
    err = rel_l2(values, reference)
    if not err <= FD_REL_L2:
        return [f"{label}: relative L2 {err:.3e} against solve_fd > {FD_REL_L2:g}"]
    return []


def check_representation(label: str, value: complex, reference: complex) -> list[str]:
    err = abs(value - reference) / (1.0 + abs(reference))
    if not err <= REPRESENTATION_TOL:
        return [f"{label}: |a - b|/(1 + |a|) = {err:.3e} against field_riemann > {REPRESENTATION_TOL:g}"]
    return []


def check_decay(label: str, fitted_rate: float, predicted_rate: float,
                fitted_power: float | None = None, predicted_power: float = 0.0) -> list[str]:
    out = []
    if not abs(fitted_rate - predicted_rate) <= DECAY_RATE_REL * abs(predicted_rate):
        out.append(f"{label}: fitted rate {fitted_rate:+.5f} vs predicted {predicted_rate:+.5f}")
    if fitted_power is not None and not abs(fitted_power - predicted_power) <= DECAY_POWER_ABS:
        out.append(f"{label}: fitted power {fitted_power:+.3f} vs predicted {predicted_power:+.3f}")
    return out


def predicted_decay(m: float, H: float) -> tuple[float, float]:
    """Late-time envelope e^{rate t} (1 + t)^power of the kernel part in
    three dimensions, by regime: light m < sqrt(2) H decays at
    -3H/2 + sqrt(9H^2/4 - m^2); critical, intermediate and heavy masses at
    -H, with power 1 only at m = 3H/2 exactly."""
    if m < math.sqrt(2.0) * H:
        return -1.5 * H + math.sqrt(2.25 * H * H - m * m), 0.0
    return -H, 1.0 if m == 1.5 * H else 0.0


def huygens_k0(t: float, H: float) -> float:
    """K0 on the collapsing mass: -(H/4) e^{H t/2}."""
    return -0.25 * H * math.exp(0.5 * H * t)


def huygens_k1(t: float, H: float) -> float:
    """K1 on the collapsing mass: e^{H t/2} / 2."""
    return 0.5 * math.exp(0.5 * H * t)


# -- CLI outputs ---------------------------------------------------------


class Unparsable(ValueError):
    """A CLI output that cannot be read as the documented table."""


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise Unparsable(f"value {text[:40]!r} is not a number") from None


def parse_csv(text: str, numeric: Sequence[str]) -> list[dict[str, Any]]:
    """Rows of a CSV table; the named columns must parse as numbers."""
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for row in reader:
        missing = [c for c in numeric if c not in row]
        if missing:
            raise Unparsable(f"columns {missing} missing")
        rows.append({k: (_number(v) if k in numeric else v) for k, v in row.items()})
    if not rows:
        raise Unparsable("no rows")
    return rows


def parse_json(text: str) -> dict[str, Any]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise Unparsable(f"not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise Unparsable("not a JSON object")
    return doc


EVAL_NUMERIC = ("r", "t", "re", "im")


def eval_rows_csv(text: str) -> list[tuple]:
    return [tuple(row[k] for k in EVAL_NUMERIC + ("err_flag",))
            for row in parse_csv(text, EVAL_NUMERIC)]


def eval_rows_json(text: str) -> list[tuple]:
    rows = parse_json(text).get("rows")
    if not isinstance(rows, list) or not rows:
        raise Unparsable("no rows")
    out = []
    for row in rows:
        vals = [row.get(k) for k in EVAL_NUMERIC]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in vals):
            raise Unparsable(f"row {row} has a non-numeric value")
        out.append(tuple(float(v) for v in vals) + (row.get("err_flag"),))
    return out


def check_eval_pair(label: str, rows_a: list[tuple], rows_b: list[tuple]) -> list[str]:
    """The same grid at two worker counts: identical rows, every one ok."""
    out = []
    if rows_a != rows_b:
        out.append(f"{label}: --jobs 1 and --jobs 2 rows differ")
    bad = [row for row in rows_a + rows_b if row[-1] != "ok"]
    if bad:
        out.append(f"{label}: {len(bad)} rows flagged, first {bad[0]}")
    return out


KERNEL_NUMERIC = ("r", "t", "k0_re", "k0_im", "k1_re", "k1_im", "comb_re", "comb_im",
                  "huygens_k0", "huygens_k1")


def check_kernels(label: str, rows: list[dict[str, Any]], H: float) -> list[str]:
    """K0, K1 on the collapsing mass against the closed forms above."""
    out = []
    for row in rows:
        t = row["t"]
        for col, ref in (("k0_re", huygens_k0(t, H)), ("k1_re", huygens_k1(t, H)),
                         ("huygens_k0", huygens_k0(t, H)), ("huygens_k1", huygens_k1(t, H))):
            if not abs(row[col] - ref) <= HUYGENS_REL * abs(ref):
                out.append(f"{label}: {col} = {row[col]!r} at r={row['r']}, t={t} vs {ref!r}")
        for col in ("k0_im", "k1_im"):
            if not abs(row[col]) <= HUYGENS_REL * abs(huygens_k1(t, H)):
                out.append(f"{label}: {col} = {row[col]!r} at r={row['r']}, t={t}")
        if row["err_flag"] != "ok":
            out.append(f"{label}: flag {row['err_flag']} at r={row['r']}, t={t}")
    return out
