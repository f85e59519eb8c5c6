"""Output gate for every benchmarked command.

``check_command`` reads the artifacts one command wrote and returns a
verdict:

- ``ok``    the command exited 0 and its artifacts pass every check;
- ``fail``  the program's own oracle said FAIL (``verify`` exits 1 with
  ``passed: false`` in the report): a failed operation whose output is
  consistent;
- ``wrong`` anything else: a crash or input error, a missing or malformed
  artifact, a NaN, a broken identity, or an exit code that disagrees with
  the report.

Both ``fail`` and ``wrong`` count as failed commands; only ``wrong`` makes a
run incorrect.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

XI_CAP = 1e18             # state_price_for_wealth's default saturation level
ROUND_TRIP_RTOL = 1e-8    # surface/decompose: wealth at the inverted state price
SPLIT_RTOL = 1e-9         # the four portfolio terms add up to the percentage
BUDGET_RTOL = 1e-10       # dual.json residual, relative to max(1, x0)
ENVELOPE_RTOL = 1e-9      # envelope >= raw utility on the dense curve
WEIGHT_TOL = 1e-9         # kink and cell weights sum to one


@dataclass
class Verdict:
    status: str                               # ok | fail | wrong
    reason: str = ""
    work: dict = field(default_factory=dict)  # surface points, path-steps


class _Wrong(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise _Wrong(msg)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _load_json(path: Path):
    _require(path.is_file(), f"missing {path.name}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise _Wrong(f"{path.name}: {exc}") from exc


def _rows(path: Path) -> tuple[list, list]:
    _require(path.is_file(), f"missing {path.name}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        try:
            rows = [[float(v) for v in row] for row in reader if row]
        except ValueError as exc:
            raise _Wrong(f"{path.name}: {exc}") from exc
    return header, rows


def _linspace(lo: float, hi: float, n: int) -> list:
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _check_envelope(out: Path, scenario: dict, expect: dict) -> dict:
    table = _load_json(out / "envelope.json")
    _require(len(table.get("pieces", [])) >= 1, "envelope has no pieces")
    header, rows = _rows(out / "envelope_curve.csv")
    _require(header == ["x", "U", "U_envelope"], f"bad curve header {header}")
    _require(len(rows) >= 2, "envelope curve is empty")
    for x, u, env in rows:
        _require(math.isfinite(x) and math.isfinite(env),
                 f"non-finite envelope at x={x}")
        _require(not math.isnan(u), f"NaN utility at x={x}")
        tol = ENVELOPE_RTOL * max(1.0, abs(u) if math.isfinite(u) else 1.0)
        _require(env >= u - tol, f"envelope {env} below utility {u} at x={x}")
    return {}


def _check_solve(out: Path, scenario: dict, expect: dict) -> dict:
    dual = _load_json(out / "dual.json")
    y, resid, x0 = dual.get("y_star"), dual.get("budget_residual"), dual.get("x0")
    _require(_finite(y) and y > 0.0, f"bad multiplier {y}")
    _require(_finite(x0) and abs(x0 - scenario["x0"]) <= 1e-12 * max(1.0, abs(x0)),
             f"x0 {x0} differs from the scenario's {scenario['x0']}")
    tol = BUDGET_RTOL * max(1.0, abs(x0))
    _require(_finite(resid) and abs(resid) <= tol,
             f"budget residual {resid} exceeds {tol:.3g}")
    return {}


def _check_surface(out: Path, scenario: dict, expect: dict) -> dict:
    header, rows = _rows(out / "surface.csv")
    _require(header[:4] == ["t", "x", "xi", "percentage"], f"bad header {header}")
    grid = scenario["grids"]["wealth"]
    axis = _linspace(float(grid["lo"]), float(grid["hi"]), int(grid["n"]))
    t_grid = scenario["grids"]["t"]
    _require(len(rows) == len(t_grid) * len(axis),
             f"{len(rows)} rows, expected {len(t_grid) * len(axis)}")
    saturated = 0
    for i, row in enumerate(rows):
        t, x, xi, pct = row[:4]
        x_req = axis[i % len(axis)]
        _require(t == t_grid[i // len(axis)], f"row {i}: t={t} out of order")
        if x_req <= 0.0:
            continue
        _require(math.isfinite(x) and math.isfinite(pct) and xi > 0.0,
                 f"row {i}: non-finite output {row[:4]}")
        if xi >= XI_CAP * (1.0 - 1e-12):
            saturated += 1
        else:
            tol = ROUND_TRIP_RTOL * max(1.0, abs(x_req))
            _require(abs(x - x_req) <= tol,
                     f"row {i}: wealth {x} at the inverted state price, "
                     f"asked for {x_req}")
        terms = row[4:8]
        if not any(math.isnan(v) for v in terms):
            scale = max(1.0, abs(pct), *(abs(v) for v in terms))
            _require(abs(sum(terms) - pct) <= SPLIT_RTOL * scale,
                     f"row {i}: split {terms} does not add up to {pct}")
    return {"surface_points": len(rows), "saturated": saturated}


def _check_decompose(out: Path, scenario: dict, expect: dict) -> dict:
    dec = _load_json(out / "decompose.json")
    total = dec["wealth"]["total"]
    x = expect["x"]
    _require(_finite(total) and abs(total - x) <= ROUND_TRIP_RTOL * max(1.0, abs(x)),
             f"wealth {total} at the inverted state price, asked for {x}")
    weights = dec["weights"]["p"] + dec["weights"]["q"]
    _require(all(_finite(w) for w in weights), "non-finite weight")
    _require(abs(sum(weights) - 1.0) <= WEIGHT_TOL,
             f"weights sum to {sum(weights)}")
    _require(all(_finite(v) for v in dec["portfolio"]["total"]),
             "non-finite portfolio")
    return {}


def _check_verify(out: Path, scenario: dict, expect: dict) -> dict:
    reports = _load_json(out / "verification.json")
    _require(isinstance(reports, list) and reports, "empty verification report")
    for rep in reports:
        _require(isinstance(rep.get("passed"), bool), f"report {rep.get('name')}")
        _require(not (isinstance(rep.get("computed"), float)
                      and math.isnan(rep["computed"])),
                 f"NaN in report {rep.get('name')}")
    return {"passed": all(rep["passed"] for rep in reports)}


_CHECKS = {"envelope": _check_envelope, "solve": _check_solve,
           "surface": _check_surface, "decompose": _check_decompose,
           "verify": _check_verify}
_ORACLES = ("verify",)


def check_command(command: str, returncode: int, out: Path, scenario: dict,
                  expect: dict) -> Verdict:
    """Verdict for one command from its exit code and its artifacts."""
    if returncode not in (0, 1) or (returncode == 1 and command not in _ORACLES):
        return Verdict("wrong", f"exit code {returncode}")
    try:
        work = _CHECKS[command](out, scenario, expect)
    except _Wrong as exc:
        return Verdict("wrong", str(exc))
    except (KeyError, TypeError, IndexError) as exc:
        return Verdict("wrong", f"malformed artifact: {exc!r}")
    if command in _ORACLES:
        if work["passed"] != (returncode == 0):
            return Verdict("wrong", f"exit code {returncode} but passed="
                                    f"{work['passed']}", work)
        if not work["passed"]:
            return Verdict("fail", "oracle reported FAIL", work)
    return Verdict("ok", "", work)
