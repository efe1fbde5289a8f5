"""The golden verdict table: flags, exit status and numbers of a fixed set of `run_scenario` requests.

`tests/test_golden.py` recomputes the table and compares it with
`tests/golden_verdicts.json`. Regenerate that file, after a change that is
meant to move a verdict or a number, with

    PYTHONPATH=src python -m tests.golden

and say in CHANGES.md which entries moved and why.

Two parts:
- "reports": 6 scenarios × quantum, classical and dephased λ ∈ {0, 0.25,
  0.5, 1} × seeds {0, 1, 7, 12345} × τ ∈ {1e-9, 1e-4}, in that nesting
  order: the flags, the exit status and every number of the results;
- "tolerance_sweep": 6 scenarios × quantum, classical and dephased
  λ ∈ {0.5, 1} × τ = 1e-3 … 1e-15 at seed 1: the flags and the exit status.

Flags are one digit per flag (1 passes), in the order the table's
"flag_names" gives per scenario; a request that raises has none. Numbers are
rounded to 9 decimal places, with -0.0 written as 0.0, so a change in the
last bits of a witness does not move the table.
"""

from __future__ import annotations

import json
from pathlib import Path

from qworlds import cli

PATH = Path(__file__).with_name("golden_verdicts.json")
REPORT_WORLDS = (("quantum", 1.0), ("classical", 1.0)) + tuple(("dephased", s) for s in (0.0, 0.25, 0.5, 1.0))
REPORT_SEEDS = (0, 1, 7, 12345)
REPORT_TOLS = (1e-9, 1e-4)
SWEEP_WORLDS = (("quantum", 1.0), ("classical", 1.0), ("dephased", 0.5), ("dephased", 1.0))
SWEEP_TOLS = tuple(float(f"1e-{k}") for k in range(3, 16))
DIGITS = 9


def _numbers(value) -> list:
    """The numeric and boolean leaves of a report's results, in sorted-key order, rounded."""
    if isinstance(value, dict):
        return [x for key in sorted(value) for x in _numbers(value[key])]
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in _numbers(item)]
    if isinstance(value, (bool, int)):
        return [value]
    if isinstance(value, float):
        return [round(value, DIGITS) + 0.0]  # + 0.0 turns -0.0 into 0.0
    return []


def _run(scenario: str, world: str, strength: float, seed: int, tol: float, flag_names: dict):
    """Exit status, flags and result numbers of one request, as `cli.main` would exit on it.

    The flags are one digit each, in the order `flag_names[scenario]` records.
    """
    try:
        report = cli.run_scenario(cli.ScenarioRequest(scenario, world, strength, seed=seed, tol=tol))
    except cli.NumericalBreakdownError:
        return cli.EXIT_NUMERICAL, None, None
    status = 0 if report.all_flags_pass() else cli.EXIT_FLAGS_FAILED
    names = flag_names.setdefault(scenario, sorted(report.flags))
    return status, "".join(str(int(bool(report.flags[n]))) for n in names), _numbers(report.results)


def table() -> dict:
    flag_names, reports, sweep = {}, [], []
    for scenario in cli.SCENARIOS:
        for world, strength in REPORT_WORLDS:
            for seed in REPORT_SEEDS:
                for tol in REPORT_TOLS:
                    status, flags, numbers = _run(scenario, world, strength, seed, tol, flag_names)
                    reports.append([scenario, world, strength, seed, tol, status, flags, numbers])
    for scenario in cli.SCENARIOS:
        for world, strength in SWEEP_WORLDS:
            for tol in SWEEP_TOLS:
                status, flags, _ = _run(scenario, world, strength, 1, tol, flag_names)
                sweep.append([scenario, world, strength, tol, status, flags])
    return {"flag_names": flag_names, "reports": reports, "tolerance_sweep": sweep}


def render(data: dict) -> str:
    """One JSON line per request, so a moved entry shows as one changed line."""
    lines = [f'"flag_names": {json.dumps(data["flag_names"], sort_keys=True)}']
    for name in ("reports", "tolerance_sweep"):
        rows = data[name]
        body = ",\n".join("  " + json.dumps(row, sort_keys=True) for row in rows)
        lines.append(f'"{name}": [\n{body}\n]')
    return "{" + ",\n".join(lines) + "}\n"


if __name__ == "__main__":
    PATH.write_text(render(table()), encoding="utf-8")
    print(f"wrote {PATH}")
