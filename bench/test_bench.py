"""Tests of the benchmark itself: verdict table, tracer, smoke runs and the result contract.

Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run  # puts this checkout's src/ on sys.path before qworlds is imported
import tracer as qtracer
import workloads

import qworlds
from qworlds import cli, entangle, protocols


def _report(scenario: str, world: str, strength: float = 0.5, **extra) -> dict:
    req = cli.ScenarioRequest(scenario=scenario, world_kind=world, strength=strength, seed=3, **extra)
    return json.loads(cli.run_scenario(req).render())


@pytest.mark.parametrize("world", workloads.WORLD_KINDS)
@pytest.mark.parametrize("scenario", workloads.GRID_SCENARIOS)
def test_verdict_accepts_real_reports(scenario, world):
    assert workloads.check_report(_report(scenario, world)) == []


@pytest.mark.parametrize("world, strength, quantum_like", [
    ("quantum", 0.5, True), ("dephased", 0.0, True), ("dephased", 0.4, False),
    ("dephased", 1.0, False), ("classical", 0.5, False),
])
def test_steer_and_teleport_pass_their_flags_only_in_quantum_like_worlds(world, strength, quantum_like):
    for scenario, extra in (("steer", {}), ("teleport", {"trials": 60})):
        doc = _report(scenario, world, strength, **extra)
        assert all(doc["flags"].values()) == quantum_like
        assert workloads.check_report(doc) == []


def test_verdict_rejects_a_flipped_flag():
    doc = _report("bitcommit", "quantum")
    doc["flags"]["concealing"] = False
    assert workloads.check_report(doc)

    doc = _report("steer", "classical")
    assert not all(doc["flags"].values())
    doc["flags"] = {k: True for k in doc["flags"]}
    assert workloads.check_report(doc)


def test_verdict_rejects_attack_acceptance_one_in_the_classical_world():
    doc = _report("bitcommit", "classical")
    doc["results"]["min_attack_acceptance"] = 1.0
    assert workloads.check_report(doc)

    assert workloads.check_commitment("classical", None, 1.0)
    assert workloads.check_commitment("dephased", 0.3, 1.0)
    assert not workloads.check_commitment("classical", None, 0.5)
    assert not workloads.check_commitment("quantum", None, 1.0)
    assert not workloads.check_commitment("dephased", 0.0, 1.0)
    assert workloads.check_signaling(1e-6)


def test_tracer_wraps_every_binding_and_restores_it():
    teleport, kron = entangle.teleport, np.kron
    with qtracer.Tracer() as tr:
        assert cli.teleport is entangle.teleport is qworlds.teleport
        assert cli.teleport is not teleport and cli.teleport.__wrapped__ is teleport
        assert protocols.hjw_steering_measurement is entangle.hjw_steering_measurement
        assert protocols.hjw_steering_measurement.__wrapped__ is not None
        for names in qtracer.GROUPS.values():
            assert set(names) <= tr.wrapped_names()
        cli.run_scenario(cli.ScenarioRequest("teleport", trials=5))
        assert tr.stats["entangle.teleport"][0] == 5
        assert tr.stats["numpy.kron"][0] >= 5 * 5
        assert tr.stats["entangle.BipartiteState.__post_init__"][0] >= 1
    assert entangle.teleport is teleport and cli.teleport is teleport and qworlds.teleport is teleport
    assert np.kron is kron


def test_self_times_add_up_to_the_traced_call():
    with qtracer.Tracer() as tr:
        cli.run_scenario(cli.ScenarioRequest("constraints", world_kind="dephased", strength=0.5))
    layers = sum(tr.layer_total(layer)[1] for layer in qtracer.LAYERS)
    assert layers + tr.bookkeeping_s == pytest.approx(tr.top_level_s, rel=1e-9)
    assert tr.density_calls > 0 and 0 < tr.density_repeats < tr.density_calls


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric_and_failed_frac(workload, capsys):
    cells = workloads.cell_count(workloads.BUILDERS[workload](5))
    line = run.main_untraced(workload, 5, 0.05, min_ops=cells, rounds=2)
    printed = capsys.readouterr().out
    assert "failed_frac" in printed and "report sha256" in printed
    res = json.loads(line)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= cells
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_keeps_the_digest_and_accounts_for_its_time(capsys):
    res = json.loads(run.main_traced("qudit-sweep", 5, 0.5))
    assert "traced passes equals the untraced ones" in capsys.readouterr().out
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == set(run.per_layer_units())
    assert res["metrics"]["trace.unaccounted_frac"]["value"] <= run.MAX_UNACCOUNTED
    assert res["metrics"]["entangle.teleport.calls"]["value"] == 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "qudit-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
