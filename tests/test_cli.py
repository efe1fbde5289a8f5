import json

import numpy as np
import pytest

from qworlds import qmat
from qworlds.cli import (
    EXIT_BAD_PARAMS,
    EXIT_FLAGS_FAILED,
    EXIT_UNWRITABLE,
    InvalidParameterError,
    ScenarioRequest,
    main,
    run_scenario,
)


def test_unknown_scenario_rejected():
    with pytest.raises(InvalidParameterError):
        run_scenario(ScenarioRequest(scenario="nope"))


def test_steer_report_contents():
    report = run_scenario(ScenarioRequest(scenario="steer", alpha=0.6, beta=0.8, seed=7))
    assert report.scenario == "steer"
    assert np.allclose(report.results["outcome_probabilities"], [0.25] * 4, atol=1e-10)
    assert np.allclose(report.results["conditional_fidelities"], [1.0] * 4, atol=1e-10)
    assert report.all_flags_pass()


def test_teleport_report_mean_fidelity():
    report = run_scenario(ScenarioRequest(scenario="teleport", seed=1, trials=100))
    assert abs(report.results["mean_fidelity"] - 1.0) < 1e-10
    assert report.all_flags_pass()


def test_constraints_dephased_reports_attack_detection():
    report = run_scenario(
        ScenarioRequest(scenario="constraints", world_kind="dephased", strength=1.0, seed=2)
    )
    attack = report.results["steering_attack"]
    assert attack["succeeds"] is False
    assert min(attack["acceptance_by_bit"]) < 1.0
    assert report.all_flags_pass()


def test_reports_are_byte_identical_for_identical_requests():
    req = dict(scenario="bitcommit", world_kind="dephased", strength=0.5, seed=11)
    a = run_scenario(ScenarioRequest(**req)).render()
    b = run_scenario(ScenarioRequest(**req)).render()
    assert a == b
    assert a.encode() == b.encode()


def test_main_writes_identical_files(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    argv = ["constraints", "--world", "quantum", "--seed", "3"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["scenario"] == "constraints"
    assert doc["version"]


def test_main_exit_codes(tmp_path):
    # usage error: unknown subcommand (argparse exits with 2)
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2

    # invalid parameters
    assert main(["steer", "--alpha", "0.9", "--beta", "0.9"]) == EXIT_BAD_PARAMS
    assert main(["constraints", "--world", "dephased", "--lambda", "1.7"]) == EXIT_BAD_PARAMS
    assert main(["teleport", "--trials", "0"]) == EXIT_BAD_PARAMS

    # unwritable output path
    missing_dir = tmp_path / "does" / "not" / "exist" / "r.json"
    assert main(["chsh", "--out", str(missing_dir)]) == EXIT_UNWRITABLE

    # failing expectation flags (steering collapses in the dephased world)
    assert main(["steer", "--world", "dephased", "--lambda", "1"]) == EXIT_FLAGS_FAILED


def test_tolerance_threading(monkeypatch, capsys):
    report = run_scenario(ScenarioRequest(scenario="chsh", tol=1e-7))
    assert report.params["tol"] == 1e-7
    assert qmat.tolerance() == qmat.DEFAULT_TOL  # restored after the run

    qmat.set_tolerance(1e-6)
    try:
        run_scenario(ScenarioRequest(scenario="chsh"))
        assert qmat.tolerance() == 1e-6  # the caller's value, not the default
    finally:
        qmat.set_tolerance(qmat.DEFAULT_TOL)

    monkeypatch.setenv("QWORLDS_TOL", "1e-8")
    assert main(["chsh"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["tol"] == 1e-8

    monkeypatch.setenv("QWORLDS_TOL", "not-a-number")
    assert main(["chsh"]) == EXIT_BAD_PARAMS


def test_every_scenario_passes_in_quantum_world():
    for scenario in ("steer", "teleport", "bitcommit", "constraints", "chsh", "broadcast"):
        report = run_scenario(ScenarioRequest(scenario=scenario, seed=4, trials=60))
        assert report.all_flags_pass(), (scenario, report.flags)
        report.render()  # must be JSON-serializable


def test_bitcommit_and_constraints_agree_at_the_report_edge(capsys):
    # at lambda = 1e-9 the attack acceptance sits between 1 - 1e-9 and 1 - 1e-10
    argv = ["--world", "dephased", "--lambda", "1e-9", "--seed", "0"]
    assert main(["bitcommit"] + argv) == 0
    bitcommit = json.loads(capsys.readouterr().out)["results"]
    assert main(["constraints"] + argv) == 0
    constraints = json.loads(capsys.readouterr().out)["results"]
    assert bitcommit["attack_succeeds"] is False
    assert constraints["steering_attack"]["succeeds"] is False
