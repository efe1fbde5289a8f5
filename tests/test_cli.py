import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import qworlds
from qworlds import cli, qmat
from qworlds.cli import (
    EXIT_BAD_PARAMS,
    EXIT_FLAGS_FAILED,
    EXIT_NUMERICAL,
    EXIT_UNWRITABLE,
    InvalidParameterError,
    NumericalBreakdownError,
    ScenarioRequest,
    main,
    run_scenario,
)
from qworlds.entangle import SteeringExampleConfig
from qworlds.protocols import REPORT_EDGE

from tests.scoping import scoped_tolerance


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
    for strength in (1.7, float("nan")):
        with pytest.raises(InvalidParameterError, match="lambda"):
            run_scenario(ScenarioRequest(scenario="constraints", world_kind="dephased", strength=strength))
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
    with scoped_tolerance(1e-5):
        run_scenario(ScenarioRequest(scenario="chsh"))
        assert qmat.tolerance() == 1e-5  # a caller's scoped value too

    monkeypatch.setenv("QWORLDS_TOL", "1e-8")
    assert main(["chsh"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"]["tol"] == 1e-8

    monkeypatch.setenv("QWORLDS_TOL", "not-a-number")
    assert main(["chsh"]) == EXIT_BAD_PARAMS


def test_process_tolerance_reaches_worker_threads_and_a_run_keeps_its_own(monkeypatch):
    seen = {}
    qmat.set_tolerance(1e-6)
    try:
        worker = threading.Thread(target=lambda: seen.update(worker=qmat.tolerance()))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert seen["worker"] == 1e-6  # a thread started after set_tolerance reads it
    finally:
        qmat.set_tolerance(qmat.DEFAULT_TOL)

    chsh = cli._SCENARIOS["chsh"]

    def recording(req, world):
        seen["run"] = qmat.tolerance()
        return chsh.run(req, world)

    monkeypatch.setitem(cli._SCENARIOS, "chsh", dataclasses.replace(chsh, run=recording))
    assert run_scenario(ScenarioRequest(scenario="chsh", tol=1e-7)).all_flags_pass()
    assert seen["run"] == 1e-7  # the run checks at its request's τ
    assert qmat.tolerance() == qmat.DEFAULT_TOL  # which its caller does not see once it returns


def test_concurrent_runs_at_two_tolerances_leave_the_process_tolerance_alone():
    tols = (1e-4, 1e-9)
    requests = {
        tol: [ScenarioRequest(scenario, "dephased", 0.5, tol=tol) for scenario in ("constraints", "bitcommit")]
        for tol in tols
    }
    serial = {tol: [run_scenario(req).render() for req in reqs] for tol, reqs in requests.items()}
    before = qmat.tolerance()

    def run(tol, rendered):
        rendered[tol] = [run_scenario(req).render() for req in requests[tol]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the runs
    try:
        for _ in range(30):
            rendered = {}
            threads = [threading.Thread(target=run, args=(tol, rendered)) for tol in tols]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert qmat.tolerance() == before
            assert rendered == serial  # each run's report is the serial one at its τ
    finally:
        sys.setswitchinterval(interval)


def test_every_scenario_passes_in_quantum_world():
    for scenario in cli.SCENARIOS:
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


def test_numerical_breakdown_has_its_own_exit_code(capsys):
    # roundoff trips the trace-preservation check at tol 1e-15: not bad input
    assert main(["constraints", "--tol", "1e-15"]) == EXIT_NUMERICAL
    assert "1e-15" in capsys.readouterr().err
    with pytest.raises(NumericalBreakdownError):
        run_scenario(ScenarioRequest(scenario="constraints", tol=1e-15))
    assert qmat.tolerance() == qmat.DEFAULT_TOL  # restored after the failed run

    # a negative seed is rejected up front, before numpy sees it
    assert main(["teleport", "--seed", "-1"]) == EXIT_BAD_PARAMS
    with pytest.raises(InvalidParameterError):
        run_scenario(ScenarioRequest(scenario="bitcommit", seed=-1))


def test_tolerance_below_machine_epsilon_is_bad_input(monkeypatch, capsys):
    # at 1e-16 the library's own unit-norm states fail their checks: bad input, not breakdown
    assert main(["steer", "--tol", "1e-16"]) == EXIT_BAD_PARAMS
    assert "machine epsilon" in capsys.readouterr().err
    with pytest.raises(InvalidParameterError):
        run_scenario(ScenarioRequest(scenario="steer", tol=1e-16))
    assert qmat.tolerance() == qmat.DEFAULT_TOL
    assert main(["steer", "--tol", "5e-16"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("QWORLDS_TOL", "1e-16")
    assert main(["steer"]) == EXIT_BAD_PARAMS


def test_steer_amplitudes_are_judged_at_the_requested_tolerance(capsys):
    # |alpha^2 + beta^2 - 1| = 1.6e-5: inside --tol 1e-3, so the run goes ahead
    # (its fidelity flags then fail, since each fidelity is 1 + 1.6e-5)
    assert main(["steer", "--alpha", "0.6", "--beta", "0.80001", "--tol", "1e-3"]) == EXIT_FLAGS_FAILED
    capsys.readouterr()
    # a gap of 1.6e-10 passes the default 1e-9 but is bad input at --tol 1e-12
    assert main(["steer", "--alpha", "0.6", "--beta", "0.8000000001", "--tol", "1e-12"]) == EXIT_BAD_PARAMS
    assert "invalid parameter" in capsys.readouterr().err
    with pytest.raises(InvalidParameterError):
        run_scenario(ScenarioRequest(scenario="steer", beta=0.8000000001, tol=1e-12))
    assert qmat.tolerance() == qmat.DEFAULT_TOL  # restored after the rejected request


@pytest.mark.parametrize("amplitude", ["alpha", "beta"])
def test_nonfinite_steering_amplitudes_are_bad_input(amplitude, capsys):
    # |alpha^2 + beta^2 - 1| > tol is False for NaN, so finiteness is checked first
    for value in ("nan", "inf"):
        assert main(["steer", f"--{amplitude}", value]) == EXIT_BAD_PARAMS
        err = capsys.readouterr().err
        assert "invalid parameter" in err and f"{amplitude} must be finite, got {value}" in err
    with pytest.raises(InvalidParameterError, match=f"{amplitude} must be finite"):
        run_scenario(ScenarioRequest(scenario="steer", **{amplitude: float("nan")}))


def test_expectations_follow_the_closed_forms_in_lambda(capsys):
    # attack acceptance is 1 - lambda/2 and the singlet's |CHSH| is
    # 2*sqrt(2)*(1 - lambda/2) for every lambda, with no step at lambda = 0;
    # the classical world is the lambda = 1 end of the same family
    rng = np.random.default_rng(2024)
    lambdas = [0.0, 1.0, 1e-10, 1e-9] + [float(10.0**x) for x in rng.uniform(-300.0, 0.0, size=16)]
    # at lambda = 2 * REPORT_EDGE the attack verdict is decided by roundoff
    edge = 2.0 * REPORT_EDGE
    lambdas = [lam for lam in lambdas if abs(lam - edge) > 1e-3 * edge]
    worlds = [(["--world", "dephased", "--lambda", repr(lam)], lam) for lam in lambdas]
    worlds.append((["--world", "classical"], 1.0))
    tsirelson = 2.0 * np.sqrt(2.0)
    for world, lam in worlds:
        argv = world + ["--seed", "0"]
        docs = {}
        for scenario in ("bitcommit", "constraints", "chsh"):
            assert main([scenario] + argv) == 0, (scenario, world)
            docs[scenario] = json.loads(capsys.readouterr().out)["results"]
        expected = 1.0 - lam / 2.0
        assert abs(docs["bitcommit"]["min_attack_acceptance"] - expected) <= 1e-12, world
        assert abs(docs["constraints"]["steering_attack"]["min_acceptance"] - expected) <= 1e-12, world
        assert abs(docs["chsh"]["abs_score"] - tsirelson * expected) <= 1e-12, world


# the options each scenario reads beyond --world, --lambda, --seed, --tol and --out
_SCENARIO_OPTIONS = {"steer": ("alpha", "beta"), "teleport": ("trials",)}


@pytest.mark.parametrize("world, strength", [("quantum", 1.0), ("classical", 1.0), ("dephased", 0.5)])
@pytest.mark.parametrize("scenario", cli.SCENARIOS)
def test_params_name_exactly_the_options_the_scenario_reads(scenario, world, strength, capsys):
    report = run_scenario(ScenarioRequest(scenario=scenario, world_kind=world, strength=strength))
    expected = {"world", "tol", *_SCENARIO_OPTIONS.get(scenario, ())}
    if world == "dephased":
        expected.add("lambda")
    assert set(report.params) == expected
    assert report.params["world"] == world
    if world == "dephased":
        assert report.params["lambda"] == strength

    # another scenario's option is a usage error, not a silently ignored flag
    others = {f for fields in _SCENARIO_OPTIONS.values() for f in fields} - set(_SCENARIO_OPTIONS.get(scenario, ()))
    for field in sorted(others):
        with pytest.raises(SystemExit) as exc:
            main([scenario, "--world", world, "--lambda", str(strength), f"--{field}", "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --{field}" in capsys.readouterr().err


def test_readme_scenario_list_matches_the_cli():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("Scenarios and their `results` keys:\n\n", 1)[1].split("\n\n", 1)[0]
    usages = [usage.split() for usage in re.findall(r"^- `([^`]*)`", block, flags=re.M)]
    assert [usage[0] for usage in usages] == list(cli.SCENARIOS)
    for name, *options in usages:
        for field in cli._SCENARIOS[name].fields:
            assert f"--{field}" in options, (name, field)


STEER_WORLDS = (("quantum", 1.0), ("dephased", 0.3), ("classical", 1.0))
# (1, -0.0) comes right after (1, 0): an equal config, so it shares that entry
STEER_AMPLITUDES = ((0.6, 0.8), (0.8, 0.6), (1.0, 0.0), (-0.6, 0.8), (1.0, -0.0))


def test_steering_setup_is_built_once_per_amplitudes_and_tolerance(monkeypatch):
    builds = []
    build = cli.hjw_steering_measurement
    monkeypatch.setattr(cli, "hjw_steering_measurement", lambda *args: builds.append(args) or build(*args))
    qmat._KEPT.clear()

    def run_thirty(tol, alpha=0.6, beta=0.8):
        for k in range(30):
            world, strength = STEER_WORLDS[k % len(STEER_WORLDS)]
            run_scenario(ScenarioRequest("steer", world, strength, alpha=alpha, beta=beta, seed=k, tol=tol))

    run_thirty(1e-9)
    assert len(builds) == 1  # one measurement for every world and seed
    run_thirty(1e-4)
    assert len(builds) == 2  # a new tolerance builds once more
    run_thirty(1e-9)
    assert len(builds) == 3  # only the latest tolerance is kept
    run_thirty(1e-9, 0.8, 0.6)
    assert len(builds) == 4  # and only the latest amplitudes


@pytest.mark.parametrize("tol", [1e-9, 1e-4])
@pytest.mark.parametrize("world, strength", STEER_WORLDS)
def test_shared_steering_setup_gives_the_reports_of_a_fresh_one(world, strength, tol):
    for alpha, beta in STEER_AMPLITUDES:
        req = ScenarioRequest("steer", world, strength, alpha=alpha, beta=beta, seed=3, tol=tol)
        run_scenario(req)
        warm = run_scenario(req).render()
        qmat._KEPT.clear()
        cold = run_scenario(req).render()
        assert warm == cold, (alpha, beta)


def test_shared_steering_setup_matches_a_fresh_process():
    req = ScenarioRequest("steer", world_kind="dephased", strength=0.3, alpha=0.8, beta=0.6, seed=11)
    run_scenario(req)
    warm = run_scenario(req).render()
    src = str(Path(qworlds.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop(cli.TOL_ENV_VAR, None)
    args = ["steer", "--world", "dephased", "--lambda", "0.3", "--alpha", "0.8", "--beta", "0.6", "--seed", "11"]
    fresh = subprocess.run([sys.executable, "-m", "qworlds", *args], capture_output=True, text=True, env=env, timeout=120)
    assert fresh.returncode == EXIT_FLAGS_FAILED  # steering flags test the quantum outcome
    assert fresh.stdout == warm


def test_shared_steering_setup_is_read_only():
    setup = cli._steering_setup(SteeringExampleConfig(0.6, 0.8))
    target, measurement = setup
    assert cli._steering_setup(SteeringExampleConfig(0.6, 0.8)) is setup
    with pytest.raises(TypeError):
        setup[0] = target
    with pytest.raises(ValueError):
        target.members[0][...] = target.members[1]
    with pytest.raises(ValueError):
        target.probabilities[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        target.members = target.members[::-1]
    with pytest.raises(ValueError):
        measurement.effects[0][...] = measurement.effects[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        measurement.effects = measurement.effects[::-1]
    report = run_scenario(ScenarioRequest("steer", alpha=0.6, beta=0.8, tol=qmat.tolerance()))
    assert report.all_flags_pass()
