"""The operator CLI: every subcommand runs and prints sensible output."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_cli_err(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_presets(capsys):
    code, out = run_cli(capsys, "presets")
    assert code == 0
    assert "cascade_lake_2s" in out
    assert "dgx_like" in out


def test_describe(capsys):
    code, out = run_cli(capsys, "describe")
    assert code == 0
    assert "HostTopology" in out


def test_describe_other_preset(capsys):
    code, out = run_cli(capsys, "--preset", "minimal", "describe")
    assert code == 0
    assert "minimal" in out


def test_ping(capsys):
    code, out = run_cli(capsys, "ping", "nic0", "dimm0-0", "--count", "3")
    assert code == 0
    assert "HOSTPING" in out
    assert "3 probes sent" in out


def test_ping_with_load(capsys):
    code, out = run_cli(capsys, "ping", "nic0", "dimm0-0", "--load")
    assert code == 0
    assert "HOSTPING" in out


def test_describe_tree(capsys):
    code, out = run_cli(capsys, "describe", "--tree")
    assert code == 0
    assert out.strip()


def test_trace(capsys):
    code, out = run_cli(capsys, "trace", "nic0", "dimm1-0")
    assert code == 0
    assert "HOSTTRACE" in out
    assert "hops" in out


@pytest.mark.parametrize("scenario", ["quickstart", "churn"])
def test_trace_scenario(capsys, tmp_path, scenario):
    out_path = tmp_path / f"trace-{scenario}.json"
    code, out = run_cli(capsys, "trace", scenario,
                        "--out", str(out_path), "--sim-seconds", "0.02")
    assert code == 0
    assert "ui.perfetto.dev" in out
    assert "categories:" in out
    # The written file is valid Perfetto/Chrome trace_event JSON with
    # spans from the required categories and at least one counter track.
    import json

    payload = json.loads(out_path.read_text())
    events = payload["traceEvents"]
    assert events
    span_cats = {e["cat"] for e in events if e["ph"] == "X"}
    assert {"engine", "solver", "arbiter", "monitor"} <= span_cats
    assert any(e["ph"] == "C" for e in events)


def test_trace_unknown_scenario(capsys):
    code, out, err = run_cli_err(capsys, "trace", "not-a-scenario")
    assert code == 2
    assert "neither" in err and "quickstart" in err


def test_perf(capsys):
    code, out = run_cli(capsys, "perf", "gpu0", "dimm0-0",
                        "--duration", "0.01")
    assert code == 0
    assert "HOSTPERF" in out
    assert "Gbps" in out


@pytest.mark.parametrize("failure", ["switch", "link-degrade", "link-down"])
def test_drill(capsys, failure):
    code, out = run_cli(capsys, "drill", "--failure", failure)
    assert code == 0
    assert "[injected]" in out
    assert "ANOMALOUS" in out


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["definitely-not-a-command"])


def test_unknown_preset_exits():
    with pytest.raises(SystemExit):
        main(["--preset", "bogus", "describe"])


def test_chaos_run(capsys):
    code, out = run_cli(capsys, "chaos", "run", "--seed", "3",
                        "--faults", "6", "--intents", "3")
    assert code == 0
    assert "PASSED" in out
    assert "seed=3" in out
    assert "re-placements" in out


def test_chaos_run_events_timeline(capsys):
    code, out = run_cli(capsys, "chaos", "run", "--seed", "1",
                        "--faults", "4", "--events")
    assert code == 0
    assert "inject" in out and "repair" in out


def test_chaos_run_rejects_bad_faults(capsys):
    code, out, err = run_cli_err(capsys, "chaos", "run", "--faults", "0")
    assert code == 2
    assert "--faults" in err


def test_chaos_run_rejects_bad_intents(capsys):
    code, out, err = run_cli_err(capsys, "chaos", "run", "--intents", "-1")
    assert code == 2
    assert "--intents" in err


def test_chaos_requires_subcommand():
    with pytest.raises(SystemExit):
        main(["chaos"])


def test_fleet_describe(capsys):
    code, out = run_cli(capsys, "fleet", "describe", "--hosts", "2")
    assert code == 0
    assert "Fleet of 2 hosts" in out
    assert "host00" in out and "host01" in out
    assert "FleetTelemetry" in out


def test_fleet_run_seeded_churn(capsys):
    code, out = run_cli(capsys, "fleet", "run", "--hosts", "2",
                        "--seed", "5", "--horizon", "0.05",
                        "--arrival-rate", "800")
    assert code == 0
    assert "seed=5" in out
    assert "admitted" in out
    assert "ClusterScheduler(policy=best-fit)" in out


def test_fleet_run_policy_and_probe_flags(capsys):
    code, out = run_cli(capsys, "fleet", "run", "--hosts", "2",
                        "--policy", "spread", "--max-attempts", "1",
                        "--horizon", "0.05", "--arrival-rate", "800")
    assert code == 0
    assert "policy=spread" in out


def test_fleet_rejects_bad_hosts(capsys):
    code, out, err = run_cli_err(capsys, "fleet", "run", "--hosts", "0")
    assert code == 2
    assert "--hosts" in err


@pytest.mark.parametrize("command", ["run", "replay", "describe"])
@pytest.mark.parametrize("attempts", ["0", "-3"])
def test_fleet_rejects_bad_max_attempts(capsys, command, attempts):
    code, out, err = run_cli_err(capsys, "fleet", command, "--hosts", "8",
                                 "--max-attempts", attempts)
    assert code == 2
    assert "--max-attempts" in err


def test_fleet_requires_subcommand():
    with pytest.raises(SystemExit):
        main(["fleet"])


def test_fleet_run_drain(capsys):
    code, out = run_cli(capsys, "fleet", "run", "--hosts", "2",
                        "--seed", "5", "--horizon", "0.05",
                        "--arrival-rate", "800", "--drain")
    assert code == 0
    assert "0 intents at end" in out or "intents at end" not in out


def test_fleet_replay_synthesized(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out = run_cli(capsys, "fleet", "replay", "--hosts", "2",
                        "--policy", "best_fit", "--tasks", "60",
                        "--tenants", "8", "--horizon", "1.0",
                        "--report", str(report_path))
    assert code == 0
    assert "ClusterTrace" in out
    assert "policy=best-fit" in out  # underscore alias resolved
    assert "SLO" in out
    import json
    payload = json.loads(report_path.read_text())
    assert payload["schema"] == "repro.cluster-replay/v2"
    assert payload["counts"]["submitted"] == 60


def test_fleet_replay_compare(capsys):
    code, out = run_cli(capsys, "fleet", "replay", "--hosts", "2",
                        "--tasks", "40", "--tenants", "8",
                        "--horizon", "1.0", "--compare")
    assert code == 0
    assert "policy comparison" in out
    assert "first-fit" in out and "best-fit" in out and "spread" in out


def test_fleet_replay_ingests_fixture(capsys):
    from .test_cluster_traces import FIXTURE
    code, out = run_cli(capsys, "fleet", "replay", "--hosts", "2",
                        "--trace", FIXTURE, "--time-scale", "0.05")
    assert code == 0
    assert "alibaba_batch_task_sample" in out
    assert "33 tasks" in out


def test_fleet_replay_missing_trace_file(capsys):
    code, out, err = run_cli_err(capsys, "fleet", "replay",
                                 "--trace", "/nonexistent/trace.csv")
    assert code == 2
    assert "trace" in err.lower()


def test_fleet_replay_with_faults(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out = run_cli(capsys, "fleet", "replay", "--hosts", "3",
                        "--tasks", "60", "--tenants", "8",
                        "--horizon", "1.0", "--faults", "3",
                        "--domains", "3", "--report", str(report_path))
    assert code == 0
    assert "fault schedule (seed=0): 3 events" in out
    assert "availability" in out
    import json
    payload = json.loads(report_path.read_text())
    assert payload["faults"]["schedule_events"] == 3
    assert 0.0 <= payload["availability"] <= 1.0


def test_fleet_replay_faults_need_two_hosts(capsys):
    code, out, err = run_cli_err(capsys, "fleet", "replay", "--hosts", "1",
                                 "--tasks", "10", "--faults", "2")
    assert code == 2
    assert "hosts" in err


def test_fleet_chaos(capsys, tmp_path):
    report_path = tmp_path / "outcome.json"
    code, out = run_cli(capsys, "fleet", "chaos", "--hosts", "4",
                        "--seed", "1", "--fault-rate", "20",
                        "--horizon", "0.2", "--domains", "2",
                        "--report", str(report_path))
    assert code == 0
    assert "fleet chaos (seed=1, hosts=4, clock=event): PASS" in out
    assert "oracle:" in out
    import json
    payload = json.loads(report_path.read_text())
    assert payload["passed"] is True
    assert payload["violations"] == []


def test_fleet_chaos_lockstep(capsys):
    code, out = run_cli(capsys, "fleet", "chaos", "--hosts", "4",
                        "--seed", "1", "--fault-rate", "20",
                        "--horizon", "0.2", "--clock", "lockstep")
    assert code == 0
    assert "clock=lockstep): PASS" in out


def test_fleet_chaos_rejects_bad_args(capsys):
    code, _out, err = run_cli_err(capsys, "fleet", "chaos",
                                  "--fault-rate", "0")
    assert code == 2 and "fault-rate" in err
    code, _out, err = run_cli_err(capsys, "fleet", "chaos",
                                  "--horizon", "-1")
    assert code == 2 and "horizon" in err
    code, _out, err = run_cli_err(capsys, "fleet", "chaos",
                                  "--hosts", "1")
    assert code == 2 and "hosts" in err
