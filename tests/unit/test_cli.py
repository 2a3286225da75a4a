"""Unit tests for the command-line interface."""

import re

import pytest

from repro.campaign import runner as runner_module
from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        arguments = build_parser().parse_args(["table1"])
        assert arguments.items == 4000
        assert arguments.stages == 4
        assert arguments.jobs == 1
        assert arguments.store is None
        arguments = build_parser().parse_args(["fig5", "--nodes", "10", "20"])
        assert arguments.nodes == [10, 20]
        assert arguments.seed == 7

    def test_fig5_seed_round_trips(self):
        arguments = build_parser().parse_args(["fig5", "--seed", "99"])
        assert arguments.seed == 99

    def test_runner_flags_round_trip(self):
        arguments = build_parser().parse_args(
            ["table1", "--jobs", "4", "--store", "/tmp/x.jsonl"]
        )
        assert arguments.jobs == 4
        assert arguments.store == "/tmp/x.jsonl"

    def test_campaign_run_round_trips(self):
        arguments = build_parser().parse_args(
            [
                "campaign", "run", "table1-sweep",
                "--jobs", "2", "--store", "s.jsonl",
                "--set", "items=10", "--grid", "stages=1,2",
                "--replications", "3", "--seed", "5", "--record-instants",
            ]
        )
        assert arguments.command == "campaign"
        assert arguments.campaign_command == "run"
        assert arguments.scenario == "table1-sweep"
        assert arguments.overrides == ["items=10"]
        assert arguments.grid == ["stages=1,2"]
        assert arguments.replications == 3
        assert arguments.seed == 5
        assert arguments.record_instants is True

    def test_campaign_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_campaign_dry_run_flag(self):
        arguments = build_parser().parse_args(["campaign", "run", "table1-sweep", "--dry-run"])
        assert arguments.dry_run is True
        assert build_parser().parse_args(["campaign", "run", "x"]).dry_run is False

    def test_dse_run_round_trips(self):
        arguments = build_parser().parse_args(
            [
                "dse", "run", "--problem", "chain", "--strategy", "annealing",
                "--budget", "64", "--seed", "9", "--items", "25",
                "--max-resources", "2", "--no-orders", "--set", "stages=3",
                "--store", "dse.jsonl", "--top", "5",
            ]
        )
        assert arguments.command == "dse"
        assert arguments.dse_command == "run"
        assert arguments.problem == "chain"
        assert arguments.strategy == "annealing"
        assert arguments.budget == 64
        assert arguments.seed == 9
        assert arguments.items == 25
        assert arguments.max_resources == 2
        assert arguments.no_orders is True
        assert arguments.loose_orders is False
        assert arguments.overrides == ["stages=3"]
        assert not hasattr(arguments, "jobs")
        assert arguments.store == "dse.jsonl"
        assert arguments.top == 5
        assert arguments.checkpoint is None
        assert arguments.resume is False
        assert arguments.rounds is None

    def test_dse_run_checkpoint_round_trips(self):
        arguments = build_parser().parse_args(
            [
                "dse", "run", "--strategy", "nsga2", "--store", "dse.jsonl",
                "--checkpoint", "dse.ck.jsonl", "--resume", "--rounds", "3",
            ]
        )
        assert arguments.strategy == "nsga2"
        assert arguments.checkpoint == "dse.ck.jsonl"
        assert arguments.resume is True
        assert arguments.rounds == 3

    def test_dse_front_round_trips(self):
        arguments = build_parser().parse_args(
            ["dse", "front", "--store", "dse.jsonl", "--problem", "didactic", "--top", "4"]
        )
        assert arguments.dse_command == "front"
        assert arguments.store == "dse.jsonl"
        assert arguments.problem == "didactic"
        assert arguments.top == 4

    def test_dse_front_requires_a_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dse", "front"])

    def test_dse_run_has_no_worker_pool(self):
        # The explorer scores its rounds in-process; only the campaign-backed
        # commands (table1, fig5, campaign run) take --jobs.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dse", "run", "--jobs", "2"])

    @pytest.mark.parametrize(
        "option",
        [["--backend", "numpy"], ["--backend", "python"], ["--evaluator", "steady"]],
        ids=["backend-numpy", "backend-python", "evaluator-steady"],
    )
    def test_dse_run_rejects_removed_options_with_exit_2(self, option, capsys):
        # The sweep is picked by the code, and "auto" is the one name of the
        # steady path: neither is a 'dse run' option any more.
        with pytest.raises(SystemExit) as exit_info:
            main(["dse", "run", "--budget", "4", *option])
        assert exit_info.value.code == 2
        capsys.readouterr()

    def test_dse_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dse", "run", "--strategy", "quantum"])

    def test_dse_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dse"])

    def test_describe_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["describe", "unknown"])


class TestCommands:
    def test_describe_didactic(self, capsys):
        assert main(["describe", "didactic"]) == 0
        output = capsys.readouterr().out
        assert "F1: while(1)" in output
        assert "static order on P1" in output

    def test_describe_lte(self, capsys):
        assert main(["describe", "lte"]) == 0
        assert "ChannelDecoding" in capsys.readouterr().out

    def test_table1_small(self, capsys):
        assert main(["table1", "--items", "40", "--stages", "1"]) == 0
        output = capsys.readouterr().out
        assert "identical" in output
        assert "Example 1" in output

    def test_fig5_small(self, capsys):
        assert main(["fig5", "--items", "30", "--x-size", "6", "--nodes", "50", "100"]) == 0
        output = capsys.readouterr().out
        assert "TDG nodes" in output

    def test_fig6_one_frame(self, capsys):
        assert main(["fig6", "--frames", "1"]) == 0
        output = capsys.readouterr().out
        assert "u(k) [us]" in output
        assert "DECODER GOPS" in output

    def test_lte_small(self, capsys):
        assert main(["lte", "--symbols", "28"]) == 0
        output = capsys.readouterr().out
        assert "identical" in output
        assert "event ratio 4.50" in output

    def test_describe_chain2(self, capsys):
        assert main(["describe", "chain2"]) == 0
        assert "F1_s1" in capsys.readouterr().out

    def test_dse_show_lte_reports_bank_and_eligibility(self, capsys):
        assert main(["dse", "show", "lte"]) == 0
        output = capsys.readouterr().out
        assert "bank composition: 2x dsp + 1x hardware + 2x processor" in output
        assert "eligibility:" in output
        assert "FrontEnd: DSP1, DSP2" in output
        assert "kind_utilization.dsp" in output

    def test_dse_run_header_reports_per_kind_bank(self, tmp_path, capsys):
        assert main(
            [
                "dse", "run", "--problem", "lte", "--strategy", "random",
                "--budget", "4", "--items", "6", "--seed", "3",
                "--store", str(tmp_path / "lte.jsonl"),
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "bank of 2x dsp + 1x hardware + 2x processor" in output
        assert "latency vs resources vs DSP util" in output

    def test_dse_front_refuses_disagreeing_banks(self, tmp_path, capsys):
        store = str(tmp_path / "mixed-bank.jsonl")
        base = [
            "dse", "run", "--problem", "lte", "--strategy", "random",
            "--budget", "3", "--items", "6", "--seed", "3", "--store", store,
        ]
        assert main(base) == 0
        assert main(base + ["--set", "dsps=1"]) == 0
        capsys.readouterr()
        assert main(["dse", "front", "--store", store]) == 2
        err = capsys.readouterr().err
        assert "different resource banks" in err
        assert "1x dsp" in err and "2x dsp" in err


class TestExitCodes:
    def _force_accuracy_loss(self, monkeypatch):
        original = runner_module.run_job

        def lossy(payload, registry=None):
            record = original(payload, registry)
            record["outputs_identical"] = False
            record["mismatching_outputs"] = 1
            return record

        monkeypatch.setattr(runner_module, "run_job", lossy)

    def test_table1_accuracy_loss_is_nonzero(self, monkeypatch, capsys):
        self._force_accuracy_loss(monkeypatch)
        assert main(["table1", "--items", "20", "--stages", "1"]) == 1
        assert "1 mismatches" in capsys.readouterr().out

    def test_fig5_accuracy_loss_is_nonzero(self, monkeypatch, capsys):
        self._force_accuracy_loss(monkeypatch)
        assert main(["fig5", "--items", "20", "--x-size", "6", "--nodes", "50"]) == 1
        assert "accuracy lost at 50 nodes" in capsys.readouterr().err

    def test_fig5_unreachable_node_count_is_skipped(self, capsys):
        assert main(["fig5", "--items", "20", "--x-size", "6", "--nodes", "2"]) == 0
        assert "skipping 2 nodes" in capsys.readouterr().err

    def test_campaign_run_unknown_scenario_is_nonzero(self, capsys):
        assert main(["campaign", "run", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_campaign_run_bad_override_is_nonzero(self, capsys):
        assert main(["campaign", "run", "table1-sweep", "--set", "items"]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err


class TestCampaignCommands:
    def test_campaign_list(self, capsys):
        assert main(["campaign", "list"]) == 0
        output = capsys.readouterr().out
        assert "table1-sweep" in output
        assert "stochastic-chain" in output

    def test_campaign_show(self, capsys):
        assert main(["campaign", "show", "fig5-sweep"]) == 0
        output = capsys.readouterr().out
        assert "scenario: fig5-sweep" in output
        assert "nodes in [50, 100, 200, 500, 1000]" in output
        assert "seed = 7" in output

    def test_campaign_run_small(self, capsys):
        exit_code = main(
            ["campaign", "run", "table1-sweep",
             "--set", "items=20", "--grid", "stages=1", "--per-job"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Example 1" in output
        assert "identical" in output
        assert "1 jobs, 0 cache hits, 1 simulated, 0 errors" in output

    def test_campaign_run_replications(self, capsys):
        exit_code = main(
            ["campaign", "run", "stochastic-chain",
             "--set", "items=15", "--set", "stages=1", "--replications", "2"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "runs" in output
        assert "2 jobs" in output

    def test_campaign_store_caches_across_invocations(self, tmp_path, capsys):
        store = str(tmp_path / "results.jsonl")
        argv = ["campaign", "run", "table1-sweep",
                "--set", "items=20", "--grid", "stages=1,2", "--store", store]
        assert main(argv) == 0
        assert "2 simulated" in capsys.readouterr().out
        assert main(argv) == 0
        assert "2 cache hits, 0 simulated" in capsys.readouterr().out

    def test_campaign_dry_run_lists_jobs_without_simulating(self, tmp_path, capsys):
        store = str(tmp_path / "results.jsonl")
        argv = ["campaign", "run", "table1-sweep",
                "--set", "items=20", "--grid", "stages=1,2", "--store", store]
        assert main(argv + ["--dry-run"]) == 0
        output = capsys.readouterr().out
        assert "dry-run table1-sweep: 2 jobs, 0 cached, 2 to simulate" in output
        assert '"stages": 1' in output
        # nothing was simulated: the store file was never created
        assert not (tmp_path / "results.jsonl").exists()
        # simulate for real, then the dry-run reports full cache coverage
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--dry-run"]) == 0
        assert "2 jobs, 2 cached, 0 to simulate" in capsys.readouterr().out

    def test_campaign_dry_run_unknown_scenario_is_nonzero(self, capsys):
        assert main(["campaign", "run", "no-such", "--dry-run"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestDseCommands:
    def test_dse_show_lists_problems(self, capsys):
        assert main(["dse", "show"]) == 0
        output = capsys.readouterr().out
        assert "didactic" in output
        assert "chain" in output

    def test_dse_show_problem_details(self, capsys):
        assert main(["dse", "show", "didactic"]) == 0
        output = capsys.readouterr().out
        assert "functions: F1, F2, F3, F4" in output
        assert "space size: 315 candidates" in output
        assert "default candidate:" in output

    def test_dse_show_respects_constraints(self, capsys):
        assert main(["dse", "show", "didactic", "--max-resources", "1", "--no-orders"]) == 0
        output = capsys.readouterr().out
        assert "space size: 1 candidates" in output

    def test_dse_show_unknown_problem_is_nonzero(self, capsys):
        assert main(["dse", "show", "nope"]) == 2
        assert "unknown design problem" in capsys.readouterr().err

    def test_dse_run_small_budget(self, capsys):
        argv = ["dse", "run", "--problem", "didactic", "--budget", "12",
                "--items", "6", "--seed", "3", "--top", "3"]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "Pareto front (latency vs resources):" in output
        assert "best latency:" in output
        assert "12 candidates" in output

    def test_dse_run_unknown_problem_is_nonzero(self, capsys):
        assert main(["dse", "run", "--problem", "nope", "--budget", "4"]) == 2
        assert "unknown design problem" in capsys.readouterr().err

    def test_dse_resume_without_checkpoint_is_nonzero(self, capsys):
        assert main(["dse", "run", "--budget", "4", "--resume"]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_dse_front_empty_store_is_nonzero(self, tmp_path, capsys):
        store = tmp_path / "empty.jsonl"
        store.write_text("")
        assert main(["dse", "front", "--store", str(store)]) == 1
        output = capsys.readouterr().out
        assert "0 dse-eval record(s)" in output

    def test_dse_front_rebuilds_a_front_from_a_run_store(self, tmp_path, capsys):
        store = str(tmp_path / "dse.jsonl")
        assert main(["dse", "run", "--problem", "didactic", "--budget", "12",
                     "--items", "6", "--seed", "3", "--store", store]) == 0
        capsys.readouterr()
        assert main(["dse", "front", "--store", store, "--top", "3"]) == 0
        output = capsys.readouterr().out
        assert "Pareto front (latency vs resources):" in output
        assert re.search(r"front size \d+, hypervolume", output)

    def test_dse_front_refuses_mixed_parameterisations(self, tmp_path, capsys):
        # latency under items=6 and items=12 is not comparable; one front over
        # both would silently mask the larger run.
        store = str(tmp_path / "dse.jsonl")
        for items in ("6", "12"):
            assert main(["dse", "run", "--problem", "didactic", "--budget", "8",
                         "--items", items, "--seed", "3", "--store", store]) == 0
        capsys.readouterr()
        assert main(["dse", "front", "--store", store]) == 2
        assert "parameterisations" in capsys.readouterr().err

    def test_dse_run_loose_orders_probes_infeasibility(self, capsys):
        # The strict=False escape hatch: unconstrained interleavings must
        # reach infeasible candidates again (strict sampling never does).
        argv = ["dse", "run", "--problem", "didactic", "--budget", "40",
                "--items", "4", "--seed", "3", "--loose-orders"]
        assert main(argv) == 0
        output = capsys.readouterr().out
        infeasible = int(re.search(r"(\d+) infeasible", output).group(1))
        assert infeasible > 0

    def test_dse_run_steady_front_matches_replay(self, tmp_path, capsys):
        base = ["dse", "run", "--problem", "didactic-periodic", "--budget", "16",
                "--items", "8", "--seed", "3"]
        summaries = {}
        # "auto" extrapolates every certified candidate: its records say "steady".
        for mode, recorded in (("replay", "replay"), ("auto", "steady")):
            store = str(tmp_path / f"{mode}.jsonl")
            assert main(base + ["--store", store, "--evaluator", mode]) == 0
            run_out = capsys.readouterr().out
            assert f"evaluator {mode!r}" in run_out
            assert main(["dse", "front", "--store", store]) == 0
            front_out = capsys.readouterr().out
            assert f"evaluator mode(s): {recorded}" in front_out
            summaries[mode] = re.search(
                r"front size \d+, hypervolume [\d.]+", front_out
            ).group(0)
        assert summaries["auto"] == summaries["replay"]

    def test_dse_front_warns_on_mixed_evaluator_modes(self, tmp_path, capsys):
        store = str(tmp_path / "mixed.jsonl")
        for seed, mode in (("3", "replay"), ("4", "auto")):
            assert main(["dse", "run", "--problem", "didactic-periodic",
                         "--budget", "12", "--items", "6", "--seed", seed,
                         "--store", store, "--evaluator", mode]) == 0
        capsys.readouterr()
        assert main(["dse", "front", "--store", store]) == 0
        captured = capsys.readouterr()
        assert "evaluator mode(s): replay+steady" in captured.out
        assert "mixes evaluator modes" in captured.err

    def test_dse_show_reports_stored_evaluator_counts(self, tmp_path, capsys):
        store = str(tmp_path / "dse.jsonl")
        assert main(["dse", "run", "--problem", "didactic-periodic",
                     "--budget", "10", "--items", "6", "--seed", "3",
                     "--store", store, "--evaluator", "auto"]) == 0
        capsys.readouterr()
        assert main(["dse", "show", "didactic-periodic", "--store", store]) == 0
        output = capsys.readouterr().out
        assert f"stored records in {store}:" in output
        assert "steady" in output


class TestObsLedgerCommands:
    """The run ledger and the ``obs runs/trend/diff/regressions`` family."""

    DSE = ["dse", "run", "--problem", "didactic", "--budget", "12",
           "--items", "6", "--seed", "3"]

    def _run_dse(self, ledger, extra=()):
        return main(self.DSE + ["--ledger", ledger] + list(extra))

    def test_dse_run_announces_the_manifest(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.jsonl")
        assert self._run_dse(ledger) == 0
        assert "run manifest" in capsys.readouterr().out

    def test_no_ledger_suppresses_recording(self, tmp_path, capsys):
        assert main(self.DSE + ["--no-ledger"]) == 0
        assert "run manifest" not in capsys.readouterr().out

    def test_dse_run_defaults_to_env_ledger(self, tmp_path, capsys, monkeypatch):
        # The autouse fixture already points REPRO_LEDGER at a scratch path;
        # re-point it here to inspect the file it lands in.
        ledger = tmp_path / "env-ledger.jsonl"
        monkeypatch.setenv("REPRO_LEDGER", str(ledger))
        assert main(self.DSE) == 0
        capsys.readouterr()
        assert ledger.exists()

    def test_obs_runs_tabulates_the_ledger(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.jsonl")
        for _ in range(2):
            assert self._run_dse(ledger) == 0
        capsys.readouterr()
        assert main(["obs", "runs", "--ledger", ledger]) == 0
        output = capsys.readouterr().out
        assert "2 run(s)" in output
        assert "dse" in output and "didactic" in output

    def test_obs_runs_empty_ledger_is_nonzero(self, tmp_path, capsys):
        assert main(["obs", "runs", "--ledger", str(tmp_path / "none.jsonl")]) == 1
        assert "no runs recorded" in capsys.readouterr().err

    def test_obs_trend_renders_over_three_runs(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.jsonl")
        for _ in range(3):
            assert self._run_dse(ledger) == 0
        capsys.readouterr()
        assert main(["obs", "trend", "candidates_per_s", "--ledger", ledger]) == 0
        output = capsys.readouterr().out
        assert "candidates_per_s" in output
        assert "dse/didactic" in output
        row = [line for line in output.splitlines() if "dse/didactic" in line][0]
        assert re.search(r"\b3\b", row)  # three runs in the family

    def test_obs_trend_unknown_metric_is_nonzero(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.jsonl")
        assert self._run_dse(ledger) == 0
        capsys.readouterr()
        assert main(["obs", "trend", "no_such_metric", "--ledger", ledger]) == 1
        assert "recorded metrics" in capsys.readouterr().err

    def test_obs_diff_compares_two_runs(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.jsonl")
        for _ in range(2):
            assert self._run_dse(ledger) == 0
        capsys.readouterr()
        assert main(["obs", "diff", "-2", "-1", "--ledger", ledger]) == 0
        output = capsys.readouterr().out
        assert "metrics:" in output
        assert "telemetry counters:" in output
        assert "span totals" in output
        assert "candidates_per_s" in output

    def test_obs_diff_resolves_run_id_prefixes(self, tmp_path, capsys):
        from repro import telemetry

        ledger = str(tmp_path / "ledger.jsonl")
        for _ in range(2):
            assert self._run_dse(ledger) == 0
        first, second = telemetry.RunLedger(ledger).load()
        capsys.readouterr()
        argv = ["obs", "diff", first.run_id[:8], second.run_id[:8], "--ledger", ledger]
        assert main(argv) == 0
        assert first.run_id[:12] in capsys.readouterr().out

    def test_obs_diff_resolves_all_digit_run_id_prefixes(self, tmp_path, capsys):
        # Run ids are hex digests, so an 8-character prefix is all digits
        # about 2% of the time; it must not be read as a ledger index.
        from repro import telemetry

        ledger = telemetry.RunLedger(tmp_path / "ledger.jsonl")
        run_ids = ["12345678" + "a" * 56, "87654321" + "b" * 56, "1" + "c" * 63]
        for run_id in run_ids:
            manifest = telemetry.RunManifest.build("dse", "didactic")
            manifest.run_id = run_id
            ledger.append(manifest)
        path = str(ledger.path)
        capsys.readouterr()
        assert main(["obs", "diff", "12345678", "87654321", "--ledger", path]) == 0
        out = capsys.readouterr().out
        assert f"# diff {run_ids[0][:12]} " in out and f"-> {run_ids[1][:12]} " in out
        # In-range indexes stay indexes, even when a run id starts with them.
        assert main(["obs", "diff", "1", "-1", "--ledger", path]) == 0
        out = capsys.readouterr().out
        assert f"# diff {run_ids[1][:12]} " in out and f"-> {run_ids[2][:12]} " in out
        assert main(["obs", "diff", "0", "-3", "--ledger", path]) == 0
        assert f"# diff {run_ids[0][:12]} " in capsys.readouterr().out
        # Out of range and matching no run id: still an error.
        assert main(["obs", "diff", "7", "-1", "--ledger", path]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_obs_diff_unknown_run_is_an_error(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.jsonl")
        assert self._run_dse(ledger) == 0
        capsys.readouterr()
        assert main(["obs", "diff", "ffffffff", "-1", "--ledger", ledger]) == 2
        assert "no ledger run" in capsys.readouterr().err

    def test_obs_regressions_clean_on_identical_reruns(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.jsonl")
        for _ in range(3):
            assert self._run_dse(ledger) == 0
        capsys.readouterr()
        assert main(["obs", "regressions", "--ledger", ledger]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_obs_regressions_flags_injected_slowdown(self, tmp_path, capsys):
        from repro import telemetry

        ledger_path = tmp_path / "ledger.jsonl"
        ledger = str(ledger_path)
        for _ in range(3):
            assert self._run_dse(ledger) == 0
        store = telemetry.RunLedger(ledger_path)
        last = store.load()[-1]
        slow = telemetry.RunManifest.build(
            kind=last.kind,
            label=last.label,
            parameters=last.parameters,
            config=last.config,
            metrics=dict(
                last.metrics,
                candidates_per_s=last.metrics["candidates_per_s"] / 2.0,
                wall_time_s=last.metrics["wall_time_s"] * 2.0,
            ),
            budget=last.budget,
        )
        store.append(slow)
        capsys.readouterr()
        assert main(["obs", "regressions", "--ledger", ledger]) == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.err
        assert "regressed" in captured.out

    def test_campaign_run_appends_a_manifest(self, tmp_path, capsys):
        from repro import telemetry

        ledger_path = tmp_path / "ledger.jsonl"
        argv = ["campaign", "run", "table1-sweep", "--set", "items=40",
                "--grid", "stages=1", "--ledger", str(ledger_path)]
        assert main(argv) == 0
        assert "run manifest" in capsys.readouterr().out
        (manifest,) = telemetry.RunLedger(ledger_path).load()
        assert manifest.kind == "campaign"
        assert manifest.label == "table1-sweep"
        assert manifest.metric("jobs") == 1
        assert manifest.metric("wall_time_s") > 0
        assert manifest.telemetry["counters"]["campaign.jobs"] == 1
        assert not telemetry.enabled()

    def _seed_family(self, ledger, values, label="didactic"):
        from repro import telemetry

        store = telemetry.RunLedger(ledger)
        for value in values:
            store.append(
                telemetry.RunManifest.build(
                    kind="dse",
                    label=label,
                    parameters={"items": 6},
                    config={"strategy": "random"},
                    metrics={"candidates_per_s": value},
                    wall_time_s=1.0,
                )
            )
        return store

    def test_obs_trend_marks_the_regression_onset(self, tmp_path, capsys):
        from repro import telemetry

        ledger = str(tmp_path / "ledger.jsonl")
        store = self._seed_family(ledger, [100.0] * 6 + [50.0, 52.0])
        onset = store.load()[6]
        assert main(["obs", "trend", "candidates_per_s", "--ledger", ledger]) == 0
        output = capsys.readouterr().out
        row = [line for line in output.splitlines() if "dse/didactic" in line][0]
        assert "regressed" in row
        assert "!" in row
        assert onset.run_id[:10] in row  # the 'since' column names the onset run
        assert "regression streak started" in output
        # A healthy family renders without any sentinel mark.
        healthy = str(tmp_path / "healthy.jsonl")
        self._seed_family(healthy, [100.0, 101.0, 100.0], label="chain")
        capsys.readouterr()
        assert main(["obs", "trend", "candidates_per_s", "--ledger", healthy]) == 0
        output = capsys.readouterr().out
        row = [line for line in output.splitlines() if "dse/chain" in line][0]
        assert "ok" in row and "!" not in row
        assert "regression streak started" not in output

    def test_obs_gc_dry_run_then_compacts(self, tmp_path, capsys):
        ledger_path = tmp_path / "ledger.jsonl"
        ledger = str(ledger_path)
        self._seed_family(ledger, [100.0] * 5, label="didactic")
        self._seed_family(ledger, [50.0] * 2, label="chain")
        assert main(["obs", "gc", "--ledger", ledger, "--keep", "2", "--dry-run"]) == 0
        output = capsys.readouterr().out
        assert "would keep 4 of 7" in output
        assert "dry run: the ledger was not modified" in output
        assert len(ledger_path.read_text().strip().splitlines()) == 7
        assert main(["obs", "gc", "--ledger", ledger, "--keep", "2"]) == 0
        output = capsys.readouterr().out
        assert "kept 4 of 7" in output
        assert "dse/didactic" in output and "dse/chain" in output
        assert len(ledger_path.read_text().strip().splitlines()) == 4
        # The compacted ledger still reads normally.
        assert main(["obs", "runs", "--ledger", ledger]) == 0
        assert "4 run(s)" in capsys.readouterr().out

    def test_obs_gc_empty_ledger_is_nonzero(self, tmp_path, capsys):
        assert main(["obs", "gc", "--ledger", str(tmp_path / "none.jsonl")]) == 1
        assert "no runs recorded" in capsys.readouterr().err
