"""Tests for the ``python -m repro`` command-line interface.

``$REPRO_ENGINE_STORE`` sets the pipeline commands' default store, so
the same tests also run against the sqlite store
(``REPRO_ENGINE_STORE=sqlite``).  A test that
resumes across invocations then needs a store that outlives the first
one: :func:`resumable` names a directory under the test's tmp path.
"""

import json
import os
import re
import shlex

import pytest

from repro.__main__ import main


def resumable(tmp_path) -> list[str]:
    """``--store`` arguments for a test that passes ``--checkpoint`` or
    ``--resume``.

    Empty by default (the classic loop's checkpoint files need no
    store).  When the environment selects a store, it is a sqlite
    directory under ``tmp_path``: a scratch one would vanish with the
    run whose delta segments point at it, so ``--checkpoint`` with the
    environment's scratch ``sqlite`` is a usage error.
    """
    if not os.environ.get("REPRO_ENGINE_STORE"):
        return []
    return ["--store", f"sqlite:{tmp_path / 'env-store'}"]


@pytest.fixture
def no_engine_env(monkeypatch):
    """The pipeline defaults without the environment: no store."""
    monkeypatch.delenv("REPRO_ENGINE_STORE", raising=False)


class TestVersion:
    def test_version_flag_prints_the_package_version(self, capsys):
        from repro.serve import package_version

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {package_version()}"


class TestList:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "delegation" in out
        assert "boost-kset" in out


class TestRefute:
    def test_refute_delegation(self, capsys):
        assert main(["refute", "delegation", "-n", "2", "-f", "0"]) == 0
        out = capsys.readouterr().out
        assert "refuted:   True" in out
        assert "claim4.1" in out

    def test_refute_last_writer(self, capsys):
        assert main(["refute", "last-writer"]) == 0
        out = capsys.readouterr().out
        assert "claim5.1b" in out

    def test_unknown_candidate_rejected(self):
        with pytest.raises(SystemExit):
            main(["refute", "nonsense"])

    def test_reports_exploration_and_elapsed(self, capsys):
        assert main(["refute", "delegation", "-n", "2", "-f", "0"]) == 0
        out = capsys.readouterr().out
        assert "Explored" in out and "states" in out and "transitions" in out

    def test_budget_exhaustion_exits_2(self, capsys):
        assert main(["refute", "delegation", "--max-states", "50"]) == 2
        out = capsys.readouterr().out
        assert "Exploration budget exhausted" in out
        assert "Explored 50 states" in out
        # The summary reports the pipeline's real wall time, not 0.000s.
        code = main(["refute", "delegation", "-n", "5", "--max-states", "3000"])
        assert code == 2
        out = capsys.readouterr().out
        match = re.search(
            r"^Explored 3000 states / \d+ transitions in ([0-9.]+)s$", out, re.M
        )
        assert match is not None, out
        assert float(match.group(1)) > 0

    def test_seed_flag_runs_deterministic_probe(self, capsys):
        assert main(["refute", "delegation", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["refute", "delegation", "--seed", "7"]) == 0
        second = capsys.readouterr().out
        probe_lines = [
            line for line in first.splitlines() if line.startswith("probe[")
        ]
        assert probe_lines and "seed=7" in probe_lines[0]
        assert probe_lines == [
            line for line in second.splitlines() if line.startswith("probe[")
        ]


class TestEngineFlags:
    def test_deadline_exhaustion_exits_2(self, capsys):
        assert main(["refute", "delegation", "--deadline", "1e-9"]) == 2
        out = capsys.readouterr().out
        assert "Exploration budget exhausted" in out
        assert "deadline" in out

    def test_exhausted_reduction_audit_exits_2(self, capsys, tmp_path):
        runs_dir = str(tmp_path / "runs")
        code = main(
            ["refute", "delegation", "-n", "4", "--reduction", "full",
             "--audit-reduction", "--max-states", "50", "--runs-dir", runs_dir]
        )
        assert code == 2
        assert "Exploration budget exhausted" in capsys.readouterr().out
        # The ledger records the run as exhausted, not interrupted.
        assert main(["runs", "list", "--json", "--runs-dir", runs_dir]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [record["status"] for record in records] == ["exhausted"]

    def test_exhausted_compare_reduction_exits_2(self, capsys):
        code = main(
            ["stats", "delegation", "-n", "4", "--compare-reduction",
             "--max-states", "50"]
        )
        assert code == 2
        assert "Exploration budget exhausted" in capsys.readouterr().out

    @pytest.mark.parametrize("store", [[], ["--store", "sqlite"]])
    def test_workers_flag_is_a_usage_error(
        self, capsys, tmp_path, no_engine_env, store
    ):
        """The worker pool and its ``--workers`` flag are gone: passing it,
        with or without a store, is an argparse usage error."""
        runs_dir = str(tmp_path / "runs")
        with pytest.raises(SystemExit) as excinfo:
            main(["refute", "delegation", "--workers", "2", *store,
                  "--runs-dir", runs_dir])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --workers 2" in err
        # Rejected before the run ledger opened: no false "interrupted" run.
        assert main(["runs", "list", "--json", "--runs-dir", runs_dir]) == 0
        assert json.loads(capsys.readouterr().out) == []

    @pytest.mark.parametrize("source", ["flag", "environment"])
    @pytest.mark.parametrize("option", ["--checkpoint", "--resume"])
    def test_checkpoint_with_scratch_store_is_a_usage_error(
        self, capsys, tmp_path, monkeypatch, no_engine_env, source, option
    ):
        """A scratch store is deleted when the run ends, so its delta
        segments could never resume: rejected before the ledger opens,
        whether the store comes from --store or $REPRO_ENGINE_STORE."""
        runs_dir = str(tmp_path / "runs")
        checkpoints = tmp_path / "ck"
        argv = ["refute", "delegation", "--max-states", "50",
                option, str(checkpoints), "--runs-dir", runs_dir]
        if source == "flag":
            argv += ["--store", "sqlite"]
        else:
            monkeypatch.setenv("REPRO_ENGINE_STORE", "sqlite")
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "--store sqlite is a scratch directory" in capsys.readouterr().err
        assert not checkpoints.exists()
        assert main(["runs", "list", "--json", "--runs-dir", runs_dir]) == 0
        assert json.loads(capsys.readouterr().out) == []

    @pytest.mark.parametrize(
        "uri", ["bogus:x", "mmap:/tmp/x", "sqlite:/x?shards=4", "memory"]
    )
    def test_bad_store_uri_is_a_usage_error(self, capsys, tmp_path, uri):
        runs_dir = str(tmp_path / "runs")
        with pytest.raises(SystemExit) as excinfo:
            main(["refute", "delegation", "--store", uri, "--runs-dir", runs_dir])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --store" in err
        assert "expected" in err
        # Rejected before the run ledger opened: no false "interrupted" run.
        assert main(["runs", "list", "--json", "--runs-dir", runs_dir]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_bad_store_environment_default_is_a_usage_error(
        self, capsys, monkeypatch
    ):
        for removed in ("mmap:/tmp/x", "memory"):
            monkeypatch.setenv("REPRO_ENGINE_STORE", removed)
            with pytest.raises(SystemExit) as excinfo:
                main(["refute", "delegation"])
            assert excinfo.value.code == 2
            assert "expected sqlite" in capsys.readouterr().err

    def test_interrupted_run_resumes_to_same_verdict(self, capsys, tmp_path):
        checkpoints = str(tmp_path / "ckpt")
        store = resumable(tmp_path)
        assert main(["refute", "delegation"]) == 0
        uninterrupted = capsys.readouterr().out
        # Interrupt: a states budget too small for the Lemma 4 chain.
        assert (
            main(
                [
                    "refute",
                    "delegation",
                    "--max-states",
                    "50",
                    "--checkpoint",
                    checkpoints,
                    *store,
                ]
            )
            == 2
        )
        interrupted = capsys.readouterr().out
        assert "checkpoint:" in interrupted
        # Resume with the full budget: same verdict as never interrupted.
        assert main(["refute", "delegation", "--resume", checkpoints, *store]) == 0
        resumed = capsys.readouterr().out
        strip = lambda out: [
            line
            for line in out.splitlines()
            if not line.startswith(("Explored", "Run id:"))
        ]
        assert strip(resumed) == strip(uninterrupted)

    def test_store_run_resume_recipe_runs_verbatim(self, capsys, tmp_path):
        """The exit-2 recipe of a store-backed run names its store, so
        running it as printed completes with the uninterrupted verdict;
        the ledger's resume artifacts name the store too."""
        runs_dir = str(tmp_path / "runs")
        assert main(["refute", "delegation", "--runs-dir", runs_dir]) == 0
        uninterrupted = capsys.readouterr().out
        checkpoint_run = [
            "refute", "delegation", "--max-states", "50",
            "--store", f"sqlite:{tmp_path / 'st'}",
            "--checkpoint", str(tmp_path / "ck"), "--runs-dir", runs_dir,
        ]
        assert main(checkpoint_run) == 2
        out = capsys.readouterr().out
        (resume_line,) = [line for line in out.splitlines() if line.startswith("Resume:")]
        recipe = re.search(r"\(CLI: (.*)\)$", resume_line).group(1)
        assert f"--store sqlite:{tmp_path / 'st'}" in recipe
        assert f"store='sqlite:{tmp_path / 'st'}'" in resume_line
        assert main(["runs", "list", "--json", "--runs-dir", runs_dir]) == 0
        (record,) = [
            r for r in json.loads(capsys.readouterr().out) if r["status"] == "exhausted"
        ]
        assert recipe in record["artifacts"]["resume"]
        assert main(["refute", "delegation", *shlex.split(recipe)]) == 0
        resumed = capsys.readouterr().out
        strip = lambda out: [
            line
            for line in out.splitlines()
            if not line.startswith(("Explored", "Run id:"))
        ]
        assert strip(resumed) == strip(uninterrupted)

    def test_opening_record_resume_names_the_store(self, capsys, tmp_path):
        runs_dir = str(tmp_path / "runs")
        store = f"sqlite:{tmp_path / 'st'}?flush=100"
        assert main(
            ["refute", "delegation", "-n", "2", "-f", "0", "--store", store,
             "--checkpoint", str(tmp_path / "ck"), "--runs-dir", runs_dir]
        ) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--json", "--runs-dir", runs_dir]) == 0
        (record,) = json.loads(capsys.readouterr().out)
        resume = record["artifacts"]["resume"]
        assert resume.endswith(f"--resume {tmp_path / 'ck'} --store {shlex.quote(store)}")
        assert shlex.split(resume)[-1] == store

    def test_unusable_resume_fails_without_traceback(
        self, capsys, tmp_path, no_engine_env
    ):
        """Delta segments need their store: resuming them without
        --store is a one-line error, exit 1, and a failed ledger run."""
        checkpoints = str(tmp_path / "ckpt")
        runs_dir = str(tmp_path / "runs")
        store = f"sqlite:{tmp_path / 'store'}"
        assert main(
            ["refute", "delegation", "--max-states", "50", "--store", store,
             "--checkpoint", checkpoints, "--runs-dir", runs_dir]
        ) == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["refute", "delegation", "--resume", checkpoints,
                  "--runs-dir", runs_dir])
        assert "delta-segment directory" in str(excinfo.value.code)
        assert "--store" in str(excinfo.value.code)
        capsys.readouterr()
        assert main(["runs", "list", "--json", "--runs-dir", runs_dir]) == 0
        records = json.loads(capsys.readouterr().out)
        failed = [record for record in records if record["status"] == "failed"]
        assert len(failed) == 1
        assert "delta-segment directory" in failed[0]["error"]


class TestJsonOutput:
    def test_json_document_replaces_narrative(self, capsys):
        import json

        assert main(["refute", "delegation", "--json"]) == 0
        out = capsys.readouterr().out
        document = json.loads(out)  # the whole stdout is one document
        assert document["candidate"] == {"name": "delegation", "n": 3, "f": 1}
        assert document["verdict"]["refuted"] is True
        assert document["verdict"]["mechanism"]
        assert document["verdict"]["lemma4"]["bivalent_index"] is not None
        assert document["engine"]["states"] > 0
        assert "refuted:" not in out  # narrative suppressed

    def test_json_budget_exhaustion_is_actionable(self, capsys, tmp_path):
        import json

        checkpoints = str(tmp_path / "ckpt")
        assert (
            main(
                [
                    "refute",
                    "delegation",
                    "--max-states",
                    "50",
                    "--checkpoint",
                    checkpoints,
                    "--json",
                    *resumable(tmp_path),
                ]
            )
            == 2
        )
        document = json.loads(capsys.readouterr().out)
        assert document["verdict"] is None
        assert document["error"]["error"] == "budget_exhausted"
        assert document["error"]["resource"] == "states"
        assert document["error"]["checkpoint"]
        assert "--resume" in document["error"]["resume_command"]

    def test_stats_json_includes_metrics(self, capsys):
        import json

        assert main(["stats", "delegation", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["metrics"]["counters"]["explore.states"] > 0

    def test_trace_json_reports_trace_file(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)
        assert main(["trace", "delegation", "-o", "t.jsonl", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["trace"]["path"] == "t.jsonl"
        assert document["trace"]["events"] > 0


class TestBudgetExhaustionPath:
    def test_exit_2_prints_checkpoint_and_resume_command(self, capsys, tmp_path):
        checkpoints = str(tmp_path / "ckpt")
        assert (
            main(
                [
                    "refute",
                    "delegation",
                    "--max-states",
                    "50",
                    "--checkpoint",
                    checkpoints,
                    *resumable(tmp_path),
                ]
            )
            == 2
        )
        out = capsys.readouterr().out
        assert "Checkpoint: " in out
        assert f"--resume {checkpoints}" in out


class TestTrace:
    def test_trace_writes_replayable_jsonl(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "delegation", "-o", "out.jsonl"]) == 0
        out = capsys.readouterr().out
        assert "events -> out.jsonl" in out
        from repro.obs.replay import load_events, split_runs

        events = load_events(tmp_path / "out.jsonl")
        assert events
        assert any(
            segment[0].data.get("op") == "run_silenced"
            for segment in split_runs(events)
        )

    def test_trace_default_output_name(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "last-writer"]) == 0
        assert (tmp_path / "last-writer-trace.jsonl").exists()


class TestStats:
    def test_stats_reports_nonzero_exploration(self, capsys):
        assert main(["stats", "delegation"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if "explore.states" in line:
                assert int(line.split()[-1]) > 0
                break
        else:
            raise AssertionError("explore.states missing from stats output")
        assert any(
            "explore.transitions" in line and int(line.split()[-1]) > 0
            for line in out.splitlines()
        )
        assert "pipeline.wall_seconds" in out


class TestObs:
    @pytest.fixture()
    def trace_path(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["trace", "last-writer", "-o", str(path)]) == 0
        capsys.readouterr()
        return str(path)

    def test_summarize_renders_span_table(self, capsys, trace_path):
        assert main(["obs", "summarize", trace_path]) == 0
        out = capsys.readouterr().out
        assert "engine.run" in out
        assert "p95_ms" in out

    def test_summarize_json(self, capsys, trace_path):
        import json

        assert main(["obs", "summarize", trace_path, "--json"]) == 0
        profile = json.loads(capsys.readouterr().out)
        assert profile["engine.run"]["count"] >= 1
        assert set(profile["engine.run"]["statuses"]) == {"ok"}

    def test_flame_writes_folded_stacks(self, capsys, tmp_path, trace_path):
        output = tmp_path / "stacks.folded"
        assert main(["obs", "flame", trace_path, "-o", str(output)]) == 0
        assert f"Wrote {output}" in capsys.readouterr().out
        lines = output.read_text().splitlines()
        assert lines
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert stack and int(count) >= 0

    def test_diff_against_itself_is_flat(self, capsys, trace_path):
        import json

        assert main(["obs", "diff", trace_path, trace_path, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows
        for row in rows:
            assert row["ratio"] == pytest.approx(1.0)

    def test_chrome_defaults_output_next_to_trace(self, capsys, trace_path):
        import json

        assert main(["obs", "chrome", trace_path]) == 0
        out = capsys.readouterr().out
        expected = f"{trace_path}.chrome.json"
        assert expected in out
        document = json.loads(open(expected, encoding="utf-8").read())
        assert any(event["ph"] == "X" for event in document["traceEvents"])

    def test_prom_from_trace(self, capsys, trace_path):
        assert main(["obs", "prom", trace_path]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_trace_events_span_start_total counter" in out

    def test_prom_from_stats_json_document(self, capsys, tmp_path):
        assert main(["stats", "last-writer", "--json"]) == 0
        document = capsys.readouterr().out
        path = tmp_path / "stats.json"
        path.write_text(document, encoding="utf-8")
        assert main(["obs", "prom", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro_explore_states_total" in out

    def test_prom_empty_input_exits_loudly(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(SystemExit):
            main(["obs", "prom", str(empty)])

    def test_refute_progress_flag_reports_on_stderr(self, capsys):
        assert main(["refute", "last-writer", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "states" in err


class TestConstructions:
    def test_boost_kset(self, capsys):
        assert main(["boost-kset", "-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "3 failures: ok=True" in out

    def test_boost_fd(self, capsys):
        assert main(["boost-fd", "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "2 failures: ok=True" in out

    def test_paxos(self, capsys):
        assert main(["paxos", "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "ok=True" in out


class TestSim:
    def test_sim_benign_exchange_exits_0(self, capsys):
        assert main(["sim", "exchange", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "exchange(n=2, f=0)" in out
        assert "-> ok" in out

    def test_sim_lossy_exchange_finds_violation_and_saves_script(
        self, capsys, tmp_path
    ):
        script = str(tmp_path / "run.json")
        code = main(
            ["sim", "exchange", "--faults", "drop=1", "--seed", "18",
             "--fault-rate", "0.4", "-o", script]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "VIOLATION modified-termination" in out
        assert "repro sim --replay" in out

    def test_sim_replay_round_trip(self, capsys, tmp_path):
        script = str(tmp_path / "run.json")
        main(
            ["sim", "exchange", "--faults", "drop=1", "--seed", "18",
             "--fault-rate", "0.4", "-o", script]
        )
        capsys.readouterr()
        assert main(["sim", "--replay", script]) == 0
        out = capsys.readouterr().out
        assert "Replay OK" in out

    def test_sim_replay_detects_tampering(self, capsys, tmp_path):
        import json

        script = str(tmp_path / "run.json")
        main(
            ["sim", "exchange", "--faults", "drop=1", "--seed", "18",
             "--fault-rate", "0.4", "-o", script]
        )
        capsys.readouterr()
        document = json.loads(open(script).read())
        document["actions"] = list(reversed(document["actions"]))
        open(script, "w").write(json.dumps(document))
        assert main(["sim", "--replay", script]) == 1
        assert "REPLAY MISMATCH" in capsys.readouterr().out

    def test_sim_json_output(self, capsys):
        import json

        assert main(["sim", "exchange", "--seed", "1", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["candidate"]["family"] == "exchange"
        assert document["violations"] == []

    def test_sim_requires_family_or_replay(self):
        with pytest.raises(SystemExit):
            main(["sim"])

    def test_sim_rejects_malformed_faults(self):
        with pytest.raises(SystemExit):
            main(["sim", "exchange", "--faults", "drop=lots"])
        with pytest.raises(SystemExit):
            main(["sim", "exchange", "--faults", "explode=1"])


class TestFuzz:
    def test_fuzz_expect_violation_finds_and_saves(self, capsys, tmp_path):
        script = str(tmp_path / "cex.json")
        code = main(
            ["fuzz", "--family", "exchange", "--faults", "drop=1",
             "--seed", "19", "--expect-violation", "-o", script]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "counterexample" in out
        assert "% shrunk" in out
        # the saved script replays bit-for-bit
        assert main(["sim", "--replay", script]) == 0
        assert "Replay OK" in capsys.readouterr().out

    def test_fuzz_expect_violation_fails_on_benign_candidate(self, capsys):
        code = main(
            ["fuzz", "--family", "exchange", "--seed", "3", "--runs", "4",
             "--campaigns", "1", "--expect-violation"]
        )
        assert code == 1
        assert "none found" in capsys.readouterr().err

    def test_fuzz_json_report(self, capsys):
        import json

        assert main(["fuzz", "--campaigns", "2", "--runs", "2", "--seed", "9",
                     "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["specs_tried"] >= 1
        assert "schedules_per_second" in document

    def test_fuzz_faults_requires_single_family(self):
        with pytest.raises(SystemExit):
            main(["fuzz", "--faults", "drop=1"])


class TestRuns:
    def _refute(self, capsys, runs_dir):
        assert main(["refute", "last-writer", "--runs-dir", runs_dir]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("Run id:"))
        return line.split()[-1]

    def test_refute_registers_run_and_show_reconstructs_it(
        self, capsys, tmp_path
    ):
        runs_dir = str(tmp_path / "runs")
        run_id = self._refute(capsys, runs_dir)
        assert run_id.startswith("refute-")
        assert main(["runs", "show", run_id, "--runs-dir", runs_dir]) == 0
        out = capsys.readouterr().out
        assert f"Run:      {run_id}" in out
        assert "Status:   completed" in out
        assert "Kind:     refute  last-writer(n=3,f=1)" in out
        assert "Verdict:" in out and '"refuted": true' in out
        assert "Counters:" in out and "explore.states" in out
        assert "Phases:" in out

    def test_show_accepts_unique_prefix(self, capsys, tmp_path):
        runs_dir = str(tmp_path / "runs")
        run_id = self._refute(capsys, runs_dir)
        assert main(["runs", "show", run_id[:14], "--runs-dir", runs_dir]) == 0
        assert run_id in capsys.readouterr().out

    def test_list_renders_and_filters_by_kind(self, capsys, tmp_path):
        runs_dir = str(tmp_path / "runs")
        run_id = self._refute(capsys, runs_dir)
        assert main(["runs", "list", "--runs-dir", runs_dir]) == 0
        out = capsys.readouterr().out
        assert run_id in out and "completed" in out
        assert main(
            ["runs", "list", "--runs-dir", runs_dir, "--kind", "sim"]
        ) == 0
        assert run_id not in capsys.readouterr().out

    def test_list_json(self, capsys, tmp_path):
        import json

        runs_dir = str(tmp_path / "runs")
        run_id = self._refute(capsys, runs_dir)
        assert main(["runs", "list", "--runs-dir", runs_dir, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["run_id"] for row in rows] == [run_id]
        assert rows[0]["status"] == "completed"

    def test_diff_between_two_runs(self, capsys, tmp_path):
        runs_dir = str(tmp_path / "runs")
        before = self._refute(capsys, runs_dir)
        after = self._refute(capsys, runs_dir)
        assert main(
            ["runs", "diff", before, after, "--runs-dir", runs_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "METRIC" in out and "RATIO" in out
        assert "explore.states" in out
        assert "1.00x" in out  # identical runs diff flat

    def test_tail_of_finished_run_exits_immediately(self, capsys, tmp_path):
        from repro.obs.ledger import RunLedger
        from repro.obs.progress import format_line

        runs_dir = str(tmp_path / "runs")
        run_id = self._refute(capsys, runs_dir)
        assert main(["runs", "tail", run_id, "--runs-dir", runs_dir]) == 0
        out = capsys.readouterr().out
        assert f"{run_id}: completed" in out
        # The heartbeat renders through the progress line's formatter,
        # over the same live numbers.
        heartbeat = RunLedger(runs_dir).read_heartbeat(run_id)
        live = {
            key: heartbeat[key]
            for key in ("states", "frontier", "elapsed")
        }
        assert f"{run_id}  completed    {format_line(live)}" in out

    def test_record_phases_match_its_counters(self, capsys, tmp_path):
        """A refutation runs several explorations; the terminal record's
        phases must cover all of them, like its counters do."""
        import json

        runs_dir = str(tmp_path / "runs")
        assert main(
            ["refute", "delegation", "-n", "4", "--runs-dir", runs_dir]
        ) == 0
        capsys.readouterr()
        assert main(["runs", "show", "refute-", "--runs-dir", runs_dir, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)["record"]
        assert record["counters"]["engine.runs"] > 1
        assert record["phases"]
        for name, seconds in record["phases"].items():
            assert seconds == record["counters"]["engine.phase." + name]

    def test_gc_compacts_and_reports(self, capsys, tmp_path):
        runs_dir = str(tmp_path / "runs")
        self._refute(capsys, runs_dir)
        self._refute(capsys, runs_dir)
        assert main(
            ["runs", "gc", "--runs-dir", runs_dir, "--keep", "1"]
        ) == 0
        assert "1 runs kept, 1 dropped" in capsys.readouterr().out

    def test_runs_dir_none_disables_the_ledger(self, capsys, tmp_path):
        assert main(["refute", "last-writer", "--runs-dir", "none"]) == 0
        assert "Run id:" not in capsys.readouterr().out
        with pytest.raises(SystemExit, match="disabled"):
            main(["runs", "list", "--runs-dir", "none"])

    def test_unknown_run_id_exits_loudly(self, tmp_path):
        runs_dir = str(tmp_path / "runs")
        with pytest.raises(SystemExit, match="no run"):
            main(["runs", "show", "missing", "--runs-dir", runs_dir])

    def test_json_refute_carries_run_id(self, capsys, tmp_path):
        import json

        runs_dir = str(tmp_path / "runs")
        assert main(
            ["refute", "last-writer", "--json", "--runs-dir", runs_dir]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["run_id"].startswith("refute-")

    def test_sim_and_fuzz_register_runs(self, capsys, tmp_path):
        runs_dir = str(tmp_path / "runs")
        assert main(
            ["sim", "exchange", "--seed", "3", "--runs-dir", runs_dir]
        ) == 0
        capsys.readouterr()
        assert main(
            ["fuzz", "--campaigns", "1", "--runs", "2", "--seed", "9",
             "--runs-dir", runs_dir]
        ) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--runs-dir", runs_dir, "--json"]) == 0
        import json

        rows = json.loads(capsys.readouterr().out)
        kinds = sorted(row["kind"] for row in rows)
        assert kinds == ["fuzz", "sim"]
        fuzz = next(row for row in rows if row["kind"] == "fuzz")
        assert fuzz["counters"]["sim.fuzz.schedules"] >= 1

    def test_trace_events_carry_run_id(self, capsys, tmp_path):
        import json

        runs_dir = str(tmp_path / "runs")
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["trace", "last-writer", "-o", str(trace),
             "--runs-dir", runs_dir]
        ) == 0
        out = capsys.readouterr().out
        run_id = next(
            l for l in out.splitlines() if l.startswith("Run id:")
        ).split()[-1]
        for line in trace.read_text().splitlines():
            assert json.loads(line)["run"] == run_id

    def test_prom_auto_labels_series_with_the_run(self, capsys, tmp_path):
        runs_dir = str(tmp_path / "runs")
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["trace", "last-writer", "-o", str(trace),
             "--runs-dir", runs_dir]
        ) == 0
        capsys.readouterr()
        assert main(["obs", "prom", str(trace)]) == 0
        out = capsys.readouterr().out
        assert 'run="trace-' in out
        # An explicit --label run=... wins over the derived one.
        assert main(
            ["obs", "prom", str(trace), "--label", "run=custom"]
        ) == 0
        out = capsys.readouterr().out
        assert 'run="custom"' in out
        assert 'run="trace-' not in out


class TestRunsCrashSafety:
    def test_sigkill_mid_run_derives_interrupted_with_resume(
        self, capsys, tmp_path
    ):
        """SIGKILL a store-backed run mid-flight; the ledger must
        derive ``interrupted`` (no terminal record) and still surface the
        resume command written into the opening record."""
        import os
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        runs_dir = tmp_path / "runs"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "refute", "tob",
             "--max-states", "400000",
             "--store", f"sqlite:{tmp_path / 'store'}",
             "--checkpoint", str(tmp_path / "ck"),
             "--runs-dir", str(runs_dir)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        try:
            heartbeats = runs_dir / "heartbeats"
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if heartbeats.is_dir() and list(heartbeats.glob("*.json")):
                    break
                assert child.poll() is None, (
                    "run finished before a heartbeat appeared"
                )
                time.sleep(0.1)
            else:
                pytest.fail("no heartbeat within 60s")
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()

        assert main(["runs", "list", "--runs-dir", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        assert "interrupted" in out
        run_id = next(
            line.split()[0]
            for line in out.splitlines()
            if line.startswith("refute-")
        )
        assert main(["runs", "show", run_id, "--runs-dir", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        assert "Status:   interrupted (derived: no terminal record)" in out
        assert "Resume:   repro refute tob" in out
        assert "--resume" in out
        # gc finalizes the interruption durably and drops the heartbeat
        assert main(["runs", "gc", "--runs-dir", str(runs_dir)]) == 0
        assert "1 finalized interrupted" in capsys.readouterr().out
