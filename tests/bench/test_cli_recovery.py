"""CLI crash-safety surface: ``--checkpoint``, the auto-resume idiom,
``repro resume``, the interrupted ledger status and exit code 130."""

from __future__ import annotations

import glob
import os

import pytest

import repro.engine.executor as engine_executor
from repro.cli import main
from repro.engine.recovery.chaos import SigintAfter
from repro.engine.recovery.checkpoint import load_checkpoint
from repro.engine.telemetry import TELEMETRY_SUFFIX
from repro.obs.ledger import load_telemetry, scan_runs

SWEEP = ["sweep", "--rates", "0,8", "--trials", "2", "--n", "8"]


def arm_interrupt(mp, k):
    """Monkeypatch the CLI's run_plan so the k-th completion raises the
    chaos SIGINT — the only way to land a deterministic Ctrl-C through
    ``main()`` without a real signal race."""
    real = engine_executor.run_plan

    def interrupted(plan, **kwargs):
        kwargs["progress"] = SigintAfter(k, progress=kwargs.get("progress"))
        return real(plan, **kwargs)

    mp.setattr(engine_executor, "run_plan", interrupted)


class TestCheckpointFlag:
    def test_interrupt_then_rerun_is_byte_identical(self, tmp_path, capsys):
        reference = tmp_path / "reference.json"
        assert main(SWEEP + ["--output", str(reference)]) == 0
        out = tmp_path / "results.json"
        ckpt = str(tmp_path / "sweep.ckpt")
        with pytest.MonkeyPatch.context() as mp:
            arm_interrupt(mp, 1)
            rc = main(SWEEP + ["--output", str(out), "--checkpoint", ckpt])
        assert rc == 130
        err = capsys.readouterr().err
        assert f"checkpoint journal kept at {ckpt}" in err
        assert "interrupted" in err
        assert not out.exists()  # the document only writes on success
        assert load_checkpoint(ckpt).completed == {0}
        # The resume idiom: the *same command*, re-run.
        assert main(SWEEP + ["--output", str(out), "--checkpoint", ckpt]) == 0
        assert out.read_bytes() == reference.read_bytes()

    def test_bare_checkpoint_lands_beside_output(self, tmp_path):
        out = tmp_path / "results.json"
        assert main(SWEEP + ["--output", str(out), "--checkpoint"]) == 0
        sibling = tmp_path / "results.checkpoint.jsonl"
        assert sibling.exists()
        assert load_checkpoint(str(sibling)).completed == {0, 1, 2, 3}

    def test_bare_checkpoint_without_output_keys_by_plan_digest(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.MonkeyPatch.context() as mp:
            arm_interrupt(mp, 2)
            assert main(SWEEP + ["--checkpoint"]) == 130
        journals = glob.glob(
            str(tmp_path / ".repro" / "runs" / "checkpoint-*.jsonl")
        )
        assert len(journals) == 1
        assert load_checkpoint(journals[0]).completed == {0, 1}
        # Re-running the identical command finds the digest-keyed journal.
        assert main(SWEEP + ["--checkpoint"]) == 0
        assert load_checkpoint(journals[0]).completed == {0, 1, 2, 3}
        capsys.readouterr()


class TestInterruptedLedger:
    def test_interrupted_run_shows_in_runs_list(self, tmp_path, capsys):
        telemetry = tmp_path / f"sweep{TELEMETRY_SUFFIX}"
        with pytest.MonkeyPatch.context() as mp:
            arm_interrupt(mp, 1)
            rc = main(SWEEP + [
                "--telemetry", str(telemetry),
                "--checkpoint", str(tmp_path / "s.ckpt"),
            ])
        assert rc == 130
        manifest, _, summary = load_telemetry(str(telemetry))
        assert summary is None
        capsys.readouterr()
        assert main(["runs", "list", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "interrupted" in out
        assert manifest.run_id in out


class TestResumeCommand:
    def _interrupted_run(self, tmp_path, capsys):
        reference = tmp_path / "reference.json"
        assert main(SWEEP + ["--output", str(reference)]) == 0
        out = tmp_path / "results.json"
        telemetry = tmp_path / f"results{TELEMETRY_SUFFIX}"
        argv = SWEEP + [
            "--output", str(out),
            "--checkpoint", str(tmp_path / "results.ckpt"),
            "--telemetry", str(telemetry),
        ]
        with pytest.MonkeyPatch.context() as mp:
            arm_interrupt(mp, 1)
            assert main(argv) == 130
        capsys.readouterr()
        manifest, _, _ = load_telemetry(str(telemetry))
        return manifest, out, reference

    def test_resume_replays_the_recorded_argv(self, tmp_path, capsys):
        manifest, out, reference = self._interrupted_run(tmp_path, capsys)
        assert main([
            "resume", manifest.run_id, "--dir", str(tmp_path),
        ]) == 0
        err = capsys.readouterr().err
        assert f"resuming run {manifest.run_id}" in err
        assert out.read_bytes() == reference.read_bytes()
        # The replayed run's manifest records the resume provenance and
        # the ledger reports it as "resumed".
        replayed, _, summary = load_telemetry(
            str(tmp_path / f"results.resume1{TELEMETRY_SUFFIX}")
        )
        assert replayed.resumed_from == manifest.run_id
        assert summary is not None
        assert summary["resumed_trials"] == 1
        capsys.readouterr()
        assert main(["runs", "list", "--dir", str(tmp_path)]) == 0
        assert "resumed" in capsys.readouterr().out

    def test_resume_accepts_unique_run_id_prefix(self, tmp_path, capsys):
        manifest, out, reference = self._interrupted_run(tmp_path, capsys)
        assert main([
            "resume", manifest.run_id[:-2], "--dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        assert out.read_bytes() == reference.read_bytes()

    def test_resume_of_finished_run_is_idempotent(self, tmp_path, capsys):
        out = tmp_path / "done.json"
        telemetry = tmp_path / f"done{TELEMETRY_SUFFIX}"
        assert main(SWEEP + [
            "--output", str(out),
            "--checkpoint", str(tmp_path / "done.ckpt"),
            "--telemetry", str(telemetry),
        ]) == 0
        first = out.read_bytes()
        manifest, _, _ = load_telemetry(str(telemetry))
        capsys.readouterr()
        assert main([
            "resume", manifest.run_id, "--dir", str(tmp_path),
        ]) == 0
        err = capsys.readouterr().err
        assert "already finished" in err
        assert out.read_bytes() == first

    def test_resume_replays_a_yaml_experiment_run(self, tmp_path, capsys):
        experiment = tmp_path / "tiny.yaml"
        experiment.write_text(
            "name: tiny\ngrid: {churn_rate: [0.0, 8.0]}\n"
            "base: {n: 8, horizon: 60.0}\ntrials: 2\n"
        )
        out = tmp_path / "a.json"
        telemetry = tmp_path / f"a{TELEMETRY_SUFFIX}"
        assert main(["experiment", "run", str(experiment), "--telemetry",
                     str(telemetry), "--output", str(out)]) == 0
        first = out.read_bytes()
        manifest, _, _ = load_telemetry(str(telemetry))
        capsys.readouterr()
        assert main(["resume", str(telemetry)]) == 0
        assert f"resuming run {manifest.run_id}" in capsys.readouterr().err
        assert out.read_bytes() == first
        replayed, _, _ = load_telemetry(str(tmp_path / f"a.resume1{TELEMETRY_SUFFIX}"))
        assert replayed.resumed_from == manifest.run_id

    def test_an_interrupted_yaml_run_skips_its_journalled_trials(
        self, tmp_path, capsys
    ):
        experiment = tmp_path / "tiny.yaml"
        experiment.write_text(
            "name: tiny\ngrid: {churn_rate: [0.0, 8.0]}\n"
            "base: {n: 8, horizon: 60.0}\ntrials: 2\n"
        )
        reference = tmp_path / "reference.json"
        assert main(["experiment", "run", str(experiment),
                     "--output", str(reference)]) == 0
        out = tmp_path / "a.json"
        ckpt = str(tmp_path / "a.ckpt")
        telemetry = tmp_path / f"a{TELEMETRY_SUFFIX}"
        with pytest.MonkeyPatch.context() as mp:
            arm_interrupt(mp, 1)
            assert main(["experiment", "run", str(experiment),
                         "--output", str(out), "--checkpoint", ckpt,
                         "--telemetry", str(telemetry)]) == 130
        assert load_checkpoint(ckpt).completed == {0}
        assert not out.exists()
        capsys.readouterr()
        assert main(["resume", str(telemetry)]) == 0
        assert "every trial will re-execute" not in capsys.readouterr().err
        assert out.read_bytes() == reference.read_bytes()
        _, _, summary = load_telemetry(
            str(tmp_path / f"a.resume1{TELEMETRY_SUFFIX}")
        )
        assert summary["resumed_trials"] == 1
        assert load_checkpoint(ckpt).completed == {0, 1, 2, 3}

    def test_resume_keeps_the_interrupted_runs_telemetry(
        self, tmp_path, capsys
    ):
        manifest, out, reference = self._interrupted_run(tmp_path, capsys)
        old_stream = (tmp_path / f"results{TELEMETRY_SUFFIX}").read_bytes()
        assert main(["resume", manifest.run_id, "--dir", str(tmp_path)]) == 0
        assert out.read_bytes() == reference.read_bytes()
        assert (tmp_path / f"results{TELEMETRY_SUFFIX}").read_bytes() == old_stream
        capsys.readouterr()
        assert main(["runs", "show", manifest.run_id, "--dir", str(tmp_path)]) == 0
        assert manifest.run_id in capsys.readouterr().out
        resumed = [
            entry["manifest"] for entry in scan_runs(str(tmp_path))
            if entry["manifest"].run_id != manifest.run_id
        ]
        assert [run.resumed_from for run in resumed] == [manifest.run_id]

    def test_resume_without_telemetry_argv_fails_cleanly(
        self, tmp_path, capsys
    ):
        with pytest.raises(SystemExit, match="no run matching"):
            main(["resume", "does-not-exist", "--dir", str(tmp_path)])
