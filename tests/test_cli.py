import hashlib
import json

import pytest

from frameattn import cli
from frameattn.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main

TINY_SYNTH = ["synth", "--videos-per-class", "5", "--frames-min", "3",
              "--frames-max", "5", "--dim", "6", "--classes", "3",
              "--subjects", "10", "--seed", "3"]


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def run_rejected(capsys, *args):
    """Run a command that must be refused as a data/config problem: exit 2,
    one error line, nothing on stdout. Returns that line."""
    code = main(list(args))
    out, err = capsys.readouterr()
    assert code == EXIT_DATA
    assert out == "" and "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.fixture()
def tiny_data(tmp_path, capsys):
    path = str(tmp_path / "tiny.fanf")
    code, _ = run(capsys, *TINY_SYNTH, "--out", path)
    assert code == EXIT_OK
    return path


class TestSynthCommand:
    def test_writes_loadable_file(self, tmp_path, capsys):
        path = str(tmp_path / "d.fanf")
        code, out = run(capsys, *TINY_SYNTH, "--out", path)
        assert code == EXIT_OK
        summary = json.loads(out)
        assert summary["instances"] == 15 and summary["classes"] == 3
        from frameattn.data import load_feature_file
        assert len(load_feature_file(path).instances) == 15

    def test_same_seed_identical_bytes(self, tmp_path, capsys):
        p1, p2 = str(tmp_path / "a.fanf"), str(tmp_path / "b.fanf")
        assert run(capsys, *TINY_SYNTH, "--out", p1)[0] == EXIT_OK
        assert run(capsys, *TINY_SYNTH, "--out", p2)[0] == EXIT_OK
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        code, _ = run(capsys, "synth", "--classes", "20", "--dim", "4",
                      "--out", str(tmp_path / "x.fanf"))
        assert code == EXIT_DATA

    @pytest.mark.parametrize("flag,value", [("--signal", "nan"), ("--noise", "inf")])
    def test_non_finite_magnitude_names_the_field(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.fanf"
        err = run_rejected(capsys, "synth", flag, value, "--out", str(out))
        assert f"{flag[2:]} must be finite, got {value}" in err
        assert not out.exists()


class TestTrainCommand:
    def test_train_writes_checkpoint_and_history(self, tiny_data, tmp_path, capsys):
        ckpt = str(tmp_path / "m.fanp")
        hist = str(tmp_path / "h.csv")
        code, out = run(capsys, "train", "--data", tiny_data, "--out", ckpt,
                        "--history", hist, "--epochs", "3", "--batch-size", "8",
                        "--seed", "1")
        assert code == EXIT_OK
        summary = json.loads(out)
        assert summary["epochs"] == 3
        lines = open(hist).read().strip().split("\n")
        assert len(lines) == 4  # header + 3 epochs
        from frameattn.training import load_checkpoint
        params = load_checkpoint(ckpt)
        assert params.feature_dim == 6 and params.num_classes == 3

    def test_failed_history_write_keeps_previous_file(self, tiny_data, tmp_path,
                                                      capsys, monkeypatch):
        hist = tmp_path / "h.csv"
        hist.write_text("previous\n")

        def fail(history):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "history_lines", fail)
        code, _ = run(capsys, "train", "--data", tiny_data, "--history", str(hist),
                      "--out", str(tmp_path / "m.fanp"), "--epochs", "1", "--seed", "1")
        assert code == EXIT_DATA
        assert hist.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["h.csv", "m.fanp", "tiny.fanf"]

    def test_missing_data_no_partial_outputs(self, tmp_path, capsys):
        ckpt = tmp_path / "never.fanp"
        code, _ = run(capsys, "train", "--data", str(tmp_path / "absent.fanf"),
                      "--out", str(ckpt))
        assert code == EXIT_DATA
        assert not ckpt.exists()

    def test_self_only_mode_round_trips(self, tiny_data, tmp_path, capsys):
        ckpt = str(tmp_path / "so.fanp")
        code, _ = run(capsys, "train", "--data", tiny_data, "--out", ckpt,
                      "--mode", "self-only", "--epochs", "2", "--seed", "1")
        assert code == EXIT_OK
        code, out = run(capsys, "eval", "--checkpoint", ckpt, "--data", tiny_data)
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["mode"] == "self_only"
        assert 0.0 <= report["accuracy"] <= 1.0

    def test_does_not_mutate_inputs(self, tiny_data, tmp_path, capsys):
        before = hashlib.sha256(open(tiny_data, "rb").read()).hexdigest()
        run(capsys, "train", "--data", tiny_data,
            "--out", str(tmp_path / "m.fanp"), "--epochs", "1", "--seed", "1")
        after = hashlib.sha256(open(tiny_data, "rb").read()).hexdigest()
        assert before == after

    def test_deterministic_outputs(self, tiny_data, tmp_path, capsys):
        outs = []
        for name in ("r1", "r2"):
            ckpt = str(tmp_path / f"{name}.fanp")
            hist = str(tmp_path / f"{name}.csv")
            code, _ = run(capsys, "train", "--data", tiny_data, "--out", ckpt,
                          "--history", hist, "--epochs", "2", "--seed", "9")
            assert code == EXIT_OK
            outs.append((open(ckpt, "rb").read(), open(hist, "rb").read()))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("mode,sha256", [
        ("full", "92a874e9ceab5f22a5ff8b65459c856e81aef531f2ebe05f95c1dab216e0b863"),
        ("self-only", "8002f5b7f5bc5f176f6a567d5a51e956c745c6b36065af5aa6b24b65a444d88c"),
    ])
    def test_checkpoint_bytes_pinned(self, tiny_data, tmp_path, capsys, mode, sha256):
        # a slip in the update (a reordered sum, a decayed bias, a flipped
        # signed zero) changes these bytes; the pins were taken from the
        # per-block update this one replaced (x86-64, numpy 2.4, OpenBLAS)
        ckpt = str(tmp_path / "m.fanp")
        code, _ = run(capsys, "train", "--data", tiny_data, "--out", ckpt,
                      "--mode", mode, "--epochs", "4", "--batch-size", "4",
                      "--k", "2", "--weight-decay", "0.05", "--seed", "3")
        assert code == EXIT_OK
        assert hashlib.sha256(open(ckpt, "rb").read()).hexdigest() == sha256

    def test_published_presets_pin_epoch_counts(self, tiny_data, tmp_path, capsys):
        for preset, epochs in (("ck+", 60), ("afew", 180)):
            hist = str(tmp_path / f"{preset}.csv")
            code, out = run(capsys, "train", "--data", tiny_data,
                            "--out", str(tmp_path / f"{preset}.fanp"),
                            "--history", hist, "--preset", preset,
                            "--batch-size", "8", "--seed", "1")
            assert code == EXIT_OK
            assert json.loads(out)["epochs"] == epochs
            assert len(open(hist).read().strip().split("\n")) == epochs + 1

    def test_signal_zero_trains_to_chance(self, tmp_path, capsys):
        data = str(tmp_path / "nosig.fanf")
        code, _ = run(capsys, "synth", "--videos-per-class", "25",
                      "--frames-min", "3", "--frames-max", "4", "--dim", "6",
                      "--classes", "4", "--signal", "0", "--seed", "5",
                      "--out", data)
        assert code == EXIT_OK
        ckpt = str(tmp_path / "nosig.fanp")
        code, _ = run(capsys, "train", "--data", data, "--out", ckpt,
                      "--epochs", "4", "--seed", "5")
        assert code == EXIT_OK
        code, out = run(capsys, "eval", "--checkpoint", ckpt, "--data", data)
        assert code == EXIT_OK
        # no signal: nothing generalizable; even in-sample stays near 1/C
        assert json.loads(out)["accuracy"] < 0.5


    @pytest.mark.parametrize("command", ["train", "cv"])
    @pytest.mark.parametrize("flag,value", [
        ("--lr", "nan"), ("--lr", "inf"), ("--momentum", "nan"), ("--momentum", "inf"),
        ("--weight-decay", "nan")])
    def test_non_finite_setting_names_the_field(self, tiny_data, tmp_path, capsys,
                                                command, flag, value):
        field = {"--lr": "learning rate", "--momentum": "momentum",
                 "--weight-decay": "weight_decay"}[flag]
        ckpt = tmp_path / "m.fanp"
        extra = ["--out", str(ckpt)] if command == "train" else ["--folds", "2"]
        err = run_rejected(capsys, command, "--data", tiny_data, "--epochs", "1",
                           flag, value, *extra)
        assert f"{field} must be finite, got {value}" in err
        assert not ckpt.exists()


class TestEvalCommand:
    def test_dim_mismatch_exits_2(self, tiny_data, tmp_path, capsys):
        other = str(tmp_path / "other.fanf")
        run(capsys, "synth", "--videos-per-class", "3", "--dim", "4",
            "--classes", "3", "--frames-min", "3", "--frames-max", "3",
            "--subjects", "3", "--out", other)
        ckpt = str(tmp_path / "m.fanp")
        run(capsys, "train", "--data", tiny_data, "--out", ckpt,
            "--epochs", "1", "--seed", "1")
        code, _ = run(capsys, "eval", "--checkpoint", ckpt, "--data", other)
        assert code == EXIT_DATA

    def test_sampled_frames(self, tiny_data, tmp_path, capsys):
        ckpt = str(tmp_path / "m.fanp")
        run(capsys, "train", "--data", tiny_data, "--out", ckpt,
            "--epochs", "1", "--seed", "1")
        code, out = run(capsys, "eval", "--checkpoint", ckpt, "--data", tiny_data,
                        "--frames", "sampled", "--k", "2", "--seed", "4")
        assert code == EXIT_OK
        assert json.loads(out)["count"] == 15

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_sampled_k_below_one_exits_2(self, tiny_data, tmp_path, capsys, k):
        ckpt = str(tmp_path / "m.fanp")
        run(capsys, "train", "--data", tiny_data, "--out", ckpt,
            "--epochs", "1", "--seed", "1")
        err = run_rejected(capsys, "eval", "--checkpoint", ckpt, "--data", tiny_data,
                           "--frames", "sampled", "--k", k)
        assert f"got {k}" in err

    @pytest.mark.parametrize("frames", [[], ["--frames", "sampled", "--k", "1", "--seed", "4"]],
                             ids=["all", "sampled"])
    def test_per_instance_list_is_what_the_report_tallies(self, tiny_data, tmp_path,
                                                          capsys, frames):
        ckpt = str(tmp_path / "m.fanp")
        run(capsys, "train", "--data", tiny_data, "--out", ckpt,
            "--epochs", "20", "--seed", "1")
        code, out = run(capsys, "eval", "--checkpoint", ckpt, "--data", tiny_data,
                        "--per-instance", *frames)
        assert code == EXIT_OK
        result = json.loads(out)
        confusion = [[0] * 3 for _ in range(3)]
        for inst in result["instances"]:
            confusion[inst["label"]][inst["prediction"]] += 1
        assert confusion == result["confusion"]
        _, everything = run(capsys, "eval", "--checkpoint", ckpt, "--data", tiny_data,
                            "--per-instance")
        listed = [inst["prediction"] for inst in result["instances"]]
        # one sampled frame per video changes some predictions, so the list
        # above is the sampled one, not the all-frame one
        assert (listed == [inst["prediction"] for inst in
                           json.loads(everything)["instances"]]) == (not frames)


class TestCvCommand:
    def test_ten_folds_disjoint_and_consistent(self, tiny_data, capsys):
        code, out = run(capsys, "cv", "--data", tiny_data, "--folds", "10",
                        "--epochs", "1", "--batch-size", "8", "--seed", "2")
        assert code == EXIT_OK
        result = json.loads(out)
        assert len(result["folds"]) == 10
        seen = set()
        for fold in result["folds"]:
            subjects = set(fold["subjects"])
            assert not (seen & subjects)
            seen |= subjects
        # pooled accuracy equals recomputation from the emitted confusions
        total = sum(f["report"]["count"] for f in result["folds"])
        correct = sum(f["report"]["confusion"][i][i]
                      for f in result["folds"]
                      for i in range(len(f["report"]["confusion"])))
        assert result["pooled"]["accuracy"] == pytest.approx(correct / total)
        assert result["pooled"]["count"] == total

    def test_too_few_subjects_exits_2(self, tmp_path, capsys):
        data = str(tmp_path / "few.fanf")
        run(capsys, "synth", "--videos-per-class", "2", "--classes", "2",
            "--dim", "4", "--frames-min", "3", "--frames-max", "3",
            "--subjects", "3", "--out", data)
        code, _ = run(capsys, "cv", "--data", data, "--folds", "10",
                      "--epochs", "1")
        assert code == EXIT_DATA

    @pytest.mark.parametrize("folds", ["1", "0", "-1"])
    def test_fewer_than_two_folds_exits_2(self, tiny_data, capsys, folds):
        err = run_rejected(capsys, "cv", "--data", tiny_data, "--folds", folds,
                           "--epochs", "1")
        assert f"need at least 2 folds, got {folds}" in err


class TestGradcheckCommand:
    def test_small_run_exits_0(self, capsys):
        code, out = run(capsys, "gradcheck", "--configs", "6", "--seed", "1")
        assert code == EXIT_OK
        result = json.loads(out)
        assert result["passed"] is True
        assert all(c["max_rel_err"] < 1e-4 for c in result["configs"])

    def test_pinned_config_reproducible(self, capsys):
        args = ("gradcheck", "--configs", "1", "--d", "4", "--n", "2",
                "--c", "3", "--seed", "1")
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    def test_corrupted_gradient_detected(self, capsys):
        code, out = run(capsys, "gradcheck", "--configs", "2", "--seed", "1",
                        "--corrupt")
        assert code == EXIT_NUMERIC
        assert json.loads(out)["passed"] is False

    @pytest.mark.parametrize("flags", [["--eps", "0"], ["--eps", "-1"],
                                       ["--configs", "0"], ["--configs", "-1"]],
                             ids=["eps0", "eps-1", "configs0", "configs-1"])
    def test_bad_eps_or_config_count_exits_2(self, capsys, flags):
        err = run_rejected(capsys, "gradcheck", *flags)
        assert flags[0] in err

    @pytest.mark.parametrize("flag,value", [
        ("--n", "-1"), ("--d", "-3"), ("--n", "0"), ("--d", "0"), ("--c", "0"),
        ("--tol", "0"), ("--tol", "nan"), ("--eps", "inf")])
    def test_bad_pin_or_bound_exits_2(self, capsys, flag, value):
        err = run_rejected(capsys, "gradcheck", "--configs", "1", flag, value)
        assert err.startswith(f"error: {flag} must be ")


class TestVisualizeCommand:
    def test_exports_csv_and_json(self, tiny_data, tmp_path, capsys):
        ckpt = str(tmp_path / "m.fanp")
        run(capsys, "train", "--data", tiny_data, "--out", ckpt,
            "--epochs", "1", "--seed", "1")
        out_path = str(tmp_path / "weights.csv")
        code, out = run(capsys, "visualize", "--checkpoint", ckpt,
                        "--data", tiny_data, "--out", out_path)
        assert code == EXIT_OK
        produced = json.loads(out)
        summary = json.load(open(produced["json"]))
        assert summary["count"] == 15
        for video in summary["videos"]:
            assert abs(sum(video["final_weights"]) - 1.0) < 1e-9


class TestUsage:
    def test_no_command_exits_1(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["train", "--bogus"]) == EXIT_USAGE

    def test_missing_required_exits_1(self, capsys):
        assert main(["eval", "--data", "x.fanf"]) == EXIT_USAGE

    def test_version_exits_0(self, capsys):
        assert main(["--version"]) == EXIT_OK

    def test_module_entry_point(self):
        import os
        import subprocess
        import sys

        import frameattn
        # the child imports the package this run imports, installed or not
        src = os.path.dirname(os.path.dirname(frameattn.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "frameattn.cli", "--version"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert proc.stdout.strip()
