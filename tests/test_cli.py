import hashlib
import json
from dataclasses import fields, replace
from pathlib import Path

import pytest

from frameattn import cli
from frameattn.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from frameattn.data import Dataset, SynthConfig, write_feature_file
from frameattn.model import Mode, init_params
from frameattn.training import TrainConfig, save_checkpoint, synth_default_config

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
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

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


# flag, config field, the text given, the value the field must then hold
SYNTH_FLAGS = [
    ("--videos-per-class", "videos_per_class", "3", 3),
    ("--frames-min", "frames_min", "2", 2),
    ("--frames-max", "frames_max", "9", 9),
    ("--dim", "dim", "5", 5),
    ("--classes", "num_classes", "2", 2),
    ("--peaks", "peak_frames", "2", 2),
    ("--signal", "signal", "2.5", 2.5),
    ("--noise", "noise", "0.5", 0.5),
    ("--seed", "seed", "11", 11),
    ("--subjects", "subject_count", "4", 4),
    ("--terminal-peak", "terminal_peak", None, True),
]
TRAIN_FLAGS = [
    ("--epochs", "total_epochs", "5", 5),
    ("--batch-size", "batch_size", "7", 7),
    ("--k", "k", "4", 4),
    ("--lr", "schedule", "0.5", [(0, 0.5)]),
    ("--momentum", "momentum", "0.5", 0.5),
    ("--weight-decay", "weight_decay", "0.25", 0.25),
    ("--seed", "seed", "11", 11),
    ("--mode", "mode", "self-only", Mode.SELF_ONLY),
]


class Captured(Exception):
    """Raised by a stand-in for the call that receives the config."""


class TestFlagsReachTheirFields:
    def test_every_config_field_has_a_flag(self):
        assert [f.name for f in fields(SynthConfig)] == [row[1] for row in SYNTH_FLAGS]
        assert sorted(f.name for f in fields(TrainConfig)) == sorted(row[1] for row in TRAIN_FLAGS)

    @pytest.mark.parametrize("flag, name, text, value", SYNTH_FLAGS)
    def test_synth_flag(self, tmp_path, monkeypatch, flag, name, text, value):
        seen = []

        def synth_generate(config):
            seen.append(config)
            raise Captured

        monkeypatch.setattr(cli, "synth_generate", synth_generate)
        assert getattr(SynthConfig(), name) != value
        with pytest.raises(Captured):
            main(["synth", flag, *([text] if text else []), "--out", str(tmp_path / "x.fanf")])
        assert seen == [replace(SynthConfig(), **{name: value})]

    @pytest.mark.parametrize("flag, name, text, value", TRAIN_FLAGS)
    @pytest.mark.parametrize("command, receiver", [("train", "train"), ("cv", "cross_validate")])
    def test_train_flag(self, tiny_data, tmp_path, monkeypatch, command, receiver,
                        flag, name, text, value):
        seen = []

        def receive(dataset, config, *rest, **options):
            seen.append(config)
            raise Captured

        monkeypatch.setattr(cli, receiver, receive)
        # the CLI's --seed default is 7; the preset is synth-default
        assert getattr(synth_default_config(seed=7), name) != value
        extra = ["--out", str(tmp_path / "m.fanp")] if command == "train" else []
        with pytest.raises(Captured):
            main([command, "--data", tiny_data, flag, text, *extra])
        assert seen == [synth_default_config(**{"seed": 7, name: value})]


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
        lines = Path(hist).read_text().strip().split("\n")
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

    def test_dataset_preset_requires_data(self, tmp_path, capsys):
        ckpt = tmp_path / "m.fanp"
        err = run_rejected(capsys, "train", "--preset", "ck+", "--out", str(ckpt))
        assert err == "error: --data is required with preset 'ck+'\n"
        assert not ckpt.exists()

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
        before = hashlib.sha256(Path(tiny_data).read_bytes()).hexdigest()
        run(capsys, "train", "--data", tiny_data,
            "--out", str(tmp_path / "m.fanp"), "--epochs", "1", "--seed", "1")
        after = hashlib.sha256(Path(tiny_data).read_bytes()).hexdigest()
        assert before == after

    def test_deterministic_outputs(self, tiny_data, tmp_path, capsys):
        outs = []
        for name in ("r1", "r2"):
            ckpt = str(tmp_path / f"{name}.fanp")
            hist = str(tmp_path / f"{name}.csv")
            code, _ = run(capsys, "train", "--data", tiny_data, "--out", ckpt,
                          "--history", hist, "--epochs", "2", "--seed", "9")
            assert code == EXIT_OK
            outs.append((Path(ckpt).read_bytes(), Path(hist).read_bytes()))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("mode,sha256", [
        ("full", "d12bdf1d588fad56993d908fceadca5a6ecb744354a22709230eee266386c204"),
        ("self-only", "3eaf0ec0774fdfaa071b17d3a0bc6ca350554a2d90f0867481377afb798bf6f2"),
    ], ids=["full", "self-only"])
    def test_checkpoint_bytes_pinned(self, tiny_data, tmp_path, capsys, mode, sha256):
        # a slip in the update (a reordered sum, a decayed bias, a flipped
        # signed zero) changes these bytes; pinned with the kernel on
        # per-frame projections (x86-64, numpy 2.4, OpenBLAS)
        ckpt = str(tmp_path / "m.fanp")
        code, _ = run(capsys, "train", "--data", tiny_data, "--out", ckpt,
                      "--mode", mode, "--epochs", "4", "--batch-size", "4",
                      "--k", "2", "--weight-decay", "0.05", "--seed", "3")
        assert code == EXIT_OK
        assert hashlib.sha256(Path(ckpt).read_bytes()).hexdigest() == sha256

    def test_published_presets_pin_epoch_counts(self, tiny_data, tmp_path, capsys):
        for preset, epochs in (("ck+", 60), ("afew", 180)):
            hist = str(tmp_path / f"{preset}.csv")
            code, out = run(capsys, "train", "--data", tiny_data,
                            "--out", str(tmp_path / f"{preset}.fanp"),
                            "--history", hist, "--preset", preset,
                            "--batch-size", "8", "--seed", "1")
            assert code == EXIT_OK
            assert json.loads(out)["epochs"] == epochs
            assert len(Path(hist).read_text().strip().split("\n")) == epochs + 1

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
        assert f"fold_count must be at least 2, got {folds}" in err


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
        summary = json.loads(Path(produced["json"]).read_text())
        assert summary["count"] == 15
        for video in summary["videos"]:
            assert abs(sum(video["final_weights"]) - 1.0) < 1e-9

    @pytest.mark.parametrize("command", ["visualize", "eval"])
    def test_a_header_only_file_exits_2_and_writes_nothing(self, tmp_path, capsys, command):
        data, ckpt = str(tmp_path / "empty.fanf"), str(tmp_path / "m.fanp")
        write_feature_file(Dataset([], 4, 2, ["a", "b"]), data)
        save_checkpoint(init_params(4, 2, Mode.FULL, seed=1), ckpt)
        out = ["--out", str(tmp_path / "weights.csv")] if command == "visualize" else []
        err = run_rejected(capsys, command, "--checkpoint", ckpt, "--data", data, *out)
        assert err == "error: selection is empty\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.fanf", "m.fanp"]


class TestNegativeSeed:
    """A negative --seed is a config problem wherever a seed is read: exit 2
    with one error line, not a traceback from numpy's generator."""

    @pytest.mark.parametrize("command", ["train", "cv", "synth", "gradcheck", "eval"])
    def test_exits_2(self, tiny_data, tmp_path, capsys, command):
        ckpt = str(tmp_path / "m.fanp")
        run(capsys, "train", "--data", tiny_data, "--out", ckpt, "--epochs", "1")
        args = {
            "train": ["--data", tiny_data, "--out", str(tmp_path / "n.fanp"), "--epochs", "1"],
            "cv": ["--data", tiny_data, "--folds", "2", "--epochs", "1"],
            "synth": ["--out", str(tmp_path / "x.fanf")],
            "gradcheck": ["--configs", "1"],
            "eval": ["--checkpoint", ckpt, "--data", tiny_data, "--frames", "sampled"],
        }[command]
        err = run_rejected(capsys, command, *args, "--seed", "-1")
        assert "seed must be non-negative, got -1" in err
        assert not (tmp_path / "n.fanp").exists() and not (tmp_path / "x.fanf").exists()


class TestCountTooLargeForAnArray:
    """A count that sizes an array is at most 2**32 - 1, the width of the
    FANF and FANP u32 header fields: a larger one is a config problem that
    names its setting (exit 2, one error line), not a raw ValueError from
    numpy. Only values above the bound are run, which allocate nothing."""

    HUGE = str(10**20)

    @pytest.mark.parametrize("command, name", [
        ("synth", "dim"), ("train", "k"), ("eval", "k"), ("gradcheck", "--n")])
    def test_exits_2_naming_the_setting(self, tiny_data, tmp_path, capsys, command, name):
        ckpt = str(tmp_path / "m.fanp")
        save_checkpoint(init_params(6, 3, Mode.FULL, seed=1), ckpt)
        args = {
            "synth": ["--dim", self.HUGE, "--out", str(tmp_path / "x.fanf")],
            "train": ["--data", tiny_data, "--k", self.HUGE, "--out", str(tmp_path / "n.fanp")],
            "eval": ["--checkpoint", ckpt, "--data", tiny_data, "--frames", "sampled",
                     "--k", self.HUGE],
            "gradcheck": ["--configs", "1", "--n", self.HUGE],
        }[command]
        err = run_rejected(capsys, command, *args)
        assert err == f"error: {name} must be at most 4294967295, got {self.HUGE}\n"
        assert not (tmp_path / "n.fanp").exists() and not (tmp_path / "x.fanf").exists()

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_settings_are_checked_before_the_data(self, tmp_path, capsys, command):
        # without --data, train would generate the synthetic set first; cv
        # would open the file, which does not exist
        args = {"train": ["--out", str(tmp_path / "n.fanp")],
                "cv": ["--data", str(tmp_path / "absent.fanf")]}[command]
        err = run_rejected(capsys, command, *args, "--k", self.HUGE)
        assert err == f"error: k must be at most 4294967295, got {self.HUGE}\n"


class TestNumericFailure:
    @pytest.mark.parametrize("flags, where", [
        (["--lr", "1e100"],
         "epoch 2, batch 0, dataset index 4: backward pass produced non-finite gradients "
         "in block 'q0'"),
        (["--lr", "1e308", "--weight-decay", "1e308"],
         "epoch 0, batch 0: parameter 'q0' became non-finite during update"),
    ], ids=["kernel", "update"])
    def test_train_exits_3_with_one_located_line(self, tmp_path, capsys, flags, where):
        data, ckpt = str(tmp_path / "d.fanf"), tmp_path / "m.fanp"
        assert run(capsys, "synth", "--videos-per-class", "5", "--out", data)[0] == EXIT_OK
        code = main(["train", "--data", data, "--out", str(ckpt), "--epochs", "4", *flags])
        out, err = capsys.readouterr()
        assert code == EXIT_NUMERIC and out == ""
        *epochs, last = err.splitlines()
        assert all(line.startswith("epoch ") for line in epochs)
        assert last == f"numeric error: {where}"
        assert not ckpt.exists()

    def test_cv_exits_3_naming_the_fold(self, tiny_data, capsys):
        code = main(["cv", "--data", tiny_data, "--folds", "2", "--epochs", "2",
                     "--lr", "1e308", "--weight-decay", "1e308"])
        out, err = capsys.readouterr()
        assert code == EXIT_NUMERIC and out == ""
        assert err == ("numeric error: fold 0: epoch 0, batch 0: "
                       "parameter 'q0' became non-finite during update\n")


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
