import hashlib
import re
import struct
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

import frameattn.training as training
from frameattn import model
from frameattn.data import (
    Dataset,
    SynthConfig,
    VideoInstance,
    load_feature_file,
    synth_generate,
    write_feature_file,
)
from frameattn.errors import ConfigError, DataError, FormatError, NumericError, SchemaError
from frameattn.evaluation import evaluate, export_attention, score_fusion_baseline
from frameattn.model import FanParams, Mode, backward, forward_backward, init_params
from frameattn.sampling import stream, training_draw
from frameattn.training import (
    TrainConfig,
    afew_config,
    ckplus_config,
    fit,
    history_lines,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    sgd_step,
    synth_default_config,
    train,
)


def small_synth(**kw):
    defaults = dict(videos_per_class=6, frames_min=3, frames_max=5, dim=6,
                    num_classes=3, subject_count=12, seed=1)
    defaults.update(kw)
    return synth_generate(SynthConfig(**defaults))


def overflowing(monkeypatch, scale):
    """small_synth with instance 5's frames times `scale`, trained from
    init_params' head with its class weights times 1e280: values past
    float32's range are the head's, and the frames stay finite float32."""
    def head(*args, **kw):
        params = init_params(*args, **kw)
        params.class_w = params.class_w * 1e280
        return params

    monkeypatch.setattr(model, "init_params", head)
    ds = small_synth()
    return Dataset([replace(inst, features=inst.features * scale) if i == 5 else inst
                    for i, inst in enumerate(ds.instances)],
                   ds.dim, ds.num_classes, ds.class_names)


def case(field, value, message, id=None):
    """One refused setting and its whole message, named field-value."""
    return pytest.param(field, value, message, id=id or f"{field}-{value}")


class TestSchedules:
    def test_lab_preset_boundaries(self):
        cfg = ckplus_config()
        assert cfg.total_epochs == 60
        assert lr_at(cfg.schedule, 0) == 0.1
        assert lr_at(cfg.schedule, 29) == 0.1
        assert lr_at(cfg.schedule, 30) == 0.02
        assert lr_at(cfg.schedule, 59) == 0.02

    def test_wild_preset_boundaries(self):
        cfg = afew_config()
        assert cfg.total_epochs == 180
        assert lr_at(cfg.schedule, 0) == 4e-6
        assert lr_at(cfg.schedule, 59) == 4e-6
        assert lr_at(cfg.schedule, 60) == 8e-7
        assert lr_at(cfg.schedule, 119) == 8e-7
        assert lr_at(cfg.schedule, 120) == 1.6e-7
        assert lr_at(cfg.schedule, 179) == 1.6e-7

    def test_single_step(self):
        for epoch in (0, 5, 1000):
            assert lr_at([(0, 0.3)], epoch) == 0.3

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError, match="^epoch must be >= 0$"):
            lr_at([(0, 0.1)], -1)

    def test_preset_override_of_an_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="^unknown TrainConfig field 'foo'$"):
            ckplus_config(foo=1)

    def test_piecewise_constant(self):
        sched = [(0, 1.0), (3, 0.5), (7, 0.25)]
        expect = [1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.25, 0.25]
        assert [lr_at(sched, e) for e in range(9)] == expect

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(schedule=[])
        with pytest.raises(ConfigError):
            TrainConfig(schedule=[(5, 0.1)])
        with pytest.raises(ConfigError):
            TrainConfig(schedule=[(0, 0.1), (0, 0.2)])
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("field, value, message", [
        case("mode", "self-only", "unknown mode 'self-only'"),
        case("mode", "bogus", "unknown mode 'bogus'"),
        case("k", 2.5, "k must be an integer, got 2.5"),
        case("batch_size", 2.5, "batch_size must be an integer, got 2.5"),
        case("total_epochs", 2.5, "total_epochs must be an integer, got 2.5"),
        case("seed", 1.5, "seed must be an integer, got 1.5"),
        case("k", True, "k must be an integer, got True"),
        case("momentum", "0.9", "momentum must be a real number, got '0.9'"),
        case("weight_decay", None, "weight_decay must be a real number, got None"),
        case("momentum", True, "momentum must be a real number, got True"),
        case("schedule", [(0, "0.1")], "learning rate must be a real number, got '0.1'",
             "schedule-text-rate"),
        case("schedule", [0.1], "schedule must be a list of (epoch, rate) pairs",
             "schedule-step-not-a-pair"),
        case("schedule", None, "schedule must be a list of (epoch, rate) pairs"),
        case("schedule", [(0, 0.1), (0.5, 0.2)], "schedule epoch must be an integer, got 0.5",
             "schedule-fractional-epoch"),
        case("schedule", [(0, 10**400)], "learning rate must be finite, got 1" + "0" * 400,
             "schedule-rate-too-large-for-a-float"),
        # str() refuses an int of over 4300 digits: the message names its type
        case("mode", 10**5000, "unknown mode int with over 4300 digits", "mode-too-long-to-print"),
        case("momentum", -10**5000, "momentum must be finite, got int with over 4300 digits",
             "momentum-too-long-to-print")])
    def test_fields_of_the_wrong_kind_refused_by_both_heads(self, field, value, message):
        # refused where the config is made, so neither head can be given it
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            TrainConfig(**{"total_epochs": 1, field: value})

    @pytest.mark.parametrize("field, value, message", [
        case("batch_size", 0, "batch_size must be at least 1, got 0"),
        case("k", -2, "k must be at least 1, got -2"),
        case("total_epochs", -1, "total_epochs must be non-negative, got -1"),
        case("schedule", [], "schedule epochs must increase strictly from 0, got []"),
        case("schedule", [(1, 0.1)], "schedule epochs must increase strictly from 0, got [1]"),
        case("schedule", [(0, -0.1)], "learning rate must be non-negative, got -0.1"),
        # outside these ranges an update grows without bound
        case("momentum", -1e-9, "momentum must lie in [0, 1), got -1e-09"),
        case("momentum", 1.0, "momentum must lie in [0, 1), got 1.0"),
        case("weight_decay", -1e-9, "weight_decay must be non-negative, got -1e-09"),
        case("seed", -10**5000, "seed must be non-negative, got int with over 4300 digits",
             "seed-too-long-to-print"),
        case("schedule", [(10**5000, 0.1)],
             "schedule epochs must increase strictly from 0, got list with over 4300 digits",
             "schedule-epoch-too-long-to-print")])
    def test_fields_out_of_range_named(self, field, value, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("momentum", [0, 0.999])
    def test_momentum_and_decay_at_the_ends_of_their_ranges_accepted(self, momentum):
        cfg = TrainConfig(momentum=momentum, weight_decay=0)
        assert (cfg.momentum, cfg.weight_decay) == (momentum, 0)

    def test_mode_given_by_its_value(self):
        ds = small_synth()
        params, _ = train(ds, TrainConfig(total_epochs=1, mode="self_only"))
        assert params.mode is Mode.SELF_ONLY
        cfg = TrainConfig(k=np.int64(2), batch_size=np.int32(4))
        assert (cfg.k, cfg.batch_size) == (2, 4)

    def test_the_schedule_is_kept_as_the_tuple_of_pairs_it_was_checked_as(self):
        for cfg in (TrainConfig(), ckplus_config(), TrainConfig(schedule=[[0, 0.1], (3, 0.2)])):
            assert isinstance(cfg.schedule, tuple)
            assert all(type(step) is tuple and len(step) == 2 for step in cfg.schedule)
        assert TrainConfig().schedule == ((0, 0.1),)

    @pytest.mark.parametrize("schedule", [iter([(0, 0.1)]), (step for step in [(0, 0.1)])],
                             ids=["iterator", "generator"])
    def test_a_schedule_given_as_an_iterator_trains(self, schedule):
        ds = small_synth()
        cfg = TrainConfig(schedule=schedule, total_epochs=2, seed=1)
        _, history = train(ds, cfg)
        assert [s.lr for s in history] == [0.1, 0.1]
        assert cfg.schedule == ((0, 0.1),)

    def test_a_config_cannot_be_changed(self):
        cfg = ckplus_config()
        for name in ("batch_size", "schedule", "mode"):
            with pytest.raises(FrozenInstanceError):
                setattr(cfg, name, getattr(TrainConfig(), name))
        assert cfg == ckplus_config()

    @pytest.mark.parametrize("field, value, message", [
        case("batch_size", 0, "batch_size must be at least 1, got 0"),
        case("schedule", [(1, 0.1)], "schedule epochs must increase strictly from 0, got [1]")])
    def test_a_replaced_field_is_checked(self, field, value, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            replace(ckplus_config(), **{field: value})


def step(p, grads, velocity, lr, momentum, weight_decay):
    """sgd_step on a FanParams and its gradient vector."""
    sgd_step(p.flat, grads, velocity, lr, momentum, weight_decay, p.blocks)


class TestSgdStep:
    def test_plain_gradient_descent(self):
        p = init_params(3, 2, Mode.FULL, seed=0)
        before = p.flatten()
        g = FanParams(np.ones(3), np.ones(6), np.ones((2, 6)), np.ones(2), Mode.FULL)
        step(p, g.flat, np.zeros_like(p.flat), lr=0.1, momentum=0.0, weight_decay=0.0)
        np.testing.assert_allclose(p.flatten(), before - 0.1)

    def test_zero_gradient_is_noop(self):
        p = init_params(3, 2, Mode.FULL, seed=0)
        before = p.flatten()
        step(p, np.zeros_like(p.flat), np.zeros_like(p.flat),
             lr=0.5, momentum=0.9, weight_decay=0.0)
        np.testing.assert_array_equal(p.flatten(), before)

    def test_momentum_walk_through(self):
        # param=1, grad=1, momentum=0.9, lr=0.1: v=1 -> 0.9; v=1.9 -> 0.71
        p = init_params(1, 1, Mode.FULL, seed=0)
        p.q0[:] = 1.0
        g = np.zeros_like(p.flat)
        g[p.blocks[0].slice] = 1.0
        velocity = np.zeros_like(p.flat)
        step(p, g, velocity, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert p.q0[0] == pytest.approx(0.9, abs=1e-15)
        step(p, g, velocity, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert p.q0[0] == pytest.approx(0.71, abs=1e-15)

    def test_weight_decay_skips_bias(self):
        p = init_params(2, 2, Mode.FULL, seed=1)
        p.class_b[:] = 5.0
        w_before = p.class_w.copy()
        step(p, np.zeros_like(p.flat), np.zeros_like(p.flat),
             lr=0.1, momentum=0.0, weight_decay=0.5)
        np.testing.assert_array_equal(p.class_b, [5.0, 5.0])  # bias undecayed
        assert np.all(p.class_w != w_before)

    def test_matches_per_block_update_bit_for_bit(self):
        # the flat step is the per-block form: g = grad + decay * p (grad +
        # 0.0 for the bias, which turns a -0.0 gradient into +0.0),
        # v = momentum * v + g, p -= lr * v
        rng = np.random.default_rng(3)
        p = init_params(3, 2, Mode.FULL, seed=2)
        p.class_b = [0.0, -0.0]
        grads = rng.standard_normal(p.flat.size)
        grads[-2:] = -0.0
        velocity = rng.standard_normal(p.flat.size)
        expect_p, expect_v = p.flatten(), velocity.copy()
        for i, (_, sl, _) in enumerate(p.blocks):
            decay = 0.01 * expect_p[sl] if i < 3 else 0.0
            expect_v[sl] = 0.9 * expect_v[sl] + (grads[sl] + decay)
            expect_p[sl] -= 0.1 * expect_v[sl]
        step(p, grads, velocity, lr=0.1, momentum=0.9, weight_decay=0.01)
        assert p.flat.tobytes() == expect_p.tobytes()
        assert velocity.tobytes() == expect_v.tobytes()

    def test_nonfinite_update_raises(self):
        p = init_params(2, 2, Mode.FULL, seed=1)
        g = np.zeros_like(p.flat)
        g[p.blocks[0].slice] = 1.0
        # no np.errstate here: sgd_step's own check reports the overflow
        with pytest.raises(NumericError, match="parameter 'q0'"):
            step(p, g, np.zeros_like(p.flat), lr=1e308, momentum=0.0,
                 weight_decay=1e308)

    def test_nonfinite_update_names_the_block(self):
        p = init_params(2, 2, Mode.FULL, seed=1)
        g = np.zeros_like(p.flat)
        g[p.blocks[2].slice.start + 1] = np.inf
        with pytest.raises(NumericError, match="parameter 'class_w'"):
            step(p, g, np.zeros_like(p.flat), lr=0.1, momentum=0.0, weight_decay=0.0)


class TestTrainLoop:
    def test_zero_lr_leaves_params_bit_identical(self):
        ds = small_synth()
        cfg = TrainConfig(schedule=[(0, 0.0)], total_epochs=2, seed=5,
                          batch_size=4, k=2)
        params, history = train(ds, cfg)
        init = init_params(ds.dim, ds.num_classes, cfg.mode, seed=cfg.seed)
        np.testing.assert_array_equal(params.flatten(), init.flatten())
        assert len(history) == 2

    def test_single_instance_single_step(self):
        ds = small_synth(videos_per_class=1, num_classes=3)
        cfg = TrainConfig(schedule=[(0, 0.1)], total_epochs=1, seed=3,
                          batch_size=1, k=2)
        params, _ = train(ds, cfg, train_indices=[0])
        # replay the single expected update by hand
        expect = init_params(ds.dim, ds.num_classes, cfg.mode, seed=cfg.seed)
        inst = ds.instances[0]
        _, picks = training_draw(cfg.seed, 0, [inst.features.shape[0]], cfg.k)
        frames = picks[0]
        _, _, grads = forward_backward(inst.features[frames], expect, inst.label)
        step(expect, grads.flat, np.zeros_like(expect.flat), 0.1, cfg.momentum,
             cfg.weight_decay)
        np.testing.assert_array_equal(params.flatten(), expect.flatten())

    def test_steps_per_epoch_is_ceil(self, monkeypatch):
        ds = small_synth()  # 18 instances
        calls = []
        real = training.sgd_step
        monkeypatch.setattr(training, "sgd_step",
                            lambda *a, **k: (calls.append(1), real(*a, **k))[1])
        cfg = TrainConfig(schedule=[(0, 0.01)], total_epochs=2, seed=1,
                          batch_size=5, k=2)
        train(ds, cfg, train_indices=list(range(18)))
        assert len(calls) == 2 * 4  # ceil(18/5) = 4 per epoch, final short batch kept

    def test_deterministic_history(self):
        ds = small_synth()
        cfg = TrainConfig(schedule=[(0, 0.05)], total_epochs=3, seed=11,
                          batch_size=6, k=2)
        p1, h1 = train(ds, cfg)
        p2, h2 = train(ds, cfg)
        np.testing.assert_array_equal(p1.flatten(), p2.flatten())
        assert [(s.loss, s.train_accuracy) for s in h1] == \
               [(s.loss, s.train_accuracy) for s in h2]

    def test_val_accuracy_matches_evaluate(self):
        from frameattn.evaluation import evaluate
        ds = small_synth()
        cfg = TrainConfig(schedule=[(0, 0.05)], total_epochs=2, seed=2,
                          batch_size=6, k=2)
        val = list(range(0, 6))
        params, history = train(ds, cfg, train_indices=list(range(6, 18)),
                                val_indices=val)
        report = evaluate(params, ds, indices=val)
        assert history[-1].val_accuracy == report.accuracy

    def test_loss_decreases_first_epochs_median_over_seeds(self):
        # reference behavior on the planted-peak default task
        curves = []
        for seed in range(5):
            ds = synth_generate(SynthConfig(seed=seed + 50))
            cfg = synth_default_config(seed=seed, total_epochs=5)
            _, history = train(ds, cfg)
            curves.append([s.loss for s in history])
        med = np.median(np.array(curves), axis=0)
        assert all(b < a for a, b in zip(med, med[1:]))

    def test_empty_training_split_rejected(self):
        ds = small_synth()
        with pytest.raises(ConfigError):
            train(ds, TrainConfig(total_epochs=1), train_indices=[])

    def test_numeric_error_names_epoch_batch_and_instance(self, monkeypatch):
        # instance 5's frames times 1e30 overflow its logits or, times 1e20
        # with its logits still finite, its gradients; the tiny rate keeps
        # the head as it started until instance 5's batch
        cfg = TrainConfig(schedule=[(0, 1e-300)], total_epochs=1, seed=3,
                          batch_size=4, k=2)
        for scale, stage in ((1e30, "forward"), (1e20, "backward")):
            ds = overflowing(monkeypatch, scale)
            lengths = [inst.features.shape[0] for inst in ds.instances]
            order, _ = training_draw(cfg.seed, 0, lengths, cfg.k)
            batch = int(np.flatnonzero(order == 5)[0]) // cfg.batch_size
            where = f"epoch 0, batch {batch}, dataset index 5: {stage}"
            with pytest.raises(NumericError, match=where):
                train(ds, cfg)

    @pytest.mark.parametrize("overrides, where", [
        ({"schedule": [(0, 1e100)]},
         "epoch 2, batch 0, dataset index 4: backward pass produced non-finite gradients "
         "in block 'q0'"),
        ({"schedule": [(0, 1e308)], "weight_decay": 1e308},
         "epoch 0, batch 0: parameter 'q0' became non-finite during update"),
    ], ids=["kernel", "update"])
    def test_overflow_raises_the_located_error_and_no_warning(self, tmp_path,
                                                              overrides, where):
        # pytest turns a RuntimeWarning into an error, so a raw warning from
        # the kernel or the update would end the run before its NumericError
        path = str(tmp_path / "d.fanf")
        write_feature_file(synth_generate(SynthConfig(videos_per_class=5)), path)
        cfg = synth_default_config(total_epochs=4, seed=7, **overrides)
        with pytest.raises(NumericError, match=f"^{re.escape(where)}$"):
            train(load_feature_file(path), cfg)

    def test_numeric_error_in_validation_names_epoch_and_instance(self, monkeypatch):
        # training never sees instance 5, whose features overflow its logits
        cfg = TrainConfig(schedule=[(0, 1e-300)], total_epochs=1, seed=3,
                          batch_size=4, k=2)
        ds = overflowing(monkeypatch, 1e30)
        train_idx = [i for i in range(len(ds.instances)) if i != 5]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericError,
                match="epoch 0, validation, dataset index 5: forward pass"):
            train(ds, cfg, train_indices=train_idx, val_indices=[0, 5, 6])

    def test_numeric_error_in_update_names_epoch_and_batch(self):
        cfg = TrainConfig(schedule=[(0, 1e308)], weight_decay=1e308,
                          total_epochs=1, seed=3, batch_size=4, k=2)
        with np.errstate(over="ignore"), pytest.raises(
                NumericError, match="epoch 0, batch 0: parameter 'q0'"):
            train(small_synth(), cfg)

    def test_trainer_is_full_batch_gd_when_segments_are_singletons(self):
        # fixed-length videos with k = n make sampling deterministic; with
        # momentum 0, decay 0, batch = dataset the loop is exact full-batch GD
        ds = small_synth(frames_min=4, frames_max=4)
        n_inst = len(ds.instances)
        cfg = TrainConfig(schedule=[(0, 0.05)], total_epochs=3, seed=9,
                          batch_size=n_inst, k=4, momentum=0.0, weight_decay=0.0)
        params, _ = train(ds, cfg)

        expect = init_params(ds.dim, ds.num_classes, cfg.mode, seed=cfg.seed)
        for epoch in range(3):
            total = np.zeros_like(expect.flat)
            order = stream(cfg.seed, epoch).permutation(n_inst)
            for idx in order:
                inst = ds.instances[idx]
                _, g = backward(inst.features, expect, inst.label)
                total += g.flat
            total *= 1.0 / n_inst
            expect.flat -= 0.05 * total
        # the trainer sums the batch inside one kernel call, so only the
        # order of float additions differs
        np.testing.assert_allclose(params.flatten(), expect.flatten(),
                                   rtol=0, atol=1e-12)

    def test_full_batch_descent_nonincreasing_on_convex_subcase(self):
        # self-only mode with q0 frozen is multinomial logistic regression on
        # the anchor; full-batch GD at a small rate must not increase the loss
        rng = np.random.default_rng(7)
        ds = small_synth(frames_min=4, frames_max=4)
        params = init_params(ds.dim, ds.num_classes, Mode.SELF_ONLY, seed=0)
        losses = []
        for _ in range(40):
            total = FanParams.from_flat(np.zeros_like(params.flat), ds.dim,
                                        ds.num_classes, Mode.SELF_ONLY)
            loss_sum = 0.0
            for inst in ds.instances:
                loss, g = backward(inst.features, params, inst.label)
                loss_sum += loss
                total.flat += g.flat
            total.flat *= 1.0 / len(ds.instances)
            losses.append(loss_sum / len(ds.instances))
            params.class_w -= 0.2 * total.class_w
            params.class_b -= 0.2 * total.class_b  # q0, q1 frozen
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("mode,ckpt_sha256,history_sha256", [
        (Mode.FULL, "3c8cc49f263e18a290a46f2de71e7bf58e070e7cd909786b2b5dc645eaab29a4",
         "4f0751588878812298ad58d924bb425dbc0abb5f2cc6df0e2aa0b8210d2a06ad"),
        (Mode.SELF_ONLY, "40ab2f2835fa5dd14fe5a9a39440e16baafbeee70b90572df7b0eafbe4e3d653",
         "3e8e18328049590dd47e89f12b2d5344fa37af370fb792d93397121966cf49aa"),
    ], ids=["full", "self_only"])
    def test_checkpoint_and_history_bytes_pinned(self, tmp_path, mode, ckpt_sha256,
                                                 history_sha256):
        # pinned with the kernel on per-frame projections (x86-64, numpy
        # 2.4, OpenBLAS): a reordered sum or a rounded-differently weight
        # changes these bytes
        cfg = TrainConfig(total_epochs=5, batch_size=4, k=2, seed=3, mode=mode,
                          weight_decay=0.01)
        params, history = train(small_synth(), cfg, val_indices=[0, 7, 13])
        path = tmp_path / "m.fanp"
        save_checkpoint(params, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ckpt_sha256
        lines = "\n".join(history_lines(history)).encode()
        assert hashlib.sha256(lines).hexdigest() == history_sha256


class TestFit:
    def cfg(self, **kw):
        return TrainConfig(**{**dict(schedule=[(0, 0.1), (2, 0.02)], total_epochs=3,
                                     batch_size=4, k=2, seed=3), **kw})

    def test_yields_each_epoch_and_gives_trains_history(self):
        ds, cfg = small_synth(), self.cfg()
        idx = list(range(1, len(ds.instances)))
        params = init_params(ds.dim, ds.num_classes, cfg.mode, seed=cfg.seed)

        def step(stack, labels):
            logits, _, losses, grads = model._kernel(stack, params, labels)
            grads.flat *= 1.0 / len(labels)
            return float(losses.sum()), int((logits.argmax(axis=1) == labels).sum()), grads.flat

        epochs = list(fit(ds.packed, cfg, np.array(idx), params.flat, params.blocks, step))
        trained, history = train(ds, cfg, train_indices=idx)
        assert [(e, lr) for e, lr, _, _ in epochs] == [(0, 0.1), (1, 0.1), (2, 0.02)]
        assert [(s.loss, s.train_accuracy) for s in history] == [
            (loss / len(idx), correct / len(idx)) for _, _, loss, correct in epochs]
        assert params.flat.tobytes() == trained.flat.tobytes()

    @pytest.mark.parametrize("row", [2, None])
    def test_step_error_names_epoch_batch_and_the_rows_dataset_index(self, row):
        ds, cfg = small_synth(), self.cfg()
        idx = list(range(len(ds.instances)))
        flat = np.zeros(3)
        blocks = model.blocks_of([("w", (3,))])
        calls = []

        def step(stack, labels):
            calls.append(len(labels))
            if len(calls) == 7:  # epoch 1, batch 1
                raise NumericError("step failed", row=row)
            return 0.0, 0, np.zeros(3)

        batches = training.minibatches(ds.packed, np.array(idx), cfg, 1,
                                       np.empty((cfg.batch_size, cfg.k, ds.dim)))
        batch = [b for b, _, _ in batches][1]
        where = "epoch 1, batch 1" + ("" if row is None else f", dataset index {batch[row]}")
        with pytest.raises(NumericError, match=f"^{where}: step failed$"):
            for _ in fit(ds.packed, cfg, np.array(idx), flat, blocks, step):
                pass
        assert calls[:5] == [4, 4, 4, 4, 2]

    @pytest.mark.parametrize("mode", [Mode.FULL, Mode.SELF_ONLY])
    def test_overflow_of_the_summed_gradients_names_no_instance(self, mode, monkeypatch):
        # each video's own gradients are finite; only their sum over the
        # batch overflows (see TestBatchKernel in test_model.py). With zero
        # kernels and frames x and -x, every logit is 0 and q0's gradient is
        # |W| x^2 a video (half of that self-only): 1.5e308 (0.75e308) here
        ds = Dataset([VideoInstance(f"v{i}", "s", 0, np.array([[1e19], [-1e19]]))
                      for i in range(3)], 1, 2, ["a", "b"])
        head = init_params(1, 2, mode)
        head.flat[:] = 0.0
        head.class_w = np.full(head.class_w.shape, 1.5e270) * [[-1.0], [1.0]]
        monkeypatch.setattr(model, "init_params", lambda *args, **kw: head)
        with pytest.raises(NumericError, match="^epoch 0, batch 0: backward pass produced "
                                               "non-finite gradients in block 'q0'$"):
            train(ds, self.cfg(batch_size=3))

    def test_zero_epochs_yield_nothing_but_the_split_is_checked(self):
        ds, cfg = small_synth(), self.cfg(total_epochs=0)

        def step(stack, labels):
            raise AssertionError("no epoch, so no step")

        blocks = model.blocks_of([("w", (3,))])
        assert list(fit(ds.packed, cfg, np.array([0, 1]), np.zeros(3), blocks, step)) == []
        for head in (train, score_fusion_baseline):
            with pytest.raises(ConfigError, match="training split is empty"):
                head(ds, cfg, [])
            with pytest.raises(ConfigError, match="training split is empty"):
                head(ds, cfg, np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize("val", [[], np.zeros(0, np.int64)], ids=["list", "array"])
    def test_an_empty_validation_split_is_refused_before_the_first_epoch(self, val):
        def on_epoch(stats):
            raise AssertionError("refused before the first epoch")

        with pytest.raises(ConfigError, match="^validation split is empty$"):
            train(small_synth(), self.cfg(), val_indices=val, on_epoch=on_epoch)

    @pytest.mark.parametrize("run", [
        lambda ds, cfg: train(ds, cfg),
        lambda ds, cfg: train(ds, cfg, train_indices=[3, 1, -2]),
        lambda ds, cfg: score_fusion_baseline(ds, cfg),
        lambda ds, cfg: score_fusion_baseline(ds, cfg, [0, 2, 4], test_indices=[5, 1]),
        lambda ds, cfg: train(ds, cfg, val_indices=[0, 1]),
        lambda ds, cfg: evaluate(init_params(ds.dim, ds.num_classes), ds),
        lambda ds, cfg: evaluate(init_params(ds.dim, ds.num_classes), ds, "sampled",
                                 indices=[4, 0, 4]),
        lambda ds, cfg: export_attention(init_params(ds.dim, ds.num_classes), ds, "attn"),
    ], ids=["train", "train split", "baseline", "baseline held out", "train val",
            "evaluate all", "evaluate sampled", "export"])
    def test_a_run_resolves_its_dataset_once(self, run, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # where export writes
        ds = small_synth()
        calls = []
        read = Dataset.__getattribute__

        def reading(self, name):
            if name == "packed":
                calls.append(self is ds)
            return read(self, name)

        monkeypatch.setattr(Dataset, "__getattribute__", reading)
        for epochs in (1, 5):
            calls.clear()
            run(ds, self.cfg(total_epochs=epochs))
            assert calls == [True], f"{epochs} epochs"


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        for mode in (Mode.FULL, Mode.SELF_ONLY):
            p = init_params(5, 3, mode, seed=6)
            path = str(tmp_path / f"{mode.value}.fanp")
            save_checkpoint(p, path)
            q = load_checkpoint(path)
            assert q.mode is mode
            np.testing.assert_array_equal(p.flatten(), q.flatten())
            save_checkpoint(q, path + ".2")
            assert Path(path).read_bytes() == Path(path + ".2").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "x.fanp")
        save_checkpoint(init_params(3, 2, Mode.FULL, seed=0), path)
        raw = bytearray(Path(path).read_bytes())
        raw[:4] = b"JUNK"
        Path(path).write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = str(tmp_path / "x.fanp")
        save_checkpoint(init_params(3, 2, Mode.FULL, seed=0), path)
        raw = Path(path).read_bytes()
        Path(path).write_bytes(raw[:-8])
        with pytest.raises(SchemaError):
            load_checkpoint(path)

    def test_oversized_payload_rejected_before_reading(self, tmp_path):
        # a valid header for D=4, C=2 (240 payload bytes) before 50 MB
        path = tmp_path / "big.fanp"
        with open(path, "wb") as f:
            f.write(b"FANP" + struct.pack("<IIII", 1, 4, 2, 0))
            f.truncate(20 + 50_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(SchemaError, match="50000000 bytes, expected 240"):
                load_checkpoint(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_nan_payload(self, tmp_path):
        path = str(tmp_path / "x.fanp")
        p = init_params(3, 2, Mode.FULL, seed=0)
        save_checkpoint(p, path)
        raw = bytearray(Path(path).read_bytes())
        raw[20:28] = np.array([np.nan]).tobytes()
        Path(path).write_bytes(bytes(raw))
        with pytest.raises(DataError):
            load_checkpoint(path)

    @pytest.mark.parametrize("block", ["q0", "class_b"])
    def test_non_finite_head_is_refused_and_nothing_written(self, tmp_path, block):
        # a value written in place passes no block check, and load_checkpoint
        # refuses the file it would make
        p = init_params(3, 2, Mode.FULL, seed=0)
        getattr(p, block)[0] = np.nan
        with pytest.raises(DataError, match=f"^parameter '{block}' is not finite: "
                                            "its checkpoint could not be loaded$"):
            save_checkpoint(p, str(tmp_path / "x.fanp"))
        assert list(tmp_path.iterdir()) == []

    def test_history_lines(self):
        from frameattn.training import EpochStats
        lines = history_lines([EpochStats(0, 0.1, 1.5, 0.25, None),
                               EpochStats(1, 0.1, 1.2, 0.5, 0.75)])
        assert lines[0] == "epoch,lr,loss,train_accuracy,val_accuracy"
        assert lines[1] == "0,0.1,1.5,0.25,"
        assert lines[2] == "1,0.1,1.2,0.5,0.75"


class TestPackedMinibatches:
    def test_batches_match_per_instance_gather(self):
        ds = small_synth()
        cfg = TrainConfig(batch_size=4, k=3, seed=4)
        idx = [0, 2, 3, 5, 7, 8, 11, 13, 14, 17]
        order, picks = training_draw(
            cfg.seed, 2, [ds.instances[i].features.shape[0] for i in idx], cfg.k)
        # copied: each batch is gathered over the last in the one buffer
        batches = [(b, s.copy(), labels) for b, s, labels in training.minibatches(
            ds.packed, np.array(idx), cfg, 2, np.empty((cfg.batch_size, cfg.k, ds.dim)))]
        assert [len(b) for b, _, _ in batches] == [4, 4, 2]
        np.testing.assert_array_equal(np.concatenate([b for b, _, _ in batches]),
                                      np.asarray(idx)[order])
        for number, (batch, stack, labels) in enumerate(batches):
            rows = picks[number * cfg.batch_size:][:len(batch)]
            want = np.stack([ds.instances[i].features[p] for i, p in zip(batch, rows)])
            assert stack.shape == (len(batch), cfg.k, ds.dim)
            assert stack.tobytes() == want.astype(np.float64).tobytes()
            assert labels.tolist() == [ds.instances[i].label for i in batch]

    def test_negative_indices_count_from_the_end(self):
        ds = small_synth()  # 18 instances
        cfg = TrainConfig(schedule=[(0, 0.05)], total_epochs=2, seed=3, k=2)
        negative, _ = train(ds, cfg, train_indices=[-1, 0, 1, -5])
        positive, _ = train(ds, cfg, train_indices=[17, 0, 1, 13])
        assert negative.flatten().tobytes() == positive.flatten().tobytes()
