"""The names `import frameattn` exports, pinned: a name added to or taken
from the package's public surface changes this set on purpose."""

import types

import frameattn

PUBLIC = {
    # data
    "Dataset", "FoldPlan", "SynthConfig", "VideoInstance", "build_folds", "load_feature_file",
    "open_feature_file", "split_by_fold", "synth_generate", "synth_peak_positions",
    "write_feature_file",
    # errors
    "ConfigError", "DataError", "DimensionError", "FormatError", "FrameAttnError",
    "NumericError", "SchemaError",
    # evaluation
    "EvalReport", "cross_validate", "evaluate", "export_attention", "score_fusion_baseline",
    # model
    "AttentionTrace", "FanParams", "Mode", "backward", "forward", "gradient_check",
    "init_params",
    # sampling
    "sample_training",
    # training
    "EpochStats", "TrainConfig", "afew_config", "ckplus_config", "load_checkpoint", "lr_at",
    "save_checkpoint", "sgd_step", "synth_default_config", "train",
}


def test_exported_names_are_the_pinned_set():
    exported = {name for name, value in vars(frameattn).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC
