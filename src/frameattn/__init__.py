"""Attention-weighted aggregation of per-frame features into video-level
representations, with hand-derived gradients and a full train/eval harness."""

__version__ = "0.1.0"

from .data import (
    Dataset,
    FoldPlan,
    SynthConfig,
    VideoInstance,
    build_folds,
    load_feature_file,
    open_feature_file,
    split_by_fold,
    synth_generate,
    synth_peak_positions,
    write_feature_file,
)
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    FormatError,
    FrameAttnError,
    NumericError,
    SchemaError,
)
from .evaluation import (
    EvalReport,
    cross_validate,
    evaluate,
    export_attention,
    score_fusion_baseline,
)
from .model import (
    AttentionTrace,
    FanParams,
    Mode,
    backward,
    forward,
    gradient_check,
    init_params,
)
from .sampling import sample_training
from .training import (
    EpochStats,
    TrainConfig,
    afew_config,
    ckplus_config,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    sgd_step,
    synth_default_config,
    train,
)
