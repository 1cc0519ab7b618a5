"""Sequence-context action recognition over pre-extracted features.

The package trains a transformer over short windows of consecutive
actions, with two auxiliary mechanisms: reconstruction of a masked
center action guided across the visual and text modalities, and
augmentation that mixes same-label actions across source domains. A
synthetic multi-domain benchmark makes the cross-domain behavior
verifiable at desk scale, and a finite-difference gradient checker
verifies every backward rule of the minimal tensor engine underneath.
"""

from seqdg.checkpoint import load_checkpoint, load_model, save_checkpoint, strip_text_parameters
from seqdg.data import (
    ActionRecord,
    DatasetSplit,
    FeatureStore,
    NarrationEmbedder,
    SeqMixPool,
    SeqMixStats,
    build_windows,
    import_csv_dataset,
    seqmix,
)
from seqdg.evaluate import Prediction, Predictions, accuracy, sliding_window_predict
from seqdg.model import (
    EncodedSequence,
    ModelConfig,
    ModelParams,
    SeqDGModel,
    classify,
    cross_attention,
    decode,
    encode_sequence,
    mask_center,
)
from seqdg.seqstats import count_all_categories, count_repeats
from seqdg.synth import SynthConfig, SynthTruth, context_oracle, generate, generate_to
from seqdg.tensor import Tensor, grad_check, no_grad
from seqdg.train import LossBreakdown, TrainConfig, composite_loss, fit, lr_at

__version__ = "0.1.0"

__all__ = [
    "ActionRecord",
    "DatasetSplit",
    "EncodedSequence",
    "FeatureStore",
    "LossBreakdown",
    "ModelConfig",
    "ModelParams",
    "NarrationEmbedder",
    "Prediction",
    "Predictions",
    "SeqDGModel",
    "SeqMixPool",
    "SeqMixStats",
    "SynthConfig",
    "SynthTruth",
    "Tensor",
    "TrainConfig",
    "accuracy",
    "build_windows",
    "classify",
    "composite_loss",
    "context_oracle",
    "count_all_categories",
    "count_repeats",
    "cross_attention",
    "decode",
    "encode_sequence",
    "fit",
    "generate",
    "generate_to",
    "grad_check",
    "import_csv_dataset",
    "load_checkpoint",
    "load_model",
    "lr_at",
    "mask_center",
    "no_grad",
    "save_checkpoint",
    "seqmix",
    "sliding_window_predict",
    "strip_text_parameters",
]
