"""hatenet: tunable CNN-RNN ensembles for three-class short-text
classification (Hate / Offensive / Neither), trainable with labels or
with a lexicon-driven weak-supervised loss."""

__version__ = "0.1.0"

from .corpus import (
    ClassLabel,
    LabeledCorpus,
    SplitSpec,
    combine,
    load_hon,
    load_labeled_lines,
    load_olid,
    load_unlabeled,
    split,
)
from .embeddings import EmbeddingTable, TokenMatrix, embed, load_table, synthetic_table
from .ensemble import (
    EnsembleBundle,
    TrainConfig,
    balanced_epoch_sample,
    evaluate,
    evaluate_heads,
    load_bundle,
    predict,
    predict_all,
    save_bundle,
    train_ensemble,
    train_member,
    tune,
)
from .metrics import ConfusionMatrix, accumulate, report
from .model import ModelParams, TopologyConfig, build, forward, param_count
from .text import RawPost, TokenSequence, normalize, preprocess, stem, tokenize
from .weaksup import (
    ClassBounds,
    ClassWeights,
    Lexicon,
    LexiconCounts,
    compute_bounds,
    count_lexicon,
    load_lexicon,
    weak_label_stats,
    weak_loss,
)

__all__ = [
    "ClassBounds",
    "ClassLabel",
    "ClassWeights",
    "ConfusionMatrix",
    "EmbeddingTable",
    "EnsembleBundle",
    "LabeledCorpus",
    "Lexicon",
    "LexiconCounts",
    "ModelParams",
    "RawPost",
    "SplitSpec",
    "TokenMatrix",
    "TokenSequence",
    "TopologyConfig",
    "TrainConfig",
    "accumulate",
    "balanced_epoch_sample",
    "build",
    "combine",
    "compute_bounds",
    "count_lexicon",
    "embed",
    "evaluate",
    "evaluate_heads",
    "forward",
    "load_bundle",
    "load_hon",
    "load_labeled_lines",
    "load_lexicon",
    "load_olid",
    "load_table",
    "load_unlabeled",
    "normalize",
    "param_count",
    "predict",
    "predict_all",
    "preprocess",
    "report",
    "save_bundle",
    "split",
    "stem",
    "synthetic_table",
    "tokenize",
    "train_ensemble",
    "train_member",
    "tune",
    "weak_label_stats",
    "weak_loss",
]
