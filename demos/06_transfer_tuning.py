"""Transfer tuning: freeze the CNN-RNN feature extractor and retrain the
two dense layers on a small balanced sample from a shifted domain, then
report before and after from one features pass.

Run:  python demos/06_transfer_tuning.py
"""

import numpy as np

from hatenet import (
    LabeledCorpus,
    RawPost,
    TopologyConfig,
    TrainConfig,
    evaluate_heads,
    synthetic_table,
    train_ensemble,
    tune,
)

SOURCE_MARKERS = {0: "wolfsbane", 1: "thornbush", 2: "meadowlark"}
# in the target domain the offensive/neither markers trade places
TARGET_MARKERS = {0: "wolfsbane", 1: "meadowlark", 2: "thornbush"}
FILLERS = ["the", "a", "sun", "day", "we", "saw"]


def make_corpus(markers, n_per_class, seed, tag):
    rng = np.random.default_rng(seed)
    posts = []
    for label, marker in markers.items():
        for i in range(n_per_class):
            words = list(rng.choice(FILLERS, size=4)) + [marker]
            rng.shuffle(words)
            posts.append(RawPost(" ".join(words), label=label,
                                 source_id=f"{tag}:{label}:{i}"))
    return LabeledCorpus(posts, provenance=tag)


topo = TopologyConfig(seq_len=8, emb_dim=6, conv_filters=2, conv_width=3,
                      conv_pad=1, pool_rate=2, rnn_hidden=5, fc_hidden=4)
table = synthetic_table(0, 6)

source = make_corpus(SOURCE_MARKERS, 20, seed=0, tag="source")
cfg = TrainConfig(ensemble_size=2, epochs=40, seed=0, base_lr=5e-3, batch_size=8)
bundle, _ = train_ensemble(cfg, topo, table, source, source)

target_tune = make_corpus(TARGET_MARKERS, 8, seed=1, tag="target-tune")
target_test = make_corpus(TARGET_MARKERS, 15, seed=2, tag="target-test")

# this synthetic setup is far smaller than a real corpus, so the head
# needs a hotter schedule than the production default (10 epochs, 5e-4)
tune_cfg = TrainConfig(ensemble_size=2, seed=0, batch_size=8,
                       tune_epochs=60, tune_lr=5e-3)
tuned = tune(bundle, target_tune, tune_cfg, table)
# the two bundles share the frozen extractor, so one features pass over the
# test posts serves both reports: each bundle's heads classify the features
before, after = evaluate_heads([bundle, tuned], target_test, table)

print("target-domain metrics (class/marker mapping shifted):")
print(f"  pre-tuning:  macro F1 {before['macro_f1']:.3f}, "
      f"hate recall {before['hate_recall']:.3f}")
print(f"  post-tuning: macro F1 {after['macro_f1']:.3f}, "
      f"hate recall {after['hate_recall']:.3f}")

frozen = all(
    np.array_equal(a.feature.params[k].data, b.feature.params[k].data)
    for a, b in zip(bundle.members, tuned.members)
    for k in a.feature.params
)
print(f"\nfeature extractor untouched by tuning: {frozen}")
print(f"tuning rate {tune_cfg.tune_lr} over {tune_cfg.tune_epochs} epochs, "
      f"classifier head only")
