"""Shapes and sizes shared by the input generator and the workload runner."""

WORKLOADS = ("hon_gru", "gab_weak_lstm", "gab_transfer_k5")

# paper shape: L=100, dim=300, 32x17 conv, pool 4, RNN 100, head 25
PAPER = dict(seq_len=100, emb_dim=300, conv_filters=32, conv_width=17,
             conv_pad=8, pool_rate=4, rnn_hidden=100, fc_hidden=25)
# a topology small enough that every workload finishes in about a second
TINY = dict(seq_len=12, emb_dim=8, conv_filters=4, conv_width=3,
            conv_pad=1, pool_rate=2, rnn_hidden=5, fc_hidden=4)
SHAPES = {"paper": PAPER, "tiny": TINY}
TABLE_ROWS = {"paper": 20000, "tiny": 0}  # filler rows up to this count

# HON-like labeled corpus: class mix of the original (H 5.8 %, O 77.4 %, N 16.8 %)
HON_POSTS = 120
HON_MIX = (0.058, 0.774, 0.168)
HON_K = 2
HON_EPOCHS = 2

# Gab-like unlabeled pool, cut into weak-training, validation and held-out posts
GAB_TRAIN = 24
GAB_VALID = 8
GAB_STREAM = 64
GAB_K = 2
GAB_EPOCHS = 2
GAB_BATCH = 16
# bounds scale: at the default k=1 no bound of these long posts binds a
# near-uniform prediction, so the weak loss would be 0 for every post
GAB_BOUNDS_K = 10.0

# transfer: K=5 source bundle, balanced target sample, labeled target test set
TRANSFER_K = 5
TARGET_PER_CLASS = 5
GAB_TEST = 20
GAB_TEST_MIX = (0.25, 0.35, 0.40)
TUNE_EPOCHS = 1

# set-ups per untraced run: two set-up-only processes and the workload's own
SETUP_REPEATS = 3
# prediction calls after each training call, so that a round spends about
# a third of its time predicting
PREDICT_REPEATS = {"hon_gru": 6, "gab_weak_lstm": 1, "gab_transfer_k5": 1}

FILES = {
    "vectors": "vectors.txt",
    "hon": "hon.csv",
    "gab_pool": "gab_unlabeled.txt",
    "gab_test": "gab_test.txt",
    "target": "gab_target.txt",
    "lex_hate": "lex_hate.txt",
    "lex_offensive": "lex_offensive.txt",
    "lex_positive": "lex_positive.txt",
    "bundle": "source_bundle",
}


def topology(hn, shape: str, rnn_kind: str):
    return hn.TopologyConfig(rnn_kind=rnn_kind, **SHAPES[shape])
