import argparse
import codecs
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatenet import cli
from hatenet.ensemble import EnsembleBundle, TrainConfig, save_bundle, train_ensemble
from hatenet.embeddings import synthetic_table
from hatenet.model import TopologyConfig

from conftest import separable_corpus, tiny_topology

FIXTURES = Path(__file__).parent / "fixtures"

TINY_CONFIG = {
    "topology": {
        "variant": "cnn_rnn_fc",
        "rnn_kind": "gru",
        "seq_len": 8,
        "conv_filters": 2,
        "conv_width": 3,
        "conv_pad": 1,
        "pool_rate": 2,
        "rnn_hidden": 5,
        "fc_hidden": 4,
    },
    "train": {"ensemble_size": 2, "epochs": 2, "batch_size": 8, "seed": 0},
}


def write_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


def write_lines_corpus(tmp_path, n_per_class=8, name="corpus.txt"):
    corpus = separable_corpus(n_per_class, seed=21)
    path = tmp_path / name
    path.write_text(
        "\n".join(f"{p.label}\t{p.text}" for p in corpus.posts) + "\n"
    )
    return str(path)


def run(args):
    return cli.main(args)


class TestTrainCommand:
    def test_smoke_and_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run([
            "train", "--config", write_config(tmp_path),
            "--labeled-lines", write_lines_corpus(tmp_path),
            "--embeddings", "synthetic:0:6", "--out", str(out),
        ])
        assert code == 0
        for name in ("config.json", "bundle.meta", "member_0.ckpt",
                     "member_1.ckpt", "telemetry.jsonl", "report.json"):
            assert (out / name).exists(), name
        assert "macro_f1" in capsys.readouterr().out
        config = json.loads((out / "config.json").read_text())
        assert config["train"]["epochs"] == 2
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["macro_f1"] <= 1.0
        lines = (out / "telemetry.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert any(r.get("split") == "valid" and "loss" in r for r in records)
        assert any("best_epoch" in r for r in records)

    def test_missing_dataset_is_error(self, tmp_path):
        code = run([
            "train", "--config", write_config(tmp_path),
            "--embeddings", "synthetic:0:6", "--out", str(tmp_path / "x"),
        ])
        assert code == cli.EXIT_DATA

    def test_empty_validation_split_exits_3_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run([
            "train", "--config", write_config(tmp_path),
            "--labeled-lines", write_lines_corpus(tmp_path, n_per_class=3),  # splits 9/0/0
            "--embeddings", "synthetic:0:6", "--out", str(out),
        ])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "validation split" in err
        assert not out.exists()

    def test_rerun_identical_bytes(self, tmp_path):
        config = write_config(tmp_path)
        data = write_lines_corpus(tmp_path)
        out = tmp_path / "run"
        args = ["train", "--config", config, "--labeled-lines", data,
                "--embeddings", "synthetic:0:6", "--out", str(out)]
        assert run(args) == 0
        first = {
            p.name: p.read_bytes() for p in out.iterdir() if p.is_file()
        }
        for p in out.iterdir():
            if p.is_file():
                p.unlink()
        assert run(args) == 0
        second = {
            p.name: p.read_bytes() for p in out.iterdir() if p.is_file()
        }
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name

    def test_trials_mean_report(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "train", "--config", write_config(tmp_path),
            "--labeled-lines", write_lines_corpus(tmp_path),
            "--embeddings", "synthetic:0:6", "--out", str(out),
            "--trials", "2", "--epochs", "1", "-k", "1",
        ])
        assert code == 0
        assert (out / "report_mean.json").exists()
        assert (out / "trial_0" / "report.json").exists()
        assert (out / "trial_1" / "report.json").exists()
        r0 = json.loads((out / "trial_0" / "report.json").read_text())
        r1 = json.loads((out / "trial_1" / "report.json").read_text())
        mean = json.loads((out / "report_mean.json").read_text())
        assert mean["macro_f1"] == pytest.approx((r0["macro_f1"] + r1["macro_f1"]) / 2)


class TestWeakTrainCommand:
    def test_smoke(self, tmp_path):
        out = tmp_path / "weak"
        code = run([
            "weak-train", "--config", write_config(tmp_path),
            "--unlabeled", str(FIXTURES / "unlabeled_lines.txt"),
            "--lex-hate", str(FIXTURES / "lex_hate.txt"),
            "--lex-offensive", str(FIXTURES / "lex_offensive.txt"),
            "--lex-positive", str(FIXTURES / "lex_positive.txt"),
            "--embeddings", "synthetic:0:6", "--out", str(out),
            "--epochs", "1", "-k", "1",
            "--test", str(FIXTURES / "target_lines.txt"),
        ])
        assert code == 0
        assert (out / "bundle.meta").exists()
        meta = json.loads((out / "bundle.meta").read_text())
        assert meta["provenance"]["loss_mode"] == "weak"
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["macro_f1"] <= 1.0

    def test_missing_lexicon_usage_error(self, tmp_path):
        code = run([
            "weak-train", "--config", write_config(tmp_path),
            "--unlabeled", str(FIXTURES / "unlabeled_lines.txt"),
            "--embeddings", "synthetic:0:6", "--out", str(tmp_path / "x"),
        ])
        assert code == cli.EXIT_USAGE

    def test_zero_match_lexicon_aborts(self, tmp_path, capsys):
        for name in ("h", "o", "p"):
            (tmp_path / f"{name}.txt").write_text(f"zzz_absent_{name}\n")
        code = run([
            "weak-train", "--config", write_config(tmp_path),
            "--unlabeled", str(FIXTURES / "unlabeled_lines.txt"),
            "--lex-hate", str(tmp_path / "h.txt"),
            "--lex-offensive", str(tmp_path / "o.txt"),
            "--lex-positive", str(tmp_path / "p.txt"),
            "--embeddings", "synthetic:0:6", "--out", str(tmp_path / "x"),
        ])
        assert code == cli.EXIT_DATA
        assert "vacuous" in capsys.readouterr().err

    def test_imbalance_weights_accepted(self, tmp_path):
        out = tmp_path / "weak"
        code = run([
            "weak-train", "--config", write_config(tmp_path),
            "--unlabeled", str(FIXTURES / "unlabeled_lines.txt"),
            "--lex-hate", str(FIXTURES / "lex_hate.txt"),
            "--lex-offensive", str(FIXTURES / "lex_offensive.txt"),
            "--lex-positive", str(FIXTURES / "lex_positive.txt"),
            "--embeddings", "synthetic:0:6", "--out", str(out),
            "--epochs", "1", "-k", "1", "--class-weights", "imbalance",
        ])
        assert code == 0
        config = json.loads((out / "config.json").read_text())
        assert len(config["class_weights"]) == 3


def make_bundle_dir(tmp_path, dim=6):
    corpus = separable_corpus(6, seed=22)
    table = synthetic_table(0, dim)
    topo = tiny_topology(emb_dim=dim)
    cfg = TrainConfig(ensemble_size=2, epochs=2, seed=0, batch_size=8)
    bundle, _ = train_ensemble(cfg, topo, table, corpus, corpus)
    path = tmp_path / "bundle"
    save_bundle(bundle, path)
    return str(path)


class TestPredictCommand:
    def test_three_posts_three_records(self, tmp_path, capsys):
        bundle_dir = make_bundle_dir(tmp_path)
        inp = tmp_path / "posts.txt"
        inp.write_text("wolfsbane in the sun\nthornbush day\nmeadowlark walk\n")
        code = run(["predict", "--bundle", bundle_dir, "--input", str(inp),
                    "--embeddings", "synthetic:0:6"])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)
            assert record["label"] in ("H", "O", "N")
            assert len(record["votes"]) == 2
            assert len(record["mean_probs"]) == 3

    def test_empty_input_empty_output(self, tmp_path, capsys):
        bundle_dir = make_bundle_dir(tmp_path)
        inp = tmp_path / "posts.txt"
        inp.write_text("")
        code = run(["predict", "--bundle", bundle_dir, "--input", str(inp),
                    "--embeddings", "synthetic:0:6"])
        assert code == 0
        assert capsys.readouterr().out.strip() == ""

    def test_dim_mismatch_is_data_error(self, tmp_path):
        bundle_dir = make_bundle_dir(tmp_path, dim=6)
        inp = tmp_path / "posts.txt"
        inp.write_text("anything\n")
        code = run(["predict", "--bundle", bundle_dir, "--input", str(inp),
                    "--embeddings", "synthetic:0:9"])
        assert code == cli.EXIT_DATA

    def test_output_file(self, tmp_path):
        bundle_dir = make_bundle_dir(tmp_path)
        inp = tmp_path / "posts.txt"
        inp.write_text("one post\n")
        out = tmp_path / "preds.jsonl"
        code = run(["predict", "--bundle", bundle_dir, "--input", str(inp),
                    "--embeddings", "synthetic:0:6", "--output", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 1

    def test_failed_predict_leaves_an_existing_output_file_as_it_was(self, tmp_path):
        bundle_dir = make_bundle_dir(tmp_path, dim=6)
        inp = tmp_path / "posts.txt"
        inp.write_text("one post\n")
        out = tmp_path / "prev.jsonl"
        out.write_bytes(b'{"label": "H"}\n')
        code = run(["predict", "--bundle", bundle_dir, "--input", str(inp),
                    "--embeddings", "synthetic:0:9", "--output", str(out)])
        assert code == cli.EXIT_DATA
        assert out.read_bytes() == b'{"label": "H"}\n'


@pytest.mark.parametrize("command", ["predict", "evaluate", "tune"])
def test_another_synthetic_table_exits_3(tmp_path, capsys, command):
    """A bundle trained on synthetic:0:6 scores with that table alone:
    another seed of the same dim exits 3 naming both tables."""
    bundle_dir, lines = make_bundle_dir(tmp_path), write_lines_corpus(tmp_path)
    argv = [command, "--bundle", bundle_dir, *{
        "predict": ["--input", str(FIXTURES / "unlabeled_lines.txt")],
        "evaluate": ["--labeled-lines", lines],
        "tune": ["--target", lines, "--out", str(tmp_path / "tuned"), "--tune-epochs", "1"],
    }[command], "--embeddings"]
    assert run([*argv, "synthetic:1:6"]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "synthetic:1:6 != bundle table synthetic:0:6" in err
    assert run([*argv, "synthetic:0:6"]) == cli.EXIT_OK


class TestEvaluateCommand:
    def test_memorization_scores_one(self, tmp_path, capsys):
        corpus_lines = write_lines_corpus(tmp_path, n_per_class=10)
        table = synthetic_table(0, 6)
        topo = tiny_topology(dropout_p=0.0)
        corpus = separable_corpus(10, seed=21)
        cfg = TrainConfig(ensemble_size=1, epochs=80, seed=0,
                          base_lr=1e-2, batch_size=8)
        bundle, _ = train_ensemble(cfg, topo, table, corpus, corpus)
        path = tmp_path / "memorizer"
        save_bundle(bundle, path)
        code = run(["evaluate", "--bundle", str(path),
                    "--labeled-lines", corpus_lines,
                    "--embeddings", "synthetic:0:6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "macro_f1: 1.0000" in out
        assert "micro_f1: 1.0000" in out

    def test_degenerate_always_neither(self, tmp_path, capsys):
        # a hand-built bundle that always answers Neither
        from hatenet.model import build

        topo = tiny_topology()
        params = build(topo, 0)
        for tensor in params.classifier.params.values():
            tensor.data[:] = 0.0
        params.classifier.params["fc2_b"].data[:] = np.array([0.0, 0.0, 5.0])
        bundle = EnsembleBundle(
            members=[params], topology=topo,
            fingerprint={"embedding": "synthetic:0:6", "dim": 6, "seq_len": 8},
        )
        path = tmp_path / "alwaysn"
        save_bundle(bundle, path)
        code = run(["evaluate", "--bundle", str(path),
                    "--labeled-lines", write_lines_corpus(tmp_path),
                    "--embeddings", "synthetic:0:6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "micro_f1: 0.3333" in out
        assert "hate_recall: 0.0000" in out


class TestTuneCommand:
    def test_smoke_freeze_and_reports(self, tmp_path, capsys):
        bundle_dir = make_bundle_dir(tmp_path)
        out = tmp_path / "tuned"
        code = run([
            "tune", "--bundle", bundle_dir,
            "--target", str(FIXTURES / "target_lines.txt"),
            "--embeddings", "synthetic:0:6", "--out", str(out),
            "--tune-epochs", "2",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "pre-tuning:" in printed
        assert "post-tuning:" in printed
        rep = json.loads((out / "report.json").read_text())
        assert "pre_tuning" in rep and "post_tuning" in rep

        from hatenet.ensemble import load_bundle

        original = load_bundle(bundle_dir)
        tuned = load_bundle(out)
        for a, b in zip(original.members, tuned.members):
            for key in a.feature.params:
                assert (a.feature.params[key].data.tobytes()
                        == b.feature.params[key].data.tobytes())


    def test_reports_share_one_encoding_and_features_pass(self, tmp_path, monkeypatch):
        # without --test the target is scored by tune, then once for both reports
        from hatenet import ensemble

        bundle_dir = make_bundle_dir(tmp_path)
        calls = {"preprocess": 0, "stacked_forward": 0}
        for name in calls:
            original = getattr(ensemble, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(ensemble, name, counting)
        target = FIXTURES / "target_lines.txt"
        assert run(["tune", "--bundle", bundle_dir, "--target", str(target),
                    "--embeddings", "synthetic:0:6", "--out", str(tmp_path / "tuned"),
                    "--tune-epochs", "2"]) == 0
        assert len(target.read_text().splitlines()) == 15
        assert calls == {"preprocess": 30, "stacked_forward": 2}

    def test_empty_test_file_warns_and_reports_zeros(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        out = tmp_path / "tuned"
        assert run(["tune", "--bundle", make_bundle_dir(tmp_path),
                    "--target", str(FIXTURES / "target_lines.txt"), "--test", str(empty),
                    "--embeddings", "synthetic:0:6", "--out", str(out),
                    "--tune-epochs", "1"]) == 0
        err = capsys.readouterr().err
        assert "warning" in err and "the test report will be all zeros" in err
        rep = json.loads((out / "report.json").read_text())
        for stage in ("pre_tuning", "post_tuning"):
            assert not any(rep[stage].values()), rep[stage]

    def test_weak_train_config_passes_back_as_tune_config(self, tmp_path):
        # tune records no weak-training field: neither base_lr nor bounds_k
        weak = tmp_path / "weak"
        assert run([
            "weak-train", "--config", write_config(tmp_path),
            "--unlabeled", str(FIXTURES / "unlabeled_lines.txt"),
            "--lex-hate", str(FIXTURES / "lex_hate.txt"),
            "--lex-offensive", str(FIXTURES / "lex_offensive.txt"),
            "--lex-positive", str(FIXTURES / "lex_positive.txt"),
            "--embeddings", "synthetic:0:6", "--out", str(weak),
            "--epochs", "1", "--bounds-k", "9",
        ]) == 0
        out = tmp_path / "tuned"
        assert run([
            "tune", "--bundle", str(weak), "--config", str(weak / "config.json"),
            "--target", str(FIXTURES / "target_lines.txt"),
            "--embeddings", "synthetic:0:6", "--out", str(out), "--tune-epochs", "1",
        ]) == 0
        train = json.loads((out / "config.json").read_text())["train"]
        assert "bounds_k" not in train and "base_lr" not in train


class TestGradcheckCommand:
    def test_single_layer(self, capsys):
        assert run(["gradcheck", "--layer", "fc_relu", "--trials", "2"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_requires_selection(self, capsys):
        assert run(["gradcheck"]) == cli.EXIT_USAGE

    def test_failure_is_nonzero(self, monkeypatch, capsys):
        from hatenet import gradcheck as gc

        def broken(seed, h):
            return {"x": 1.0}

        monkeypatch.setitem(gc.REGISTRY, "fc_relu", broken)
        assert run(["gradcheck", "--layer", "fc_relu", "--trials", "1"]) \
            == cli.EXIT_NUMERIC

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--all", "--trials", "0"],
        ["gradcheck", "--layer", "fc_relu", "--trials", "-1"],
    ])
    def test_trials_below_one_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == cli.EXIT_USAGE
        assert "pass" not in capsys.readouterr().out


class TestPreprocessCommand:
    def test_dumps_token_sequences(self, tmp_path, capsys):
        inp = tmp_path / "posts.txt"
        inp.write_text("@bob RUNNING fast\n#hats off\n")
        assert run(["preprocess", "--input", str(inp)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[0])["tokens"] == ["MENTIONHERE", "run", "fast"]
        assert json.loads(lines[1])["tokens"] == ["HASHTAGHERE", "hat", "off"]


LEXICON_ARGS = [
    "--lex-hate", str(FIXTURES / "lex_hate.txt"),
    "--lex-offensive", str(FIXTURES / "lex_offensive.txt"),
    "--lex-positive", str(FIXTURES / "lex_positive.txt"),
]


@pytest.mark.parametrize("command, flags, code", [
    ("train", ["-k", "0"], cli.EXIT_DATA),
    ("train", ["--lr", "-1"], cli.EXIT_DATA),
    ("train", ["--batch-size", "0"], cli.EXIT_DATA),
    ("train", ["--epochs", "0"], cli.EXIT_DATA),
    ("train", ["--embeddings", "synthetic:x:4"], cli.EXIT_USAGE),
    ("train", ["--embeddings", "synthetic:0"], cli.EXIT_USAGE),
    ("weak-train", ["--class-weights", "foo"], cli.EXIT_USAGE),
    ("weak-train", ["--class-weights", "1,2"], cli.EXIT_USAGE),
    ("weak-train", ["--bounds-k", "nan"], cli.EXIT_DATA),
    ("weak-train", ["--bounds-k", "-1"], cli.EXIT_DATA),
    ("weak-train", ["--bounds-k", "0"], cli.EXIT_DATA),
    ("train", ["--lr", "nan"], cli.EXIT_DATA),
    ("train", ["--lr", "inf"], cli.EXIT_DATA),
])
def test_bad_values_exit_without_traceback(tmp_path, command, flags, code):
    if command == "train":
        base = ["train", "--config", write_config(tmp_path),
                "--labeled-lines", write_lines_corpus(tmp_path)]
    else:
        base = ["weak-train", "--config", write_config(tmp_path),
                "--unlabeled", str(FIXTURES / "unlabeled_lines.txt"), *LEXICON_ARGS]
    argv = base + ["--embeddings", "synthetic:0:6", "--out", str(tmp_path / "run"), *flags]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hatenet.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "run").exists()  # rejected before any training


TUNE_ARGV = ["tune", "--bundle", "b", "--target", "t", "--out", "o"]
WEAK_ARGV = ["weak-train", "--unlabeled", "u", "--out", "o"]
TRAIN_ARGV = ["train", "--out", "o"]
EVALUATE_ARGV = ["evaluate", "--bundle", "b"]
PREDICT_ARGV = ["predict", "--bundle", "b", "--input", "i"]


@pytest.mark.parametrize("argv, dead", [
    (TUNE_ARGV, ["--seq-len", "8"]),
    (TUNE_ARGV, ["--trials", "2"]),
    (TUNE_ARGV, ["-k", "3"]),
    (WEAK_ARGV, ["--trials", "2"]),
    (TRAIN_ARGV, ["--tune-lr", "1e-3"]),
    (EVALUATE_ARGV, ["--split-seed", "1"]),  # evaluate scores the whole corpus
    (PREDICT_ARGV, ["--split-seed", "1"]),
])
def test_subcommands_reject_flags_they_never_read(argv, dead):
    cli.build_parser().parse_args(argv)  # complete without the dead flag
    with pytest.raises(SystemExit) as exc:
        run(argv + dead)
    assert exc.value.code == cli.EXIT_USAGE


@pytest.mark.parametrize("argv", [TRAIN_ARGV, WEAK_ARGV])
def test_training_subcommands_take_the_split_seed(argv):
    assert cli.build_parser().parse_args(argv).split_seed == 0
    assert cli.build_parser().parse_args(argv + ["--split-seed", "1"]).split_seed == 1


@pytest.mark.parametrize("argv", [
    TRAIN_ARGV + ["--trials", "0"],
    TRAIN_ARGV + ["--trials", "-1"],
    TRAIN_ARGV + ["--jobs", "0"],
    WEAK_ARGV + ["--jobs", "0"],
])
def test_counts_below_one_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == cli.EXIT_USAGE


def cli_subprocess(argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "hatenet.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("content", [
    '{"train": {"epochs": "2"}}',
    '{"topology": {"seq_len": "12"}}',
    "{not json",
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested too deep"),
])
def test_config_file_faults_exit_3_without_traceback(tmp_path, content):
    config = tmp_path / "bad.json"
    config.write_text(content)
    proc = cli_subprocess([
        "train", "--config", str(config),
        "--labeled-lines", write_lines_corpus(tmp_path),
        "--embeddings", "synthetic:0:6", "--out", str(tmp_path / "run"),
    ])
    assert proc.returncode == cli.EXIT_DATA, proc.stderr
    assert "Traceback" not in proc.stderr


def test_config_file_byte_order_mark_is_ignored(tmp_path):
    plain = write_config(tmp_path)
    marked = tmp_path / "marked.json"
    marked.write_bytes(codecs.BOM_UTF8 + Path(plain).read_bytes())
    assert cli._load_config_file(str(marked)) == cli._load_config_file(plain) == TINY_CONFIG


def weak_argv(tmp_path, out, lexicon=None):
    lex = LEXICON_ARGS if lexicon is None else [
        "--lex-hate", lexicon, "--lex-offensive", lexicon, "--lex-positive", lexicon]
    return ["weak-train", "--config", write_config(tmp_path),
            "--unlabeled", str(FIXTURES / "unlabeled_lines.txt"), *lex,
            "--embeddings", "synthetic:0:6", "--out", out]


@pytest.mark.parametrize("case", ["input_dir", "config_dir", "out_file", "lexicon_latin1"])
def test_io_and_decode_errors_exit_3_with_one_line(tmp_path, capsys, case):
    existing = tmp_path / "existing.txt"
    existing.write_text("already here\n")
    latin1 = tmp_path / "lexicon.txt"
    latin1.write_bytes("d\xe9sol\xe9\n".encode("latin-1"))
    argv = {
        "input_dir": ["preprocess", "--input", str(tmp_path)],
        "config_dir": ["train", "--config", str(tmp_path),
                       "--labeled-lines", write_lines_corpus(tmp_path),
                       "--out", str(tmp_path / "run")],
        "out_file": weak_argv(tmp_path, str(existing)),
        "lexicon_latin1": weak_argv(tmp_path, str(tmp_path / "run"), str(latin1)),
    }[case]
    assert run(argv) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("case", ["predict_input", "labeled_lines", "lex_offensive",
                                  "vectors", "config"])
def test_non_utf8_input_exits_3_naming_the_file(tmp_path, capsys, property_inputs, case):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("1\td\xe9sol\xe9 ok\n0\tfine\n".encode("latin-1"))
    vectors = tmp_path / "vectors.txt"
    vectors.write_bytes("caf\xe9 1 2 3 4 5 6 7 8\n".encode("latin-1"))
    out = str(tmp_path / "run")
    lex = [*LEXICON_ARGS]
    lex[lex.index("--lex-offensive") + 1] = str(latin1)
    argv = {
        "predict_input": ["predict", "--bundle", property_inputs["bundle"],
                          "--input", str(latin1), "--embeddings", "synthetic:0:8"],
        "labeled_lines": ["train", "--labeled-lines", str(latin1), "--out", out, *TINY_RUN],
        "lex_offensive": ["weak-train", "--unlabeled", str(FIXTURES / "unlabeled_lines.txt"),
                          *lex, "--out", out, *TINY_RUN],
        "vectors": ["predict", "--bundle", property_inputs["bundle"],
                    "--input", str(FIXTURES / "unlabeled_lines.txt"),
                    "--embeddings", str(vectors), "--emb-dim", "8"],
        "config": ["train", "--config", str(latin1), "--labeled-lines",
                   property_inputs["corpus"], "--out", out, *TINY_RUN],
    }[case]
    assert run(argv) == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    named = vectors if case == "vectors" else latin1
    assert f"{named} is not UTF-8 text" in err, err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, field, value, source", [
    ("weak-train", "train.class_weights", [1.0, 2.0, 3.0], "--class-weights"),
    ("train", "train.class_weights", "imbalance", "--class-weights"),
    ("train", "topology.emb_dim", 9, "--embeddings synthetic:0:8"),
    ("weak-train", "topology.emb_dim", 9, "--embeddings synthetic:0:8"),
    ("train", "train.loss_mode", "weak", "the train subcommand"),
    ("weak-train", "train.loss_mode", "supervised", "the weak-train subcommand"),
    ("tune", "topology.rnn_hidden", 7, "--bundle"),
    ("tune", "topology.seq_len", 12, "--bundle"),
    ("tune", "train.ensemble_size", 7, "--bundle"),
    ("tune", "train.epochs", 99, "--bundle"),
    ("tune", "train.loss_mode", "weak", "--bundle"),
])
def test_config_values_the_command_overrides_exit_3(tmp_path, capsys, property_inputs,
                                                    command, field, value, source):
    section, key = field.split(".")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({section: {key: value}}))
    out = tmp_path / "run"
    assert run([*base_argv(command, property_inputs, str(out)),
                "--config", str(config)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"config field {field} is" in err and source in err, err
    assert not out.exists()


@pytest.mark.parametrize("command, config_of", [
    ("train", "own run"), ("weak-train", "own run"), ("tune", "own run"),
    ("tune", "the bundle's run"),
])
def test_a_runs_config_passes_back_as_config(tmp_path, property_inputs, command, config_of):
    first = tmp_path / "first"
    if config_of == "own run":
        assert run(base_argv(command, property_inputs, str(first))) == cli.EXIT_OK
    else:
        first = Path(property_inputs["bundle"])
    again = tmp_path / "again"
    assert run([*base_argv(command, property_inputs, str(again)),
                "--config", str(first / "config.json")]) == cli.EXIT_OK
    assert (again / "bundle.meta").exists()


def test_tune_records_the_bundles_training_fields(tmp_path, property_inputs):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": {"ensemble_size": 1, "epochs": 1,
                                            "loss_mode": "supervised", "base_lr": 0.5}}))
    out = tmp_path / "run"
    assert run([*base_argv("tune", property_inputs, str(out)),
                "--config", str(config)]) == cli.EXIT_OK
    train = json.loads((out / "config.json").read_text())["train"]
    assert (train["ensemble_size"], train["epochs"], train["loss_mode"]) == (1, 1, "supervised")
    assert "base_lr" not in train


def test_tune_does_not_check_a_field_the_provenance_lacks(tmp_path, property_inputs):
    bundle = tmp_path / "bundle"
    shutil.copytree(property_inputs["bundle"], bundle)
    meta = json.loads((bundle / "bundle.meta").read_text())
    del meta["provenance"]["epochs"]
    (bundle / "bundle.meta").write_text(json.dumps(meta))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": {"epochs": 99}}))
    out = tmp_path / "run"
    argv = base_argv("tune", {**property_inputs, "bundle": str(bundle)}, str(out))
    assert run([*argv, "--config", str(config)]) == cli.EXIT_OK
    train = json.loads((out / "config.json").read_text())["train"]
    assert "epochs" not in train and train["ensemble_size"] == 1


# -- bundle.meta values: every one exits 0 or 3 ----------------------------

SWEEP_VALUES = ["x", 5, 1.5, True, None, [], {}, [1, 2], -1, 0, 10**9]
# the topology fields that size the stack: a float, a bool or 10**9 raised out of main
SIZING_FIELDS = ("conv_filters", "emb_dim", "fc_hidden", "rnn_hidden")


@pytest.fixture(scope="module")
def sweep_bundle(tmp_path_factory):
    """The bundle of `hatenet train` on the HON fixture at the default
    topology (synthetic:0:8, seq_len 8, K=2, one epoch), and its meta."""
    bundle = tmp_path_factory.mktemp("meta_sweep") / "bundle"
    assert cli.main(["train", "--hon", str(FIXTURES / "hon_sample.csv"),
                     "--embeddings", "synthetic:0:8", "--seq-len", "8",
                     "--ensemble-size", "2", "--epochs", "1", "--out", str(bundle)]) == 0
    return bundle, json.loads((bundle / "bundle.meta").read_text())


def run_with_meta(tmp_path, sweep_bundle, meta: dict, command: str,
                  embeddings=("synthetic:0:8",)):
    """`command` on a copy of the sweep bundle whose bundle.meta is `meta`,
    with the table of `embeddings`' flags: its exit code, or the exception
    that escaped main."""
    bundle = tmp_path / "bundle"
    shutil.copytree(sweep_bundle[0], bundle, dirs_exist_ok=True)
    (bundle / "bundle.meta").write_text(json.dumps(meta))
    argv = [command, "--bundle", str(bundle), "--embeddings", *embeddings, *{
        "predict": ["--input", str(FIXTURES / "unlabeled_lines.txt")],
        "evaluate": ["--hon", str(FIXTURES / "hon_sample.csv")],
        "tune": ["--target", str(FIXTURES / "target_lines.txt"), "--tune-epochs", "1",
                 "--out", str(tmp_path / "tuned")],
    }[command]]
    try:
        return cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        return type(exc).__name__


@pytest.mark.parametrize("field", list(TopologyConfig().to_dict()))
def test_every_topology_value_in_the_meta_exits_3(tmp_path, capsys, monkeypatch,
                                                  sweep_bundle, field):
    """Each sweep value in one topology field of bundle.meta: `predict` exits 3
    (and `evaluate` and `tune` on the fields that size the stack), and a
    10**9 size is refused before the stack is allocated."""
    from hatenet import ensemble, model

    stacked = []
    monkeypatch.setattr(ensemble, "stack",
                        lambda topo, *rest: stacked.append(topo) or model.stack(topo, *rest))
    commands = ["predict", "evaluate", "tune"] if field in SIZING_FIELDS else ["predict"]
    outcomes = {}
    for value in SWEEP_VALUES:
        meta = json.loads(json.dumps(sweep_bundle[1]))
        meta["topology"][field] = value
        for command in commands:
            outcomes[command, repr(value)] = run_with_meta(tmp_path, sweep_bundle, meta, command)
    assert {case: code for case, code in outcomes.items() if code != cli.EXIT_DATA} == {}
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == len(outcomes) and all(e.startswith("error: ") for e in errors)
    assert not [topo for topo in stacked if getattr(topo, field) == 10**9]
    assert not (tmp_path / "tuned").exists()


@pytest.mark.parametrize("section, field", [
    ("fingerprint", "embedding"), ("fingerprint", "dim"), ("fingerprint", "seq_len"),
    ("members", "file"), ("members", "sha256"),
])
def test_every_fingerprint_and_member_value_in_the_meta_exits_3(tmp_path, capsys,
                                                                sweep_bundle, section, field):
    """Each sweep value in one fingerprint field, or in the first member's
    entry, of bundle.meta: `predict` exits 3 with one error line, with the
    bundle's synthetic table and with a vector file of its dim, and so does
    `tune` on the embedding; only a string embedding with a vector file
    loads, since two vector files are not compared by name."""
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("".join(f"{word} {' '.join(['0.5'] * 8)}\n"
                               for word in ("hate", "love", "the")))
    tables = {"synthetic": ("synthetic:0:8",), "file": (str(vectors), "--emb-dim", "8")}
    commands = ["predict", "tune"] if field == "embedding" else ["predict"]
    outcomes = {}
    for value in SWEEP_VALUES:
        meta = json.loads(json.dumps(sweep_bundle[1]))
        (meta["fingerprint"] if section == "fingerprint" else meta["members"][0])[field] = value
        for table, flags in tables.items():
            for command in commands:
                if not (command == "tune" and table == "file" and value == "x"):  # would train
                    outcomes[command, table, repr(value)] = run_with_meta(
                        tmp_path, sweep_bundle, meta, command, flags)
    loads = {("predict", "file", "'x'")} if field == "embedding" else set()
    assert {case: code for case, code in outcomes.items() if code != cli.EXIT_DATA} == {
        case: cli.EXIT_OK for case in loads}
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == len(outcomes) - len(loads)
    assert all(e.startswith("error: ") for e in errors), errors
    assert not (tmp_path / "tuned").exists()


@pytest.mark.parametrize("key, value", [
    ("format_version", True), ("format_version", 1.0), ("format_version", "1"),
    ("seq_len", "x"), ("seq_len", 9), ("seq_len", True), ("seq_len", None),
])
def test_a_meta_format_version_or_seq_len_that_is_not_the_bundles_exits_3(
        tmp_path, capsys, sweep_bundle, key, value):
    meta = json.loads(json.dumps(sweep_bundle[1]))
    (meta if key == "format_version" else meta["fingerprint"])[key] = value
    assert run_with_meta(tmp_path, sweep_bundle, meta, "predict") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bundle.meta" in err and f"{key} {value!r}" in err, err


def test_the_sweep_bundle_loads_as_written(tmp_path, capsys, sweep_bundle):
    assert run_with_meta(tmp_path, sweep_bundle, sweep_bundle[1], "predict") == cli.EXIT_OK


@pytest.mark.parametrize("provenance, message", [
    ({"ensemble_size": True}, "field 'ensemble_size' must be of type int"),
    ({"ensemble_size": "2"}, "field 'ensemble_size' must be of type int"),
    ({"ensemble_size": 2.0}, "field 'ensemble_size' must be of type int"),
    ({"epochs": "x"}, "field 'epochs' must be of type int"),
    ({"epochs": None}, "field 'epochs' must be of type int"),
    ({"loss_mode": 0}, "field 'loss_mode' must be of type str"),
    ({"epochs": "x", "ensemble_size": True}, "field 'ensemble_size' must be of type int"),
    ({"ensemble_size": 0}, "ensemble size must be >= 1"),
    ({"epochs": -3}, "epochs and tune epochs must be >= 1"),
    ({"loss_mode": "bogus"}, "unknown loss mode 'bogus'"),
])
def test_tune_refuses_provenance_training_fields_config_would_refuse(
        tmp_path, capsys, sweep_bundle, provenance, message):
    """tune echoes the bundle's ensemble_size, epochs and loss_mode into
    config.json, so each must pass TrainConfig's rules, which --config
    applies when it reads that file back."""
    meta = json.loads(json.dumps(sweep_bundle[1]))
    meta["provenance"].update(provenance)
    assert run_with_meta(tmp_path, sweep_bundle, meta, "tune") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "provenance: " in err and message in err, err
    assert not (tmp_path / "tuned").exists()


def test_tune_echoes_well_typed_provenance_fields_that_pass_back_as_config(tmp_path,
                                                                           sweep_bundle):
    provenance = sweep_bundle[1]["provenance"]
    assert run_with_meta(tmp_path, sweep_bundle, sweep_bundle[1], "tune") == cli.EXIT_OK
    config = tmp_path / "tuned" / "config.json"
    train = json.loads(config.read_text())["train"]
    assert {key: train[key] for key in ("ensemble_size", "epochs", "loss_mode")} == {
        key: provenance[key] for key in ("ensemble_size", "epochs", "loss_mode")}
    assert cli.main(["tune", "--bundle", str(tmp_path / "bundle"), "--config", str(config),
                     "--embeddings", "synthetic:0:8", "--target",
                     str(FIXTURES / "target_lines.txt"), "--out", str(tmp_path / "again")]) == 0


# -- files are written whole ---------------------------------------------


def failing_write(monkeypatch, name: str) -> None:
    """Make the write of `name`'s temporary sibling stop half way with an
    OSError, as a full disk would."""
    write_bytes = Path.write_bytes

    def failing(path, data):
        if path.name == f"{name}.tmp":
            write_bytes(path, data[: len(data) // 2])
            raise OSError("no space left on device")
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", failing)


@pytest.mark.parametrize("name", ["report.json", "telemetry.jsonl", "labels.jsonl"])
def test_a_failed_write_leaves_the_previous_file_as_it_was(tmp_path, capsys, monkeypatch,
                                                           property_inputs, name):
    out = tmp_path / "run"
    out.mkdir()
    previous = {n: f"previous {n}\n".encode() for n in ("report.json", "telemetry.jsonl",
                                                         "labels.jsonl")}
    for n, data in previous.items():
        (out / n).write_bytes(data)
    if name == "labels.jsonl":
        argv = [*base_argv("predict", property_inputs, ""), "--output", str(out / name)]
    else:
        argv = base_argv("train", property_inputs, str(out))
    failing_write(monkeypatch, name)
    assert run(argv) == cli.EXIT_DATA
    monkeypatch.undo()
    assert "no space left on device" in capsys.readouterr().err
    assert (out / name).read_bytes() == previous[name]
    assert not list(out.glob("*.tmp"))


@pytest.mark.parametrize("case", ["table of another dim", "target missing a class"])
def test_tune_that_exits_3_writes_no_run_directory(tmp_path, capsys, property_inputs, case):
    argv = base_argv("tune", property_inputs, str(tmp_path / "tuned"))
    if case == "table of another dim":
        argv[argv.index("synthetic:0:8")] = "synthetic:0:9"
    else:
        target = tmp_path / "target.txt"
        target.write_text("0\tthornbush day\n1\twolfsbane in the sun\n")
        argv[argv.index(property_inputs["corpus"])] = str(target)
    assert run(argv) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "tuned").exists()


# -- property: no argument vector exits 1 or raises ----------------------

# placeholders a drawn flag value may take; each names a path made fresh
# for every example
MISSING, DIRECTORY, TEXT_FILE, BINARY_FILE = "<missing>", "<dir>", "<file>", "<binary>"
PROPERTY_VALUES = ["nan", "-1", "0", "1", "inf", MISSING, DIRECTORY, TEXT_FILE, BINARY_FILE]
TINY_RUN = ["--seq-len", "8", "-k", "1", "--epochs", "1", "--embeddings", "synthetic:0:8"]


def subcommand_flags() -> dict[str, list[str]]:
    """Each subcommand's flags, read from the parser itself."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {
        name: [a.option_strings[0] for a in parser._actions
               if a.option_strings and a.dest != "help"]
        for name, parser in sub.choices.items()
    }


SUBCOMMAND_FLAGS = subcommand_flags()


@pytest.fixture(scope="module")
def property_inputs(tmp_path_factory):
    """A labeled corpus and a bundle of the tiny topology, both read-only."""
    root = tmp_path_factory.mktemp("cli_property")
    corpus = write_lines_corpus(root, n_per_class=4)
    bundle = str(root / "bundle")
    assert cli.main(["train", "--labeled-lines", corpus, "--out", bundle, *TINY_RUN]) == 0
    return {"corpus": corpus, "bundle": bundle}


def base_argv(command: str, inputs: dict, out: str) -> list[str]:
    """A valid argument vector for each subcommand, on tiny inputs."""
    synthetic = ["--embeddings", "synthetic:0:8"]
    return {
        "train": ["train", "--labeled-lines", inputs["corpus"], "--out", out, *TINY_RUN],
        "weak-train": ["weak-train", "--unlabeled", str(FIXTURES / "unlabeled_lines.txt"),
                       *LEXICON_ARGS, "--out", out, *TINY_RUN],
        "tune": ["tune", "--bundle", inputs["bundle"], "--target", inputs["corpus"],
                 "--tune-epochs", "1", "--out", out, *synthetic],
        "predict": ["predict", "--bundle", inputs["bundle"],
                    "--input", str(FIXTURES / "unlabeled_lines.txt"), *synthetic],
        "evaluate": ["evaluate", "--bundle", inputs["bundle"],
                     "--labeled-lines", inputs["corpus"], *synthetic],
        "gradcheck": ["gradcheck", "--layer", "fc_none", "--trials", "1"],
        "preprocess": ["preprocess", "--input", str(FIXTURES / "unlabeled_lines.txt")],
    }[command]


@st.composite
def argument_vectors(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMAND_FLAGS)))
    flags = draw(st.lists(
        st.tuples(st.sampled_from(SUBCOMMAND_FLAGS[command]),
                  st.sampled_from(PROPERTY_VALUES)),
        max_size=3,
    ))
    return command, [token for pair in flags for token in pair]


@settings(max_examples=40, deadline=None)
@given(argument_vectors())
def test_cli_never_exits_1_or_raises(property_inputs, drawn):
    command, extra = drawn
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        (root / "dir").mkdir()
        (root / "file.txt").write_text("hello world\n1\tyou are great\n")
        (root / "binary").write_bytes(b"\xff\xfe\x00\x81 not utf-8\n")
        paths = {MISSING: root / "missing", DIRECTORY: root / "dir",
                 TEXT_FILE: root / "file.txt", BINARY_FILE: root / "binary"}
        argv = base_argv(command, property_inputs, str(root / "out"))
        argv += [str(paths.get(token, token)) for token in extra]
        cwd = os.getcwd()
        os.chdir(root)  # a drawn value such as "nan" may name an output path
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a usage error
            code = exc.code
        finally:
            os.chdir(cwd)
        assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_NUMERIC), argv
