"""Command-line entry point.

Subcommands: train, weak-train, tune, predict, evaluate, gradcheck,
preprocess.  Runs are reproducible: the fully resolved configuration is
echoed into the output directory before any training starts, and a rerun
with the same configuration, seed and single thread writes byte-identical
checkpoints and reports, given the same BLAS build and BLAS thread count:
another thread count can round member_*.ckpt, and so bundle.meta, differently.

Exit codes: 0 success; 2 usage errors; 3 data/configuration errors;
4 numeric failures (non-finite losses, failed gradient checks).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import gradcheck as gradcheck_mod
from .corpus import (
    LABEL_NAMES,
    LabeledCorpus,
    SplitSpec,
    combine,
    load_hon,
    load_labeled_lines,
    load_olid,
    load_unlabeled,
    open_utf8,
    split,
    write_whole,
)
from .embeddings import load_table, synthetic_table
from .ensemble import (
    SUPERVISED,
    WEAK,
    TrainConfig,
    check_tuning,
    evaluate,
    evaluate_heads,
    load_bundle,
    predict_all,
    save_bundle,
    train_ensemble,
    tune,
)
from .errors import CorpusTooSmall, HatenetError, InvalidConfig, NonFiniteValue, NumericError
from .metrics import format_report
from .model import TopologyConfig
from .text import RawPost, preprocess
from .weaksup import ClassWeights, imbalance_weights, load_lexicon, weak_label_stats

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _embeddings_spec(spec: str) -> str:
    """--embeddings value: a vector file path, or synthetic:<seed>:<dim>."""
    if not spec.startswith("synthetic:"):
        return spec
    try:
        _, seed, dim = spec.split(":")
        if int(seed) < 0 or int(dim) < 1:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{spec!r}: expected synthetic:<seed>:<dim> with integers seed >= 0, dim >= 1"
        ) from None
    return spec


def _int_at_least(minimum: int):
    """The argparse type of a flag whose value is an integer >= minimum."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{text!r}: expected an integer >= {minimum}")
        return value

    return parse


_positive_int = _int_at_least(1)  # counts
_seed = _int_at_least(0)  # numpy rejects a negative seed


def _add_embedding_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--embeddings",
        type=_embeddings_spec,
        default="synthetic:0:64",
        help="word-vector source: a text file path, or synthetic:<seed>:<dim>",
    )
    p.add_argument("--emb-dim", type=int, default=None,
                   help="vector dimension (required for file-backed tables)")


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hon", help="comma-separated corpus with numeric class codes")
    p.add_argument("--olid", help="tab-separated corpus with hierarchical labels")
    p.add_argument("--labeled-lines", help="code<TAB>text corpus, one post per line")


def _add_run_args(p: argparse.ArgumentParser) -> None:
    """Flags of every subcommand that trains (train, weak-train, tune)."""
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--out", required=True, help="output directory for the run")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--batch-size", type=int, default=None)


def _add_member_args(p: argparse.ArgumentParser) -> None:
    """Flags of the subcommands that build and train new members."""
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--ensemble-size", "-k", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--variant", choices=["cnn_rnn_fc", "cnn_fc"], default=None)
    p.add_argument("--rnn", choices=["gru", "lstm"], default=None)
    p.add_argument("--conv-axis", choices=["sequence", "embedding"], default=None)
    p.add_argument("--seq-len", type=int, default=None)
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel workers across ensemble members")


def _class_weights_spec(spec: str) -> "str | ClassWeights":
    """--class-weights value: a keyword, or the parsed explicit weights."""
    if spec in ("uniform", "imbalance"):
        return spec
    try:
        return ClassWeights(np.array([float(x) for x in spec.split(",")]))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{spec!r}: expected uniform, imbalance or three positive reals"
        ) from None


def _add_lexicon_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lex-hate", help="hate lexicon, one term per line")
    p.add_argument("--lex-offensive", help="offensive lexicon, one term per line")
    p.add_argument("--lex-positive", help="positive lexicon, one term per line")
    p.add_argument("--bounds-k", type=float, default=None,
                   help="scale on lexicon evidence ratios (default 1.0)")
    p.add_argument("--class-weights", type=_class_weights_spec, default=None,
                   help='"uniform", "imbalance", or three comma-separated reals')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hatenet",
        description="Tunable CNN-RNN ensembles for Hate/Offensive/Neither "
                    "short-text classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="supervised ensemble training")
    _add_run_args(p)
    _add_member_args(p)
    p.add_argument("--trials", type=_positive_int, default=1,
                   help="rerun T times with seeds seed+1000*t and report mean metrics")
    _add_data_args(p)
    p.add_argument("--split-seed", type=_seed, default=0)
    _add_embedding_args(p)

    p = sub.add_parser("weak-train", help="weak-supervised training on unlabeled posts")
    _add_run_args(p)
    _add_member_args(p)
    _add_embedding_args(p)
    _add_lexicon_args(p)
    p.add_argument("--unlabeled", required=True, help="text file, one post per line")
    p.add_argument("--test", help="optional labeled file (code<TAB>text) to evaluate on")
    p.add_argument("--split-seed", type=_seed, default=0)

    p = sub.add_parser("tune", help="freeze features, retrain the classifier head")
    _add_run_args(p)
    p.add_argument("--tune-lr", type=float, default=None)
    p.add_argument("--tune-epochs", type=int, default=None)
    _add_embedding_args(p)
    p.add_argument("--bundle", required=True, help="directory of a saved ensemble")
    p.add_argument("--target", required=True,
                   help="balanced labeled tuning set (code<TAB>text)")
    p.add_argument("--test", help="labeled file for the before/after reports "
                                  "(defaults to the target set)")

    p = sub.add_parser("predict", help="label posts with a saved ensemble")
    _add_embedding_args(p)
    p.add_argument("--bundle", required=True)
    p.add_argument("--input", required=True, help="text file, one post per line")
    p.add_argument("--output", help="write JSON lines here instead of stdout")

    p = sub.add_parser("evaluate", help="metrics of a saved ensemble on labeled posts")
    _add_embedding_args(p)
    _add_data_args(p)
    p.add_argument("--bundle", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--layer", help="run one registered check by name")
    p.add_argument("--all", action="store_true", help="run every registered check")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--trials", type=_positive_int, default=20)

    p = sub.add_parser("preprocess", help="dump normalized token sequences")
    p.add_argument("--input", required=True, help="text file, one post per line")

    return parser


def _load_config_file(path: "str | None") -> dict:
    if not path:
        return {}
    try:
        with open_utf8(path) as fh:
            cfg = json.load(fh)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidConfig(f"{path} is not a JSON config file: {exc}") from None
    if not isinstance(cfg, dict):
        raise InvalidConfig(f"{path}: a config file holds one JSON object")
    return cfg


def _config_section(file_cfg: dict, name: str, cls) -> dict:
    """The config file's `name` section, whose keys must be fields of `cls`;
    the values' types are checked where `cls.validate` runs."""
    section = file_cfg.get(name, {})
    if not isinstance(section, dict):
        raise InvalidConfig(f"config section {name!r} must be a JSON object")
    defaults = cls().__dict__
    for key, value in section.items():
        if key not in defaults:
            raise InvalidConfig(f"unknown {name} config field {key!r}")
        if defaults[key] is None and value is not None:  # class_weights
            raise InvalidConfig(f"config field {name}.{key} is {value!r}, but only "
                                "weak-train's --class-weights sets the class weights")
    return dict(section)


def _check_agrees(section: dict, name: str, used: dict, source: str) -> None:
    """Raise InvalidConfig when the config file's `name` section sets a key
    of `used` to another value than `source` gives the run."""
    for key, value in section.items():
        if key in used and value != used[key]:
            raise InvalidConfig(
                f"config field {name}.{key} is {value!r}, but {source} sets it to {used[key]!r}"
            )


def _resolve_topology(args, file_cfg: dict, table) -> TopologyConfig:
    merged = _config_section(file_cfg, "topology", TopologyConfig)
    _check_agrees(merged, "topology", {"emb_dim": table.dim}, f"--embeddings {args.embeddings}")
    for flag, key in (("variant", "variant"), ("rnn", "rnn_kind"),
                      ("conv_axis", "conv_axis"), ("seq_len", "seq_len")):
        value = getattr(args, flag, None)
        if value is not None:
            merged[key] = value
    topo = TopologyConfig(**{**TopologyConfig().__dict__, **merged, "emb_dim": table.dim})
    topo.validate()
    return topo


def _resolve_train(args, file_cfg: dict, loss_mode: str) -> TrainConfig:
    merged = _config_section(file_cfg, "train", TrainConfig)
    if args.command != "tune":  # tune trains the head with cross-entropy whatever the mode
        _check_agrees(merged, "train", {"loss_mode": loss_mode}, f"the {args.command} subcommand")
    for flag, key in (("seed", "seed"), ("epochs", "epochs"),
                      ("ensemble_size", "ensemble_size"),
                      ("batch_size", "batch_size"), ("lr", "base_lr"),
                      ("tune_lr", "tune_lr"), ("tune_epochs", "tune_epochs"),
                      ("bounds_k", "bounds_k")):
        value = getattr(args, flag, None)
        if value is not None:
            merged[key] = value
    merged["loss_mode"] = loss_mode
    cfg = TrainConfig(**{**TrainConfig().__dict__, **merged, "class_weights": None})
    cfg.validate()
    return cfg


def _resolve_class_weights(
    spec: "str | ClassWeights | None", stats
) -> "ClassWeights | None":
    if spec is None or spec == "uniform":
        return None
    if spec == "imbalance":
        return imbalance_weights(stats)
    return spec


def _make_table(args):
    spec = args.embeddings
    if spec.startswith("synthetic:"):
        _, seed, dim = spec.split(":")
        return synthetic_table(int(seed), int(dim))
    if args.emb_dim is None:
        raise HatenetError("--emb-dim is required for file-backed embeddings")
    return load_table(spec, args.emb_dim)


# the reader of each labeled dataset flag of _add_data_args, by its destination
_DATASETS = {"hon": load_hon, "olid": load_olid, "labeled_lines": load_labeled_lines}


def _load_labeled(args) -> LabeledCorpus:
    corpora = [load(getattr(args, dest)) for dest, load in _DATASETS.items()
               if getattr(args, dest)]
    if not corpora:
        raise HatenetError(
            "no dataset given: pass --hon, --olid and/or --labeled-lines"
        )
    return corpora[0] if len(corpora) == 1 else combine(corpora)


def _write_json(out: Path, name: str, payload: dict) -> None:
    """Write <out>/<name>.json, making the run directory on the first write."""
    out.mkdir(parents=True, exist_ok=True)
    write_whole(out / f"{name}.json", json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_telemetry(out: Path, traces) -> None:
    records = []
    for member, trace in enumerate(traces):
        for rec in trace.epochs:
            records += [{"member": member, "epoch": rec.epoch, "split": "train",
                         "loss": rec.train_loss, "hate_recall": None},
                        {"member": member, "epoch": rec.epoch, "split": "valid",
                         "loss": rec.valid_loss, "hate_recall": rec.valid_hate_recall}]
        records.append({"member": member, "best_epoch": trace.best_epoch})
    write_whole(out / "telemetry.jsonl",
                "".join(json.dumps(record, sort_keys=True) + "\n" for record in records))


def _mean_reports(reports: list[dict]) -> dict:
    keys = [k for k, v in reports[0].items() if isinstance(v, (int, float))]
    return {k: float(np.mean([r[k] for r in reports])) for k in keys}


def cmd_train(args) -> int:
    file_cfg = _load_config_file(args.config)
    table = _make_table(args)
    topo = _resolve_topology(args, file_cfg, table)
    cfg = _resolve_train(args, file_cfg, SUPERVISED)
    corpus = _load_labeled(args)
    spec = SplitSpec(seed=args.split_seed)
    train_split, valid_split, test_split = split(corpus, spec)
    if len(valid_split) == 0:
        raise CorpusTooSmall(
            f"the {len(corpus)}-post corpus splits {len(train_split)}/0/{len(test_split)}: "
            "training needs a non-empty 10% validation split"
        )
    if len(test_split) == 0:
        print("warning: corpus too small for a non-empty 10% test split; "
              "the test report will be all zeros", file=sys.stderr)
    out = Path(args.out)
    _write_json(out, "config", {
        "command": "train",
        "topology": topo.to_dict(),
        "train": {k: v for k, v in asdict(cfg).items() if k != "class_weights"},
        "data": {dest: getattr(args, dest) for dest in _DATASETS},
        "embeddings": table.name,
        "split_seed": args.split_seed,
        "trials": args.trials,
    })
    reports = []
    for trial in range(args.trials):
        trial_cfg = TrainConfig(**{**asdict(cfg), "seed": cfg.seed + 1000 * trial,
                                   "class_weights": None})
        bundle, traces = train_ensemble(
            trial_cfg, topo, table, train_split, valid_split, jobs=args.jobs
        )
        trial_dir = out if args.trials == 1 else out / f"trial_{trial}"
        save_bundle(bundle, trial_dir)
        _write_telemetry(trial_dir, traces)
        rep = evaluate(bundle, test_split, table)
        _write_json(trial_dir, "report", rep)
        reports.append(rep)
        print(f"trial {trial} (seed {trial_cfg.seed}) test metrics:")
        print(format_report(rep))
    if args.trials > 1:
        mean_rep = _mean_reports(reports)
        _write_json(out, "report_mean", mean_rep)
        print(f"mean over {args.trials} trials:")
        print(format_report({**reports[0], **mean_rep}))
    return EXIT_OK


def cmd_weak_train(args) -> int:
    file_cfg = _load_config_file(args.config)
    table = _make_table(args)
    topo = _resolve_topology(args, file_cfg, table)
    cfg = _resolve_train(args, file_cfg, WEAK)
    if not (args.lex_hate and args.lex_offensive and args.lex_positive):
        print("weak training needs --lex-hate, --lex-offensive and --lex-positive",
              file=sys.stderr)
        return EXIT_USAGE
    lexicon = load_lexicon(args.lex_hate, args.lex_offensive, args.lex_positive)
    pool = load_unlabeled(args.unlabeled)
    if not pool:
        raise HatenetError(f"no posts in {args.unlabeled}")
    stats = weak_label_stats(pool, lexicon, cfg.bounds_k)
    if not stats.any_evidence():
        print("every post has vacuous bounds: the lexicons match no tokens, "
              "so the weak loss is identically 0; aborting", file=sys.stderr)
        return EXIT_DATA
    cfg.class_weights = _resolve_class_weights(args.class_weights, stats)
    rng = np.random.default_rng(args.split_seed)
    order = rng.permutation(len(pool))
    n_valid = max(1, len(pool) // 10)
    valid_posts = [pool[i] for i in order[:n_valid]]
    train_posts = [pool[i] for i in order[n_valid:]] or valid_posts
    out = Path(args.out)
    _write_json(out, "config", {
        "command": "weak-train",
        "topology": topo.to_dict(),
        "train": {k: v for k, v in asdict(cfg).items() if k != "class_weights"},
        "class_weights": None if cfg.class_weights is None
        else list(cfg.class_weights.w),
        "data": {"unlabeled": args.unlabeled, "test": args.test},
        "lexicons": {"hate": args.lex_hate, "offensive": args.lex_offensive,
                     "positive": args.lex_positive},
        "embeddings": table.name,
        "split_seed": args.split_seed,
    })
    bundle, traces = train_ensemble(
        cfg, topo, table, train_posts, valid_posts, lexicon=lexicon, jobs=args.jobs
    )
    save_bundle(bundle, out)
    _write_telemetry(out, traces)
    print(f"trained {bundle.size()} member(s) on {len(train_posts)} unlabeled posts")
    if args.test:
        rep = evaluate(bundle, load_labeled_lines(args.test), table)
        _write_json(out, "report", rep)
        print(format_report(rep))
    return EXIT_OK


def cmd_tune(args) -> int:
    file_cfg = _load_config_file(args.config)
    cfg = _resolve_train(args, file_cfg, SUPERVISED)
    bundle = load_bundle(args.bundle)
    topology = _config_section(file_cfg, "topology", TopologyConfig)
    _check_agrees(topology, "topology", bundle.topology.to_dict(), f"--bundle {args.bundle}")
    TopologyConfig.from_dict({**bundle.topology.to_dict(), **topology})  # the values' types
    # training fields that tune does not use: the bundle's run set them
    trained = {key: bundle.provenance[key] for key in ("ensemble_size", "epochs", "loss_mode")
               if key in bundle.provenance}
    try:  # echoed into config.json, which --config reads back through these rules
        replace(cfg, **trained).validate()
    except InvalidConfig as exc:
        raise InvalidConfig(f"--bundle {args.bundle} provenance: {exc}") from None
    _check_agrees(_config_section(file_cfg, "train", TrainConfig), "train", trained,
                  f"--bundle {args.bundle}")
    table = _make_table(args)
    target = load_labeled_lines(args.target)
    check_tuning(bundle, target, table)  # before the run directory is made
    test = load_labeled_lines(args.test) if args.test else target
    if args.test and len(test) == 0:  # an empty target fails check_tuning
        print(f"warning: --test {args.test} holds no posts; "
              "the test report will be all zeros", file=sys.stderr)
    out = Path(args.out)
    unused = ("class_weights", "base_lr", "bounds_k", "ensemble_size", "epochs", "loss_mode")
    _write_json(out, "config", {
        "command": "tune",
        "bundle": args.bundle,
        "target": args.target,
        "test": args.test,
        "train": {**{k: v for k, v in asdict(cfg).items() if k not in unused}, **trained},
        "embeddings": table.name,
    })
    tuned = tune(bundle, target, cfg, table)
    before, after = evaluate_heads([bundle, tuned], test, table)  # one features pass
    save_bundle(tuned, out)
    _write_json(out, "report", {"pre_tuning": before, "post_tuning": after})
    print("pre-tuning:")
    print(format_report(before))
    print("post-tuning:")
    print(format_report(after))
    return EXIT_OK


def cmd_predict(args) -> int:
    bundle = load_bundle(args.bundle)
    table = _make_table(args)
    posts = load_unlabeled(args.input)
    lines = (json.dumps({
        "source_id": post.source_id,
        "label": LABEL_NAMES[result.label],
        "votes": [LABEL_NAMES[v] for v in result.votes],
        "mean_probs": [round(p, 6) for p in result.mean_probs.tolist()],
    }, sort_keys=True) + "\n" for post, result in zip(posts, predict_all(bundle, posts, table)))
    if args.output:  # replaced only once every line is built
        write_whole(args.output, "".join(lines))
    else:
        sys.stdout.writelines(lines)  # streamed
    return EXIT_OK


def cmd_evaluate(args) -> int:
    bundle = load_bundle(args.bundle)
    table = _make_table(args)
    corpus = _load_labeled(args)
    rep = evaluate(bundle, corpus, table)
    print(format_report(rep))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if not args.layer and not args.all:
        print("pass --layer <name> or --all", file=sys.stderr)
        return EXIT_USAGE
    if args.layer:
        if args.layer not in gradcheck_mod.REGISTRY:
            known = ", ".join(sorted(gradcheck_mod.REGISTRY))
            print(f"unknown layer {args.layer!r}; registered: {known}", file=sys.stderr)
            return EXIT_USAGE
        reports = [gradcheck_mod.check(args.layer, seed=args.seed, trials=args.trials)]
    else:
        reports = gradcheck_mod.run_all(seed=args.seed, trials=args.trials)
    failed = False
    for rep in reports:
        print(rep)
        failed = failed or not rep.passed
    return EXIT_NUMERIC if failed else EXIT_OK


def cmd_preprocess(args) -> int:
    for post in load_unlabeled(args.input):
        seq = preprocess(post)
        print(json.dumps(
            {"source_id": post.source_id, "tokens": seq.tokens}, sort_keys=True
        ))
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "weak-train": cmd_weak_train,
    "tune": cmd_tune,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "gradcheck": cmd_gradcheck,
    "preprocess": cmd_preprocess,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (NumericError, NonFiniteValue) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (HatenetError, OSError, UnicodeDecodeError) as exc:
        # OSError: a path that is missing, a directory, or an existing file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
