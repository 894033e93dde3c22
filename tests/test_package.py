from pathlib import Path

import hatenet as hn
from hatenet import corpus

from conftest import tiny_topology

FIXTURES = Path(__file__).parent / "fixtures"


def test_corpus_loaders_are_exported():
    for name in ("load_hon", "load_olid", "load_labeled_lines", "load_unlabeled"):
        assert name in hn.__all__
        assert getattr(hn, name) is getattr(corpus, name)


def test_readme_library_tour(tmp_path):
    table = hn.synthetic_table(seed=0, dim=6)
    labeled = hn.combine([hn.load_hon(str(FIXTURES / "hon_sample.csv"))])
    train, valid, test = hn.split(labeled, hn.SplitSpec(seed=0))

    topo = tiny_topology()
    cfg = hn.TrainConfig(ensemble_size=1, epochs=1, seed=0)
    bundle, traces = hn.train_ensemble(cfg, topo, table, train, valid)

    assert 0.0 <= hn.evaluate(bundle, test, table)["macro_f1"] <= 1.0

    result = hn.predict(bundle, hn.RawPost("some new post"), table)
    assert result.label in (0, 1, 2)
    hn.save_bundle(bundle, tmp_path / "demo")
    assert hn.load_bundle(tmp_path / "demo").size() == 1

    target = hn.load_labeled_lines(str(FIXTURES / "target_lines.txt"))
    tuned = hn.tune(hn.load_bundle(tmp_path / "demo"), target, cfg, table)
    assert tuned.size() == 1
