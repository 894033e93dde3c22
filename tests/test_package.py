import ast
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


class _FileOpens(ast.NodeVisitor):
    """(enclosing function, callee, mode) of each call that opens, reads or
    writes a file: ``open``, ``read_text``, ``write_text`` and ``write_bytes``."""

    WRITE_MODES = {"write_text": "w", "write_bytes": "wb"}

    def __init__(self):
        self.scope = ["<module>"]
        self.calls = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name in ("open", "read_text"):
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            mode = modes[0].value if modes and isinstance(modes[0], ast.Constant) else None
            self.calls.append((self.scope[-1], name, mode if modes else "r"))
        elif name in self.WRITE_MODES:
            self.calls.append((self.scope[-1], name, self.WRITE_MODES[name]))
        self.generic_visit(node)


def test_text_inputs_open_through_open_utf8():
    """Every text input opens through corpus.open_utf8, which decodes UTF-8,
    drops a byte-order mark and names a file that does not decode; the
    word-vector file is read as bytes.  Every file the package writes (run
    directory files, bundles, predict --output) goes through
    corpus.write_whole, which writes it whole or not at all."""
    calls = []
    for path in sorted(Path(hn.__file__).parent.glob("*.py")):
        visitor = _FileOpens()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        calls += [(path.name, *call) for call in visitor.calls]
    assert sorted(calls) == [
        ("corpus.py", "open_utf8", "open", "r"),
        ("corpus.py", "write_whole", "write_bytes", "wb"),
        ("embeddings.py", "load_table", "open", "rb"),
    ]
