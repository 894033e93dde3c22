import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["hon_gru", "gab_weak_lstm", "gab_transfer_k5"])
def test_tiny_run_is_correct(workload):
    """Each workload on its tiny shape passes every check of its run: the
    training workloads' best-epoch, reference-forward and digest checks,
    and the transfer workload's save, load and checkpoint-reader checks."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--shape", "tiny", "--seed", "7", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr


# per-layer metrics each workload's traced run must see: the wrapped names
# (perfbench/tracer.py) are the program's, so a renamed or bypassed layer
# would read 0 instead of failing
TRACED_LAYERS = {
    "hon_gru": ["autograd.conv1d_fwd_ms", "autograd.conv1d_bwd_ms", "layers.gru_fwd_ms",
                "layers.fc_fwd_ms", "autograd.backward_ms", "optim.adam_step_ms"],
    "gab_weak_lstm": ["autograd.conv1d_fwd_ms", "autograd.conv1d_bwd_ms", "layers.lstm_fwd_ms",
                      "weaksup.weak_loss_ms", "autograd.backward_ms", "optim.adam_step_ms"],
    "gab_transfer_k5": ["ensemble.load_bundle_ms", "layers.fc_fwd_ms",
                        "layers.cross_entropy_ms", "optim.adam_step_ms"],
}


@pytest.mark.parametrize("workload", sorted(TRACED_LAYERS))
def test_traced_run_wraps_every_layer(workload):
    """The traced run on the tiny shape finds every name it wraps and
    records time in each layer the workload runs."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--shape", "tiny", "--seed", "7", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "absent from the program" not in proc.stderr, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    silent = [name for name in TRACED_LAYERS[workload]
              if not result["metrics"][name]["value"]]
    assert not silent, f"traced layers read 0: {silent}"
