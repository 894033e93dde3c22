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
