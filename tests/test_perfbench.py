import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_gab_transfer_k5_tiny_run_is_correct():
    """The one workload that saves a bundle, loads it back and checks it
    against the reference's own checkpoint reader, on its tiny shape."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "gab_transfer_k5",
         "--shape", "tiny", "--seed", "7", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
