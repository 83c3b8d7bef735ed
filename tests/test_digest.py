"""scripts/digest.py: one SHA-256 per workload, seed and route."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "digest.py"


def test_digest_prints_one_line_per_route_of_suite():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "suite", "--seeds", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[:3] for line in lines] == [
        ["suite", "0", route] for route in ("nash", "connected", "dynamics", "oracle", "verify")
    ]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split()[3]) for line in lines)
