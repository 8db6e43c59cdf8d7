"""The peak resident memory of a code snippet run in a fresh interpreter."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import subamp

# VmHWM is the child's own peak. ru_maxrss is not: Linux copies the
# parent's peak into it across fork and exec, so it would read the test
# process. Where there is no /proc (macOS), ru_maxrss is all there is.
_PRINT_PEAK = (
    "import os, resource\n"
    "if os.path.exists('/proc/self/status'):\n"
    "    with open('/proc/self/status') as fh:\n"
    "        print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n"
    "else:\n"
    "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
)


def child_peak_mb(code: str) -> float:
    """Run code in a child Python with subamp importable; its peak RSS in MB."""
    env = {**os.environ, "PYTHONPATH": str(Path(subamp.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code + _PRINT_PEAK], env=env, capture_output=True, text=True,
        check=True, timeout=600,
    )
    # VmHWM and Linux's ru_maxrss are in KiB, macOS's ru_maxrss in bytes.
    return int(out.stdout.split()[-1]) / (2**20 if sys.platform == "darwin" else 2**10)
