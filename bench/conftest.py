"""Make the benchmark's modules and this checkout's seqdg importable by
the benchmark's own tests (`python3 -m pytest bench`)."""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "bench")]
