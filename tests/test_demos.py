"""The surface, cover, BRW and tails demos run end to end (about 0.5, 1.6,
2 and 0.6 s), and each one's output is pinned byte for byte.  The oracle
and bounds demos (about 13 and 4 s) are left out to keep the suite fast.
The README's Python example runs as written."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# SHA-256 of a demo's stdout, for the demos whose output is pinned
_STDOUT_DIGESTS = {
    "surface_demo.py":
        "62c6892290f80e33bd77aa590708a79f751a68055c0eaedb98e43d24478cbf53",
    "cover_demo.py":
        "1aa0764bb3e1f4af059007d2211026fa7bacc19e988e19f1f7324d7d562dfa91",
    "brw_demo.py":
        "9d46295072818e00d4681555b86944e1d78289591debfd303f447ce6da794cea",
    "tails_demo.py":
        "70ec2459212d97311360be10909c2592f4c99c0140f941ee6db62f8f8b4b4907",
}


@pytest.mark.parametrize("demo", ["surface_demo.py", "cover_demo.py",
                                  "brw_demo.py", "tails_demo.py"])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if demo in _STDOUT_DIGESTS:
        digest = hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest()
        assert digest == _STDOUT_DIGESTS[demo]


def test_readme_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
