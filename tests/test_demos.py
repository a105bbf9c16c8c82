"""Smoke test: every script in ``demos/``, and README's quickstart, runs.

Each runs in its own interpreter, with the checkout's ``src`` first on
``PYTHONPATH`` and a RuntimeWarning raised as an error, as in the library
tests, and must exit 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW = {"04_benchmark_report.py"}  # ~12 s; the others take 1-3 s
# the python block under README's "Library quickstart" heading
QUICKSTART = ((ROOT / "README.md").read_text().split("## Library quickstart")[1]
              .split("```python\n")[1].split("```")[0])


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", [
    pytest.param(path, id=path.name,
                 marks=[pytest.mark.slow] if path.name in SLOW else [])
    for path in DEMOS
] + [pytest.param(QUICKSTART, id="README-quickstart")])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    script = ["-c", demo] if isinstance(demo, str) else [str(demo)]
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           *script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
