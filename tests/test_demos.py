"""Every demo and every README python block runs to completion and prints something."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run_python(str(demo))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_python_blocks_run():
    """A "# <text>" comment after a block's last print is its last stdout line."""
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    assert blocks
    for code in blocks:
        proc = _run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()
        lines = code.splitlines()
        last_print = max(i for i, line in enumerate(lines) if line.lstrip().startswith("print("))
        comments = [line[2:] for line in lines[last_print + 1:] if line.startswith("# ")]
        if comments:
            assert proc.stdout.splitlines()[-1] == comments[-1]
