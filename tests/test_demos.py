"""Smoke test: every demo script and the README quick start run to completion.

Each script is written into a temporary directory first, so the outputs it
writes next to itself land there and not in the checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinchain

ROOT = Path(__file__).resolve().parents[1]


def _readme_quick_start() -> str:
    """The Python block under the README's "Quick start" heading."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


SCRIPTS = {p.stem: p.read_text(encoding="utf-8") for p in sorted((ROOT / "demos").glob("*.py"))}
SCRIPTS["readme_quick_start"] = _readme_quick_start()


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_demo_runs(name, tmp_path):
    script = tmp_path / f"{name}.py"
    script.write_text(SCRIPTS[name], encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(spinchain.__file__).resolve().parents[1]),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
