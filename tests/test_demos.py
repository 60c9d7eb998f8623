"""Every demo script runs to completion against the package as it stands.

Each demo runs in its own interpreter, in a temporary working directory
(06 writes ``demo_output/`` there), with RuntimeWarnings as errors.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cssident

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("[0-9][0-9]_*.py"))


def test_all_demos_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(tmp_path, demo):
    src = str(Path(cssident.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
