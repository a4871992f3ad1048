"""The README's library quickstart and every demo run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def quickstart_code():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quickstart_runs():
    code = quickstart_code()
    namespace = {}
    exec(compile(code, "README.md quickstart", "exec"), namespace)
    # the repr shown in the comment under the last call is the real one
    shown = code.split("density_bounds(spec)\n", 1)[1]
    shown = "".join(line.lstrip("# ") for line in shown.splitlines())
    real = repr(namespace["density_bounds"](namespace["spec"]))
    assert shown.replace(" ", "") == real.replace(" ", "")


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
