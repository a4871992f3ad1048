"""The README's library quickstart, its command-line examples and every
demo run as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from polydecomp.cli import main

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


def cli_examples():
    """(argv, shown output) for each README command-line example whose
    comment is the command's output; prose comments are skipped."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    examples = []
    for para in block.split("\n\n"):
        lines = para.strip().splitlines()
        command = "\n".join(line for line in lines if not line.startswith("#"))
        argv = shlex.split(command)[1:]
        if argv[0] in ("compose", "decompose", "collide"):
            shown = " ".join(line.lstrip("#").strip() for line in lines if line.startswith("#"))
            examples.append((argv, shown))
    return examples


def test_readme_cli_examples_print_what_they_show(capsys):
    examples = cli_examples()
    assert sorted(argv[0] for argv, _ in examples) == ["collide", "compose", "decompose"]
    for argv, shown in examples:
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == shown, argv


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # pytest's warning filters do not reach a subprocess, so each demo runs
    # with every warning an error
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
