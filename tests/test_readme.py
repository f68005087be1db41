"""README.md names only scripts that exist and commands the CLI accepts,
and its library quick start predicts the surface it fits.

The command examples are parsed, not run; the python block is run.
"""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from hbspline.bench import eval_function
from hbspline.cli import _build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _fenced_commands():
    """Every `hbspline ...` line in a fenced block, continuations joined."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("hbspline "):
                commands.append(line)
    return commands


def test_named_scripts_exist():
    scripts = set(re.findall(r"scripts/[\w-]+\.py", README.read_text(encoding="utf-8")))
    assert scripts
    for name in sorted(scripts):
        assert (README.parent / name).is_file(), f"README names missing {name}"


def test_examples_found():
    assert len(_fenced_commands()) >= 5


@pytest.mark.parametrize("command", _fenced_commands())
def test_example_parses(command):
    argv = shlex.split(command)[1:]
    try:
        _build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"README example does not parse ({exc.code}): {command}")


def test_quick_start_predicts_the_surface():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    # yhat is at the training rows; the noiseless surface is f1 there.
    surface = eval_function("f1", namespace["data"].X)
    mse = float(np.mean((namespace["yhat"] - surface) ** 2))
    assert mse < 0.1 * float(np.var(surface)), mse
