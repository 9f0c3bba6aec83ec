"""Every demo script and the README's library session run to completion
against the package, and every name the package exports is bound."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import isgenum

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_library_session(capsys):
    readme = (ROOT / "README.md").read_text()
    session = re.search(
        r"A typical library session:\n\n```python\n(.*?)```", readme, re.S
    ).group(1)
    exec(compile(session, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # two atoms in one D-class over a C2 zero: two orders of six elements
    assert len(lines) == 2
    assert all(line.startswith("6 ") for line in lines)


def test_exported_names_are_bound():
    modules = [isgenum] + [
        importlib.import_module(f"isgenum.{info.name}")
        for info in pkgutil.iter_modules(isgenum.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
