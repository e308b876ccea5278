"""The cold path: each check runs in a fresh interpreter.

mpmath and the process pool are imported inside the functions that use them,
so a command that computes no height and runs one worker loads neither.  A
test in this process would see whatever earlier tests imported, so these run
`sys.executable` afresh with only src/ on the path.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden_cli import COMMANDS, GOLDEN

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p.stem for p in (SRC / "quadrec").glob("*.py"))
HEAVY = ("mpmath", "multiprocessing", "concurrent.futures.process")


def _fresh(*args: str) -> bytes:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, timeout=120).stdout


def test_importing_every_module_loads_no_heavy_dependency():
    assert "cli" in MODULES and "heights" in MODULES
    code = ("import importlib, sys\n"
            f"for m in {MODULES!r}:\n"
            "    importlib.import_module('quadrec.' + m)\n"
            f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))\n")
    assert _fresh("-c", code) == b"[]\n"


def test_importing_every_module_adds_neither_dataclasses_nor_inspect():
    # the snapshot comes first, so a site hook that loads them is not blamed
    code = ("import importlib, sys\n"
            "before = set(sys.modules)\n"
            f"for m in {MODULES!r}:\n"
            "    importlib.import_module('quadrec.' + m)\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules) - before))\n")
    assert _fresh("-c", code) == b"[]\n"


@pytest.mark.parametrize("name", ["abc-quality-base-1-plus-sqrt-2-json",
                                  "phi-ratio-base-2-csv"])
def test_first_height_in_a_fresh_interpreter_matches_golden(name):
    out = _fresh("-m", "quadrec.cli", *COMMANDS[name])
    assert out == (GOLDEN / f"{name}.out").read_bytes()
