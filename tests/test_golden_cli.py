"""Golden CLI outputs: stdout of seven fixed commands, pinned byte for byte.

The files under golden/ were captured before the residue kernel moved to
plain ints; any change to what these commands print shows up here.  All
of them together run in well under two seconds.
"""
from pathlib import Path

import pytest

from quadrec.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "search-wieferich-base-2": ["search-wieferich", "--base", "2", "--to", "20000"],
    "search-wieferich-base-phi": ["search-wieferich", "--base", "(1+sqrt(5))/2",
                                  "--field-d", "5", "--to", "20000"],
    "search-wss": ["search-wss", "--to", "20000"],
    "certify-base-2": ["certify", "--base", "2", "--bound", "1000000000000"],
    "certify-base-1-plus-sqrt-2": ["certify", "--base", "1+sqrt(2)",
                                   "--bound", "100000000"],
    "period-lucas-3087": ["period", "--tuple", "lucas", "--mod", "3087"],
    # 50015 = 5 * 7 * 1429 is degenerate at 5: the CLI iterates all of it
    "period-fibonacci-50015-json": ["period", "--tuple", "fibonacci",
                                    "--mod", "50015", "--emit", "json"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, capsys):
    want = (GOLDEN / f"{name}.out").read_bytes()
    assert main(list(COMMANDS[name])) == 0
    assert capsys.readouterr().out.encode("utf-8") == want
