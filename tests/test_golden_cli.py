"""Golden CLI outputs: stdout of thirty-three fixed commands, pinned byte for byte.

Every subcommand and emit format has at least one command here.  The files
under golden/ were captured before the code they pin was changed; any change
to what these commands print shows up here.  All of them together run in
about a second.
"""
from pathlib import Path

import pytest

from quadrec.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "search-wieferich-base-2": ["search-wieferich", "--base", "2", "--to", "20000"],
    "search-wieferich-base-2-csv": ["search-wieferich", "--base", "2",
                                    "--to", "20000", "--emit", "csv"],
    "search-wieferich-base-phi": ["search-wieferich", "--base", "(1+sqrt(5))/2",
                                  "--field-d", "5", "--to", "20000"],
    "search-wieferich-base-phi-csv": ["search-wieferich", "--base",
                                      "(1+sqrt(5))/2", "--field-d", "5",
                                      "--to", "20000", "--emit", "csv"],
    "search-wieferich-base-3-workers-2": ["search-wieferich", "--base", "3",
                                          "--to", "20000", "--workers", "2"],
    # 7a lies in the support of 1+2*sqrt(2) (norm -7), so 7 hits at 7b alone
    "search-wieferich-base-1-plus-2-sqrt-2-csv": ["search-wieferich", "--base",
                                                  "1+2*sqrt(2)", "--to", "20000",
                                                  "--emit", "csv"],
    # a rational base put in Q(sqrt(5)): 1093 stays inert, 3511 splits
    "search-wieferich-base-2-field-5": ["search-wieferich", "--base", "2",
                                        "--field-d", "5", "--to", "20000"],
    "search-wss": ["search-wss", "--to", "20000"],
    # an empty range is one shard, scanned in this process with no pool
    "search-wss-from-10-to-10-workers-2": ["search-wss", "--from", "10",
                                           "--to", "10", "--workers", "2"],
    "search-wss-csv": ["search-wss", "--to", "20000", "--emit", "csv"],
    "certify-base-2": ["certify", "--base", "2", "--bound", "1000000000000"],
    "certify-base-2-csv": ["certify", "--base", "2", "--bound", "1000000000000",
                           "--emit", "csv"],
    "certify-base-2-field-5": ["certify", "--base", "2", "--field-d", "5",
                               "--bound", "1000000"],
    "certify-base-1-plus-sqrt-2": ["certify", "--base", "1+sqrt(2)",
                                   "--bound", "100000000"],
    "certify-base-1-plus-sqrt-2-csv": ["certify", "--base", "1+sqrt(2)",
                                       "--bound", "100000000", "--emit", "csv"],
    "period-lucas-3087": ["period", "--tuple", "lucas", "--mod", "3087"],
    # 50015 = 5 * 7 * 1429 is degenerate at 5: the CLI iterates mod 5 alone,
    # so the method is brute_force and no orders are listed
    "period-fibonacci-50015-json": ["period", "--tuple", "fibonacci",
                                    "--mod", "50015", "--emit", "json"],
    # 5000015 = 5 * 1000003: only the part mod 5 is iterated
    "period-fibonacci-5000015-json": ["period", "--tuple", "fibonacci",
                                      "--mod", "5000015", "--emit", "json"],
    # 119 = 7 * 17, both split in Q(sqrt(2)): four ideals on the formula route
    "period-custom-sqrt-2-119-json": ["period", "--tuple",
                                      "1+sqrt(2),1-sqrt(2);1,1",
                                      "--mod", "119", "--emit", "json"],
    # 1001+3*sqrt(2) has norm 1001983 and lies in 1001983b alone, so only
    # that ideal is iterated; the formula answers at 1001983a
    "period-custom-sqrt-2-1001983-json": ["period", "--tuple",
                                          "1+sqrt(2),1-sqrt(2);1001+3*sqrt(2),1",
                                          "--mod", "1001983", "--emit", "json"],
    # rational tuples of orders 1, 3 and 4, each degenerate at a prime of its
    # modulus (a weight of 7 or 11), so the CLI iterates that prime's part
    "period-rational-order-1-70-json": ["period", "--tuple", "3;7", "--mod", "70",
                                        "--emit", "json"],
    "period-rational-order-3-1001-json": ["period", "--tuple", "2,3,5;7,1,1",
                                          "--mod", "1001", "--emit", "json"],
    "period-rational-order-4-143-json": ["period", "--tuple", "2,3,5,7;11,1,1,1",
                                         "--mod", "143", "--emit", "json"],
    "abc-quality-base-2-csv": ["abc-quality", "--base", "2", "--n-to", "12"],
    "abc-quality-base-1-plus-sqrt-2-json": ["abc-quality", "--base", "1+sqrt(2)",
                                            "--n-to", "12", "--emit", "json"],
    # n = 96 and 100 have square factors, so the quality exceeds 1 there
    "abc-quality-base-phi-95-100-json": ["abc-quality", "--base", "(1+sqrt(5))/2",
                                         "--n-from", "95", "--n-to", "100",
                                         "--emit", "json"],
    "phi-ratio-base-2-csv": ["phi-ratio", "--base", "2", "--n-to", "12"],
    "phi-ratio-base-2-json": ["phi-ratio", "--base", "2", "--n-to", "12",
                              "--emit", "json"],
    # (1+sqrt(2))^2 * (3-2*sqrt(2)) = 1 is the torsion relation
    "rank-three-gens-torsion": ["rank", "--gen", "1+sqrt(2)",
                                "--gen", "3-2*sqrt(2)", "--gen", "2"],
    "heuristic-2-3-csv": ["heuristic", "--gen", "2", "--gen", "3",
                          "--bound", "1000"],
    "heuristic-2-3-json": ["heuristic", "--gen", "2", "--gen", "3",
                           "--bound", "1000", "--emit", "json"],
    "heuristic-2-3-field-5": ["heuristic", "--gen", "2", "--gen", "3",
                              "--field-d", "5", "--bound", "10000"],
    "heuristic-1-plus-2-sqrt-2-3": ["heuristic", "--gen", "1+2*sqrt(2)",
                                    "--gen", "3", "--bound", "100000"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, capsys):
    want = (GOLDEN / f"{name}.out").read_bytes()
    assert main(list(COMMANDS[name])) == 0
    assert capsys.readouterr().out.encode("utf-8") == want
