"""CLI surface: literal grammar, config canonicalization, output discipline,
exit codes, sharded workers, and checkpoint round-trips."""
import json
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrec import cli
from quadrec.cli import (RunConfig, format_quadratic, main, parse_args,
                         parse_quadratic)
from quadrec.certificates import NonWieferichCertificate, certified_count
from quadrec.dynamics import expected_counts
from quadrec.errors import (CheckpointError, FactorizationError, QuadrecError,
                            ResourceLimitError, UsageError)
from quadrec.ring import (as_element, prime_ideals_above, qelem,
                          quadratic_field, sqrt_element)
from quadrec.search import search_range, wieferich_predicate

K5 = quadratic_field(5)
K2 = quadratic_field(2)
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def assert_stringly(obj):
    """Every numeric leaf of a decoded JSON document must be a string."""
    if isinstance(obj, bool) or obj is None:
        return
    assert not isinstance(obj, (int, float)), f"bare numeric {obj!r}"
    if isinstance(obj, list):
        for v in obj:
            assert_stringly(v)
    elif isinstance(obj, dict):
        for v in obj.values():
            assert_stringly(v)


# ---------------------------------------------------------------------------
# literals


def test_parse_examples():
    assert parse_quadratic("2") == as_element(2)
    assert parse_quadratic("-3/2") == as_element(Fraction(-3, 2))
    assert parse_quadratic("sqrt(5)") == sqrt_element(K5)
    assert parse_quadratic("-sqrt(2)") == -sqrt_element(K2)
    assert parse_quadratic("2*sqrt(2)") == qelem(K2, 0, 2)
    assert parse_quadratic("(1+sqrt(5))/2") == qelem(K5, 0, 1)
    assert parse_quadratic("(1-sqrt(5))/2") == qelem(K5, 1, -1)
    assert parse_quadratic("1/2*sqrt(5)") == qelem(K5, 0, 1, 1) - Fraction(1, 2)
    assert parse_quadratic(" ( 1 + sqrt(5) ) / 2 ") == qelem(K5, 0, 1)
    x = parse_quadratic("(2+sqrt(-1))/5")
    assert x.field.d == -1 and x * 5 - 2 == sqrt_element(x.field)


def test_parse_rejects():
    for bad in ("", "2x", "sqrt(12)", "sqrt(1)", "(1+sqrt(5))/0",
                "sqrt(5)+1", "1+sqrt(5)/2", "(1+sqrt(5)", "--2"):
        with pytest.raises(UsageError):
            parse_quadratic(bad)
    with pytest.raises(UsageError):
        parse_quadratic("sqrt(5)", field_d=2)  # literal disagrees with flag


def test_format_canonical_forms():
    assert format_quadratic(as_element(2)) == "2"
    assert format_quadratic(as_element(Fraction(-3, 2))) == "-3/2"
    assert format_quadratic(qelem(K5, 0, 1)) == "(1+sqrt(5))/2"
    assert format_quadratic(qelem(K5, 1, -1)) == "(1-sqrt(5))/2"
    assert format_quadratic(qelem(K5, -1, 2)) == "sqrt(5)"  # -1 + 2w
    assert format_quadratic(-sqrt_element(K2)) == "-sqrt(2)"
    assert format_quadratic(qelem(K2, 0, 3, 2)) == "3/2*sqrt(2)"
    assert format_quadratic(as_element(7, K5)) == "7"  # field tag drops


@settings(max_examples=300, deadline=None)
@given(d=st.sampled_from([5, 2, -1, -3, 13, -7]),
       a=st.integers(-50, 50), b=st.integers(-50, 50),
       den=st.integers(1, 50))
def test_literal_round_trip(d, a, b, den):
    x = qelem(quadratic_field(d), a, b, den)
    s = format_quadratic(x)
    assert parse_quadratic(s, d) == x


# ---------------------------------------------------------------------------
# config


def test_config_canonicalization_and_hash():
    c1 = parse_args(["search-wieferich", "--base", "(2+4*sqrt(5))/6",
                     "--to", "100"])
    c2 = parse_args(["search-wieferich", "--base", "(1+2*sqrt(5))/3",
                     "--to", "100"])
    assert c1 == c2
    assert c1.base == "(1+2*sqrt(5))/3"
    # frozen: the hash is a platform-independent function of the config
    assert c1.config_hash() == "94890a9e908b5fd1"


def test_config_defaults():
    c = parse_args(["search-wss", "--to", "50"])
    assert (c.lo, c.workers, c.emit) == (2, 1, "json")
    assert c.checkpoint is None and not c.resume


def test_parse_args_rejects():
    for argv in (["period", "--tuple", "fibonacci", "--mod", "7",
                  "--field-d", "12"],
                 ["period", "--tuple", "fibonacci", "--mod", "0"],
                 ["period", "--tuple", "nope", "--mod", "7"],
                 ["period", "--tuple", "2,3;1", "--mod", "7"],
                 ["period", "--tuple", "0,1;1,1", "--mod", "7"],  # zero root
                 ["search-wss", "--to", "50", "--workers", "0"],
                 ["search-wieferich", "--to", "50"],  # --base required
                 ["search-wss"],                      # --to required
                 ["frobnicate"]):
        with pytest.raises(UsageError):
            parse_args(argv)


@pytest.mark.parametrize("argv", [
    ["search-wieferich", "--base", "2", "--base", "3", "--to", "20000"],
    ["certify", "--base", "2", "--base", "3", "--bound", "1000"],
    ["certify", "--base", "2", "--bound", "1000", "--base", "2"],
    ["abc-quality", "--base", "2", "--base", "3"],
    ["phi-ratio", "--base", "2", "--base", "(1+sqrt(5))/2"],
    ["search-wieferich", "--base", "2", "--field-d", "5", "--field-d", "2",
     "--to", "20000"],
    ["rank", "--gen", "2", "--field-d", "5", "--field-d", "2"],
])
def test_repeated_base_exits_2(capsys, argv):
    # argparse alone keeps the last value and prints its results with exit 0
    flag = next(a for a in argv if a.startswith("--") and argv.count(a) > 1)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"{flag} given more than once" in err


@pytest.mark.parametrize("argv", [
    ["rank", "--gen", "1+sqrt(2)", "--gen", "sqrt(5)"],
    ["heuristic", "--gen", "1+sqrt(2)", "--gen", "sqrt(5)", "--bound", "100"],
    ["period", "--tuple", "1+sqrt(2),sqrt(5);1,1", "--mod", "7"],
])
def test_literals_from_two_fields_exit_2(capsys, argv):
    # rank and heuristic used to print numbers that mixed the two fields
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "elements from different fields" in err


@pytest.mark.parametrize("argv", [
    ["rank", "--gen", "1/0"],
    ["heuristic", "--gen", "1/0", "--bound", "10"],
    ["certify", "--base", "1/0*sqrt(5)", "--bound", "10"],
    ["period", "--tuple", "1/0;1", "--mod", "7"],
])
def test_zero_denominator_in_a_literal_exits_2(capsys, argv):
    # Fraction raised ZeroDivisionError: a traceback and exit 1
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: zero denominator in '1/0'\n"


@pytest.mark.parametrize("text", ["1/0+sqrt(5)", "2-1/0*sqrt(5)",
                                  "(3/0-sqrt(2))/2"])
def test_every_rational_part_refuses_a_zero_denominator(text):
    with pytest.raises(UsageError, match="zero denominator in '[13]/0'"):
        parse_quadratic(text)


# ---------------------------------------------------------------------------
# subcommands end to end


@pytest.mark.parametrize("preset, hashes", [
    ("fibonacci", ("6accc3d004dac0bc", "c20c5b8160810c7a")),
    ("lucas", ("4de873b4c0ff38c6", "3ee73d1eb9df3f18")),
])
def test_preset_in_another_field_exits_2(capsys, preset, hashes):
    # a preset is read in Q(sqrt(5)), as its literal spelling would be
    for d in ("2", "-1"):
        code, out, err = run_cli(capsys, "period", "--tuple", preset,
                                 "--mod", "10", "--field-d", d)
        assert (code, out) == (2, "")
        assert f"preset {preset} uses sqrt(5) but --field-d is {d}" in err
    # the preset's own field is still accepted, and no valid config's hash moves
    argv = ["period", "--tuple", preset, "--mod", "10"]
    cfg = parse_args(argv + ["--field-d", "5"])
    assert cfg.tuple_spec == preset and cfg.field_d == 5
    assert (cfg.config_hash(), parse_args(argv).config_hash()) == hashes


def test_period_text(capsys):
    code, out, _ = run_cli(capsys, "period", "--tuple", "fibonacci",
                           "--mod", "7")
    assert code == 0 and out == "16\n"


def test_period_usage_error(capsys):
    code, out, err = run_cli(capsys, "period", "--tuple", "fibonacci",
                             "--mod", "7", "--field-d", "12")
    assert code == 2 and out == "" and err.startswith("error:")


def test_period_json(capsys):
    code, out, _ = run_cli(capsys, "period", "--tuple", "fibonacci",
                           "--mod", "7", "--emit", "json")
    doc = json.loads(out)
    assert_stringly(doc)
    assert doc["period"] == "16" and doc["method"] == "formula"
    assert all(o["order"] == "16" for o in doc["orders"])


def test_period_brute_fallback(capsys):
    # 5 ramifies in Q(sqrt(5)), so mod 10 routes through the brute-force oracle
    code, out, _ = run_cli(capsys, "period", "--tuple", "lucas",
                           "--mod", "10", "--emit", "json")
    doc = json.loads(out)
    assert code == 0 and doc["period"] == "12"
    assert doc["method"] == "brute_force"


def test_period_custom_tuple(capsys):
    code, out, _ = run_cli(capsys, "period", "--tuple", "2,3;1,-1",
                           "--mod", "11")
    assert code == 0 and out == "10\n"


def test_period_degenerate_weight_exits_3(capsys):
    # 1/2 cannot be reduced mod 2: formula refuses, brute force refuses too
    code, _, err = run_cli(capsys, "period", "--tuple", "3;1/2", "--mod", "2")
    assert code == 3 and "error:" in err


def test_certify_stream(capsys):
    code, out, _ = run_cli(capsys, "certify", "--base", "2",
                           "--bound", "1000")
    assert code == 0
    lines = [json.loads(ln) for ln in out.splitlines()]
    for doc in lines:
        assert_stringly(doc)
    *rows, summary = lines
    assert summary == {"bound": "1000", "certified": "6", "skipped": []}
    assert {"gamma": "2", "field_d": None, "n": "3", "p": "7",
            "ideal_kind": "rational", "order_check": True,
            "square_check": True} in rows
    assert [r["p"] for r in rows] == ["3", "7", "5", "31", "127", "17"]


def test_certify_quadratic_base_csv(capsys):
    code, out, _ = run_cli(capsys, "certify", "--base", "(1+sqrt(5))/2",
                           "--bound", "200", "--emit", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema: quadrec.certify.v1"
    assert lines[1] == "gamma,field_d,n,p,ideal_kind,order_check,square_check"
    assert "(1+sqrt(5))/2,5,3,2,inert,true,true" in lines
    assert lines[-1].startswith("# certified: ")


def test_certify_torsion_base_exits_2(capsys):
    code, _, err = run_cli(capsys, "certify", "--base", "-1", "--bound", "100")
    assert code == 2 and "error:" in err


def test_certify_prints_certified_count(capsys):
    code, out, _ = run_cli(capsys, "certify", "--base", "3/2",
                           "--bound", "10000000")
    assert code == 0
    *rows, tail = [json.loads(line) for line in out.splitlines()]
    cc = certified_count(Fraction(3, 2), 10 ** 7)
    assert tail == {"bound": "10000000", "certified": str(cc.count),
                    "skipped": [str(n) for n in cc.skipped]}
    assert [(r["n"], r["p"]) for r in rows] == [
        (str(c.n), str(c.p)) for c in cc.certificates]


def test_certify_prime_certified_twice_exits_1(monkeypatch, capsys):
    # the library's double-certification guard reaches the CLI unchanged
    import quadrec.certificates as mod

    P7 = prime_ideals_above(None, 7)[0]

    def forged(gamma, n):
        return [NonWieferichCertificate(7, P7, n, n, 1)]

    monkeypatch.setattr(mod, "certificate_for_n", forged)
    code, out, err = run_cli(capsys, "certify", "--base", "2", "--bound", "100")
    assert code == 1 and out == "" and "error:" in err


def test_search_wieferich_known_hits(capsys):
    code, out, _ = run_cli(capsys, "search-wieferich", "--base", "2",
                           "--to", "10000")
    assert code == 0
    lines = [json.loads(ln) for ln in out.splitlines()]
    for doc in lines:
        assert_stringly(doc)
    assert [h["p"] for h in lines[:-1]] == ["1093", "3511"]
    assert lines[-1]["primes_scanned"] == "1229"


SPLIT_DEN = "(2+sqrt(13))/3"  # norm -1, yet v_3a = -1 and v_3b = 1


def test_search_wieferich_base_with_a_split_denominator(capsys):
    code, out, _ = run_cli(capsys, "search-wieferich", "--base", SPLIT_DEN,
                           "--field-d", "13", "--to", "100000")
    assert code == 0
    lines = [json.loads(ln) for ln in out.splitlines()]
    assert [(h["p"], h["ideals"]) for h in lines[:-1]] == [("5", ["5i"]),
                                                           ("97", ["97i"])]
    assert lines[-1]["hits"] == "2"


def test_heuristic_leaves_out_the_support_of_the_denominator(capsys):
    code, out, _ = run_cli(capsys, "heuristic", "--gen", SPLIT_DEN,
                           "--bound", "100")
    assert code == 0
    assert out.splitlines()[-1].startswith("100,0.726")


def test_rank_counts_valuations_at_the_denominator(capsys):
    code, out, _ = run_cli(capsys, "rank", "--gen", SPLIT_DEN,
                           "--gen", "(3+sqrt(13))/2")
    doc = json.loads(out)
    assert code == 0
    assert doc["free_rank"] == "2"
    assert doc["support_primes"] == ["3a", "3b"]


def test_search_wieferich_zero_base_exits_2(capsys):
    code, out, err = run_cli(capsys, "search-wieferich", "--base", "0",
                             "--to", "100")
    assert (code, out) == (2, "")
    assert "error: zero base" in err


def test_search_output_deterministic(capsys):
    args = ("search-wieferich", "--base", "3", "--to", "3000")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    assert "11" in out1  # 3^10 = 1 mod 121


def test_search_workers_match_serial(capsys):
    # a quadratic base's shards pickle QuadraticElement and QuadraticField
    for base, workers in ((["2"], "3"), (["(1+sqrt(5))/2", "--field-d", "5"], "2")):
        _, serial, _ = run_cli(capsys, "search-wieferich", "--base", *base,
                               "--to", "4000")
        _, sharded, _ = run_cli(capsys, "search-wieferich", "--base", *base,
                                "--to", "4000", "--workers", workers)
        assert serial == sharded


@pytest.mark.parametrize("workers", ["1", "2"])
def test_backwards_range_exits_2_on_either_path(capsys, workers):
    # a backwards range is one shard whatever the worker count, and
    # search_range refuses it
    code, out, err = run_cli(capsys, "search-wss", "--from", "10", "--to", "5",
                             "--workers", workers)
    assert (code, out) == (2, "")
    assert "empty-or-backwards range [10, 5)" in err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_resume_without_checkpoint_exits_2_on_either_path(capsys, workers):
    # the refusal comes before any shard is built, whatever the worker count
    code, out, err = run_cli(capsys, "search-wieferich", "--base", "2",
                             "--to", "100", "--resume", "--workers", workers)
    assert (code, out) == (2, "")
    assert "--resume needs --checkpoint" in err


def test_search_workers_with_checkpoint_rejected(capsys, tmp_path):
    code, _, err = run_cli(capsys, "search-wss", "--to", "100",
                           "--workers", "2",
                           "--checkpoint", str(tmp_path / "ck.jsonl"))
    assert code == 2 and "workers" in err


@pytest.mark.parametrize("workers, cpus, pool_size", [
    (100000, 4, 4),    # one process per CPU, not per requested worker
    (3, 4, 3),
    (2, None, 1),      # an unknown CPU count means one process
])
def test_search_pool_is_capped(capsys, monkeypatch, workers, cpus, pool_size):
    sizes = []

    class SerialPool:
        """Records the pool size and runs the shards in this process."""

        def __init__(self, max_workers):
            if max_workers < 1:
                raise ValueError("max_workers must be greater than 0")
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    _, serial, _ = run_cli(capsys, "search-wss", "--to", "2000")
    code, sharded, _ = run_cli(capsys, "search-wss", "--to", "2000",
                               "--workers", str(workers))
    assert (code, sharded, sizes) == (0, serial, [pool_size])
    # an empty range and a one-integer range are each one shard, which runs
    # in this process and starts no pool
    code, out, _ = run_cli(capsys, "search-wss", "--from", "10", "--to", "10",
                           "--workers", "2")
    assert (code, sizes) == (0, [pool_size])
    assert json.loads(out)["primes_scanned"] == "0"
    code, out, _ = run_cli(capsys, "search-wss", "--from", "10", "--to", "11",
                           "--workers", "3")
    assert (code, sizes) == (0, [pool_size])
    assert json.loads(out)["range"] == ["10", "11"]


def test_search_checkpoint_resume(capsys, tmp_path):
    ck = str(tmp_path / "w.jsonl")
    args = ("search-wieferich", "--base", "2", "--to", "9000",
            "--checkpoint", ck)
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, second, _ = run_cli(capsys, *args, "--resume")
    assert code == 0 and second == first  # resumed run replays the same hits


def test_search_missing_checkpoint_exits_6(capsys, tmp_path):
    missing = str(tmp_path / "missing.jsonl")
    code, out, err = run_cli(capsys, "search-wieferich", "--base", "2",
                             "--to", "5000", "--checkpoint", missing,
                             "--resume")
    assert (code, out) == (6, "")
    assert err.startswith(f"error: cannot read checkpoint {missing}")


@pytest.mark.parametrize("where", ["missing/x.jsonl", "."])
def test_search_unwritable_checkpoint_exits_6(capsys, tmp_path, where):
    # a missing directory, or a directory where the file should be
    path = str(tmp_path / where)
    code, out, err = run_cli(capsys, "search-wieferich", "--base", "2",
                             "--to", "5000", "--checkpoint", path)
    assert (code, out) == (6, "")
    assert err.startswith(f"error: cannot write checkpoint {path}")


def test_search_checkpoint_config_mismatch_exits_6(capsys, tmp_path):
    ck = str(tmp_path / "w.jsonl")
    run_cli(capsys, "search-wieferich", "--base", "2", "--to", "5000",
            "--checkpoint", ck)
    code, _, err = run_cli(capsys, "search-wieferich", "--base", "2",
                           "--to", "6000", "--checkpoint", ck, "--resume")
    assert code == 6 and "error:" in err


def test_search_resume_across_fields_exits_6(capsys, tmp_path):
    # str(w) is the same in every field, so the checkpoint hash names the
    # base's field: phi's checkpoint is refused for (1+sqrt(13))/2 and is
    # resumed by phi given with or without --field-d
    ck = str(tmp_path / "w.jsonl")
    phi = "(1+sqrt(5))/2"
    search_range(wieferich_predicate(parse_quadratic(phi)), 2, 20000, ck,
                 stop_after=100)
    code, out, err = run_cli(capsys, "search-wieferich", "--base",
                             "(1+sqrt(13))/2", "--to", "20000",
                             "--checkpoint", ck, "--resume")
    assert (code, out) == (6, "")
    assert "checkpoint belongs to a different configuration" in err
    _, straight, _ = run_cli(capsys, "search-wieferich", "--base", phi,
                             "--to", "20000")
    code, out, _ = run_cli(capsys, "search-wieferich", "--base", phi,
                           "--field-d", "5", "--to", "20000",
                           "--checkpoint", ck, "--resume")
    assert code == 0 and out == straight


def test_search_undecodable_checkpoint_lines_are_skipped(capsys, tmp_path):
    # a line that is not UTF-8 is treated like a torn JSON line
    ck = tmp_path / "w.jsonl"
    args = ("search-wieferich", "--base", "2", "--to", "50000",
            "--checkpoint", str(ck))
    ck.write_bytes(b"\xff\xfe x\n")
    code, out, err = run_cli(capsys, *args, "--resume")
    assert (code, out) == (6, "")
    assert err.startswith(f"error: no usable checkpoint record in {ck}")
    code, straight, _ = run_cli(capsys, *args)
    assert code == 0
    final = ck.read_bytes().splitlines()[-1]
    search_range(wieferich_predicate(2), 2, 50000, str(ck), stop_after=1000)
    with open(ck, "ab") as fh:
        fh.write(b"\xff")
    code, out, _ = run_cli(capsys, *args, "--resume")
    assert (code, out) == (0, straight)
    assert ck.read_bytes().splitlines()[-1] == final


def test_search_resumes_after_a_sigkill_between_flushes(capsys, tmp_path):
    # the scan process is killed after its first periodic record is on disk
    # and before its last; a kill outside that window fails the test
    args = ("search-wieferich", "--base", "2", "--to", "3000000",
            "--checkpoint")
    ck, straight_ck = tmp_path / "k.jsonl", tmp_path / "s.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "quadrec.cli", *args, str(ck)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 120
    try:
        while proc.poll() is None and time.monotonic() < deadline:
            if ck.exists() and b"\n" in ck.read_bytes():
                proc.send_signal(signal.SIGKILL)
                break
            time.sleep(0.001)
    finally:
        proc.kill()
        proc.wait(timeout=60)
    assert proc.returncode == -signal.SIGKILL
    records = ck.read_bytes().split(b"\n")[:-1]  # the complete lines
    assert records and json.loads(records[-1])["cursor"] < 3000000
    code, resumed, _ = run_cli(capsys, *args, str(ck), "--resume")
    assert code == 0
    code, straight, _ = run_cli(capsys, *args, str(straight_ck))
    assert (code, resumed) == (0, straight)
    assert (ck.read_bytes().splitlines()[-1]
            == straight_ck.read_bytes().splitlines()[-1])


def _drop_stats(rec):
    del rec["stats"]


def _drop_first_p(rec):
    del rec["hits"][0]["p"]


@pytest.mark.parametrize("tamper", [
    _drop_stats,
    lambda rec: rec.update(cursor="abc"),
    lambda rec: rec.update(hits=5),
    _drop_first_p,
    lambda rec: rec.update(cursor=0, hits=[]),  # rescanned [2, 5000) twice
    lambda rec: rec.update(cursor=5001),
    lambda rec: rec.update(cursor=True),
    lambda rec: rec.update(cursor=2000),        # 3511 lies past the cursor
    lambda rec: rec.update(stats={"primes_scanned": 4999}),
    lambda rec: rec.update(stats={"primes_scanned": -1}),
    lambda rec: rec.update(hits=[[1093]]),
], ids=["no-stats", "cursor-abc", "hits-5", "hit-without-p", "cursor-0",
        "cursor-past-hi", "cursor-bool", "hit-past-cursor",
        "scanned-past-cursor", "scanned-negative", "hit-not-a-record"])
def test_search_malformed_checkpoint_exits_6(capsys, tmp_path, tamper):
    ck = tmp_path / "w.jsonl"
    args = ("search-wieferich", "--base", "2", "--to", "5000",
            "--checkpoint", str(ck))
    code, first, _ = run_cli(capsys, *args)
    rec = json.loads(ck.read_text().splitlines()[-1])
    assert (code, rec["cursor"], len(rec["hits"])) == (0, 5000, 2)
    tamper(rec)
    ck.write_text(json.dumps(rec) + "\n")
    code, out, err = run_cli(capsys, *args, "--resume")
    assert (code, out) == (6, "")
    assert err.startswith("error: checkpoint ")


def test_search_wss_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "search-wss", "--to", "1000",
                           "--emit", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema: quadrec.search-wss.v1"
    assert lines[1] == "p,pi_p,pi_p2"
    assert lines[-1] == "# primes_scanned: 168"
    assert len(lines) == 3  # no Wall-Sun-Sun primes below 1000


def test_abc_quality_csv(capsys):
    code, out, _ = run_cli(capsys, "abc-quality", "--base", "2",
                           "--n-to", "4")
    lines = out.splitlines()
    assert lines[0] == "# schema: quadrec.abc-quality.v1"
    assert lines[1] == "n,h,rad,q"
    rows = [ln.split(",") for ln in lines[2:]]
    assert [r[0] for r in rows] == ["1", "2", "3", "4"]
    assert rows[0][3] == "1.0"  # (2, -1, -1) has height = radical = log 2
    # floats are shortest round-trip reprs
    assert rows[3][1] == repr(float(__import__("math").log(16)))


def test_abc_quality_json_window(capsys):
    code, out, _ = run_cli(capsys, "abc-quality", "--base", "3/2",
                           "--n-from", "3", "--n-to", "5", "--emit", "json")
    docs = [json.loads(ln) for ln in out.splitlines()]
    assert [d["n"] for d in docs] == ["3", "4", "5"]
    for d in docs:
        assert_stringly(d)
        assert float(d["q"]) > 0


@pytest.mark.parametrize("base, msg", [
    ("0", "zero base has no power triples"),
    ("-1", "cyclotomic values need a non-torsion base"),
    ("sqrt(-1)", "cyclotomic values need a non-torsion base")])
def test_abc_quality_zero_and_torsion_bases_exit_2(capsys, base, msg):
    # refused before anything is factored, with the messages the library uses
    code, out, err = run_cli(capsys, "abc-quality", "--base", base,
                             "--n-to", "3")
    assert (code, out) == (2, "")
    assert msg in err


def test_abc_quality_past_the_unsplit_cofactor(capsys):
    # 2^122 - 1 = 3 * (2^61 - 1) * 768614336404564651 is squarefree; whole, its
    # 121-bit cofactor defeats rho and p-1, as Phi_61(2) and Phi_122(2) do not
    import math
    code, out, _ = run_cli(capsys, "abc-quality", "--base", "2",
                           "--n-from", "122", "--n-to", "122", "--emit", "json")
    doc = json.loads(out)
    assert code == 0 and doc["n"] == "122"
    h, rad = 122 * math.log(2), math.log(2 * (2 ** 122 - 1))
    assert abs(float(doc["h"]) - h) <= 1e-12 * h
    assert abs(float(doc["rad"]) - rad) <= 1e-12 * rad
    code, out, _ = run_cli(capsys, "abc-quality", "--base", "2", "--n-to", "131")
    assert code == 0
    assert [ln.split(",")[0] for ln in out.splitlines()[2:]] == [
        str(n) for n in range(1, 132)]


def test_phi_ratio_rows(capsys):
    code, out, _ = run_cli(capsys, "phi-ratio", "--base", "2",
                           "--n-from", "6", "--n-to", "6", "--emit", "json")
    doc = json.loads(out.splitlines()[0])
    assert_stringly(doc)
    import math
    assert abs(float(doc["ratio"]) - math.log(3) / 2) < 1e-12
    assert abs(float(doc["target"]) - math.log(2)) < 1e-12


def test_phi_ratio_torsion_base_exits_2(capsys):
    # -1 has order 2, so no window of indices is evaluated for it
    code, out, err = run_cli(capsys, "phi-ratio", "--base", "-1",
                             "--n-from", "3", "--n-to", "5")
    assert (code, out) == (2, "")
    assert "non-torsion" in err


@pytest.mark.parametrize("sub", ["abc-quality", "phi-ratio"])
def test_n_from_below_one_exits_2(capsys, sub):
    # abc-quality used to start at n = 1 without a word
    code, out, err = run_cli(capsys, sub, "--base", "2", "--n-from", "0",
                             "--n-to", "2")
    assert (code, out) == (2, "")
    assert "--n-from must be >= 1" in err


def test_rank_report(capsys):
    code, out, _ = run_cli(capsys, "rank", "--gen", "2", "--gen", "3")
    doc = json.loads(out)
    assert_stringly(doc)
    assert doc["free_rank"] == "2"
    assert doc["support_primes"] == ["2", "3"]
    assert doc["valuation_matrix"] == [["1", "0"], ["0", "1"]]


def test_rank_units(capsys):
    code, out, _ = run_cli(capsys, "rank", "--gen", "(1+sqrt(5))/2",
                           "--gen", "(1-sqrt(5))/2")
    doc = json.loads(out)
    assert doc["free_rank"] == "1"
    assert doc["torsion_relations"] == [["1", "1"]]
    assert doc["generators"] == ["(1+sqrt(5))/2", "(1-sqrt(5))/2"]


def test_rank_of_three_powers_of_phi(capsys):
    # phi, phi^3 and phi^5: the output the float recombination printed
    code, out, _ = run_cli(capsys, "rank", "--gen", "(1+sqrt(5))/2",
                           "--gen", "2+sqrt(5)", "--gen", "(11+5*sqrt(5))/2")
    assert code == 0
    assert out == (
        '{"free_rank":"1","generators":["(1+sqrt(5))/2","2+sqrt(5)",'
        '"(11+5*sqrt(5))/2"],"kernel_basis":[["0","0","1"],["5","0","-1"],'
        '["0","5","-3"]],"support_primes":[],"torsion_relations":'
        '[["5","0","-1"],["0","5","-3"]],"valuation_matrix":[[],[],[]]}\n')


def test_rank_and_heuristic_take_exponents_past_64(capsys):
    # 2^70 and 8 meet in the relation 8^70 = (2^70)^3; both commands used to
    # exit 5 on the kernel vector (3, -70)
    gens = ["--gen", str(2 ** 70), "--gen", "8"]
    code, out, _ = run_cli(capsys, "rank", *gens)
    doc = json.loads(out)
    assert code == 0
    assert doc["free_rank"] == "1"
    assert doc["torsion_relations"] == [["3", "-70"]]
    code, out, _ = run_cli(capsys, "heuristic", *gens, "--bound", "100")
    assert code == 0
    assert out == run_cli(capsys, "heuristic", "--gen", "2", "--bound", "100")[1]


def test_rank_and_heuristic_take_relations_they_never_form(capsys):
    # both commands used to exit 5 on the product of the relation
    # (-124251, 124500, 124500, -125000), 655,092,943 bits
    two, three, phi = as_element(2, K5), as_element(3, K5), qelem(K5, 0, 1)
    gens = [a for x in (two ** 500 * phi ** 500, two ** 499,
                        three ** 500 * phi ** 499, three ** 498)
            for a in ("--gen", format_quadratic(x))]
    code, out, _ = run_cli(capsys, "rank", *gens)
    assert code == 0 and json.loads(out)["free_rank"] == "3"
    code, out, _ = run_cli(capsys, "heuristic", *gens, "--bound", "1000")
    assert code == 0
    assert out == run_cli(capsys, "heuristic", "--gen", "2", "--gen", "3",
                          "--gen", "(1+sqrt(5))/2", "--bound", "1000")[1]


def test_heuristic_decades(capsys):
    code, out, _ = run_cli(capsys, "heuristic", "--gen", "2",
                           "--bound", "1000")
    lines = out.splitlines()
    assert lines[0] == "# schema: quadrec.heuristic.v1"
    assert lines[1] == "Y,expected_count"
    rows = [ln.split(",") for ln in lines[2:]]
    assert [r[0] for r in rows] == ["10", "100", "1000"]
    assert float(rows[0][1]) == expected_counts([as_element(2)], [10])[0]


def test_error_exit_codes(monkeypatch, capsys):
    for exc, want in ((FactorizationError("x"), 4),
                      (ResourceLimitError("x"), 5),
                      (CheckpointError("x"), 6)):
        def boom(cfg, out=None, _exc=exc):
            raise _exc
        monkeypatch.setattr("quadrec.cli.run", boom)
        code, _, err = run_cli(capsys, "rank", "--gen", "2")
        assert code == want and "error: x" in err


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("argv", [
    ("certify", "--base", "-2", "--bound", "100", "--emit", "csv"),
    ("search-wieferich", "--base", "1", "--to", "3000")])
def test_closed_stdout_exits_141_without_a_traceback(argv, buffered):
    # the read end is closed before the child writes, so its first write
    # or its flush meets EPIPE; buffered or not, it exits as after SIGPIPE
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "quadrec.cli", *argv],
        env={**env, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert "Traceback" not in err and "Exception ignored" not in err, err
