"""Resumable prime-range searches with append-only JSON-line checkpoints.

A checkpoint file holds one record per flush; only the last parseable line
matters on resume, where a torn final line from a crash is skipped and
closed with a newline.  Records have sorted keys and no whitespace, so a
resumed scan ends with a final record byte-identical to a straight run's.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
from typing import Callable, Optional

from .errors import CheckpointError, InvariantBreachError, UsageError
from .factor import is_prime, iter_primes, kronecker
from .record import Record
from .ring import _prime_ideals_above, as_element, field_norm, ideal_factors
from .wieferich import (fermat_quotient_residue, lucas_screen, unit_screen,
                        wall_period_test, wss_divisibility_test, wss_screen)

CHECKPOINT_VERSION = 1
FLUSH_EVERY = 20000  # primes scanned between checkpoint records


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class SearchPredicate(Record):
    """A named prime test: test(p) returns a hit record dict or None.

    name and params feed the config hash, so two scans are resumable into
    each other exactly when these match.  verify re-checks a stored hit.
    """

    name: str
    params: dict
    test: Callable[[int], Optional[dict]]
    verify: Callable[[dict], bool]


class SearchCheckpoint(Record):
    # the scan updates it in place, so it is mutable and unhashable
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__
    __hash__ = None
    lo: int
    hi: int
    cursor: int
    hits: list
    primes_scanned: int
    config_hash: str

    def record(self) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "config_hash": self.config_hash,
            "range": [self.lo, self.hi],
            "cursor": self.cursor,
            "hits": self.hits,
            "stats": {"primes_scanned": self.primes_scanned},
        }

    def line(self) -> str:
        return _dumps(self.record())

    @property
    def complete(self) -> bool:
        return self.cursor >= self.hi


def predicate_config_hash(pred: SearchPredicate, lo: int, hi: int) -> str:
    blob = {
        "schema": CHECKPOINT_VERSION,
        "predicate": pred.name,
        "params": pred.params,
        "lo": lo,
        "hi": hi,
    }
    return hashlib.sha256(_dumps(blob).encode()).hexdigest()[:16]


@contextlib.contextmanager
def _writing(path: str, mode: str):
    """open(path, mode) on a checkpoint file, with an OSError from opening
    or writing it raised as a CheckpointError."""
    try:
        with open(path, mode) as fh:
            yield fh
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


def _load_last_record(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    for line in reversed(lines):
        if not line.strip():
            continue
        try:
            rec = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):  # a torn tail line
            continue
        if isinstance(rec, dict) and rec.get("version") == CHECKPOINT_VERSION:
            return rec
    raise CheckpointError(f"no usable checkpoint record in {path}")


def _resume_state(rec: dict, lo: int, hi: int) -> tuple[int, list, int]:
    """The cursor, hits and primes_scanned of a loaded record, refused
    unless the cursor lies in [lo, hi], at most cursor - lo primes were
    scanned, and every hit is a record whose p lies in [lo, cursor)."""
    cursor, hits = rec.get("cursor"), rec.get("hits")
    stats = rec.get("stats")
    scanned = stats.get("primes_scanned") if isinstance(stats, dict) else None
    if type(cursor) is not int or not lo <= cursor <= hi:
        raise CheckpointError(f"checkpoint cursor {cursor!r} is not in [{lo}, {hi}]")
    if type(scanned) is not int or not 0 <= scanned <= cursor - lo:
        raise CheckpointError(
            f"checkpoint primes_scanned {scanned!r} is not in [0, {cursor - lo}]")
    if not isinstance(hits, list) or not all(
            isinstance(hit, dict) and type(hit.get("p")) is int
            and lo <= hit["p"] < cursor for hit in hits):
        raise CheckpointError(
            f"checkpoint hits are not records with p in [{lo}, {cursor})")
    return cursor, list(hits), scanned


def search_range(pred: SearchPredicate, lo: int, hi: int,
                 checkpoint_path: Optional[str] = None, *,
                 resume: bool = False,
                 stop_after: Optional[int] = None) -> SearchCheckpoint:
    """Scan primes in [lo, hi) with pred, checkpointing along the way.

    stop_after caps how many primes this call processes (the checkpoint is
    flushed and returned incomplete; call again with resume=True).  Stored
    hits are re-verified on resume before any new work happens.
    """
    if lo > hi:  # lo == hi is an empty scan
        raise UsageError(f"empty-or-backwards range [{lo}, {hi})")
    h = predicate_config_hash(pred, lo, hi)
    ck = SearchCheckpoint(lo, hi, lo, [], 0, h)
    if resume:
        if checkpoint_path is None:
            raise CheckpointError("resume requested without a checkpoint path")
        rec = _load_last_record(checkpoint_path)
        if rec.get("config_hash") != h:
            raise CheckpointError(
                "checkpoint belongs to a different configuration "
                f"({rec.get('config_hash')} != {h})"
            )
        cursor, hits, scanned = _resume_state(rec, lo, hi)
        for hit in hits:
            if not pred.verify(hit):
                raise CheckpointError(f"stored hit fails re-verification: {hit}")
        ck = SearchCheckpoint(lo, hi, cursor, hits, scanned, h)
        with _writing(checkpoint_path, "a+b") as fh:  # end a torn tail line
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                fh.write(b"\n")
    elif checkpoint_path is not None:
        with _writing(checkpoint_path, "wb"):  # empty it, before any work
            pass

    scanned, done = ck.primes_scanned, 0
    test, hits = pred.test, ck.hits

    def flush(cursor: int) -> None:
        ck.cursor, ck.primes_scanned = cursor, scanned + done
        if checkpoint_path is not None:
            with _writing(checkpoint_path, "ab") as fh:
                fh.write(ck.line().encode() + b"\n")

    for p in iter_primes(ck.cursor, hi):
        if (hit := test(p)) is not None:
            hits.append(hit)
        done += 1
        if stop_after is not None and done >= stop_after:
            flush(p + 1)
            return ck
        if done % FLUSH_EVERY == 0:
            flush(p + 1)
    flush(hi)
    return ck


# ---------------------------------------------------------------------------
# the two stock predicates


def wieferich_predicate(base) -> SearchPredicate:
    """Hits are primes where base is Wieferich at some unramified ideal.

    params name the base and its field's d (None over Q), since str(base)
    is written on the basis (1, w) and does not say which field w is in.

    One hit record per qualifying ideal; `aggregate` is set when every
    admissible ideal above p qualifies at once.  An ideal is admissible
    when it is unramified and outside the base's support, which is
    factored once here.  test trusts that p is prime, as the sieve
    guarantees; verify checks it, since a stored hit comes from a file.

    A rational base num/den has the one ideal p above p, so its test runs
    on plain ints: (num/den)^(p-1) mod p^2 is 1 + k*p, and p is a hit
    exactly when that power is 1.

    A quadratic base (a + b*w)/den has two routes.  The ideal route builds
    the ideals above p and takes the Fermat quotient at each admissible
    one.  test runs it only on the bad primes, 2 and those dividing
    den*disc*N(a + b*w), and on the good primes that pass the screen,
    which decides with one chain of plain ints whether any ideal above p
    is a hit: unit_screen for an integral unit of trace t and norm N with
    t*(t^2 - 4N) != 0, whose primes are bad too, else lucas_screen.  It is
    exact at good primes, so a screened prime with no hit is a bug.
    verify takes the ideal route alone.
    """
    g = as_element(base)
    if g.is_zero():
        raise UsageError("zero base has no Wieferich primes")
    factors = ideal_factors(g)

    if g.field is None:
        num, den = g.num_a, g.den
        support = {P.p for P, _ in factors}

        def route(p: int) -> Optional[dict]:
            if p in support:
                return None
            m = p * p
            y = pow(num if den == 1 else num * pow(den, -1, m), p - 1, m)
            if y % p != 1:
                raise InvariantBreachError(
                    f"base^(p-1) is not 1 mod {p}: Fermat's little theorem fails")
            if y != 1:
                return None
            return {"p": p, "ideals": [str(p)], "aggregate": True}
        test = route
    else:
        support = {P.label() for P, _ in factors}
        disc, den = g.field.disc, g.den
        trace = 2 * g.num_a + g.field.omega_trace * g.num_b
        norm = int(field_norm(g) * den * den)
        tail = trace * (trace * trace - 4 * norm)  # 0 at +-1 and +-sqrt(-1)
        unit = den == 1 and norm in (1, -1) and tail != 0
        bad = 2 * den * disc * norm * (tail if unit else 1)
        syms, sym_mod = {}, 4 * abs(disc)  # (disc/p) is a character mod 4|disc|

        def route(p: int) -> Optional[dict]:
            ideals = [P for P in _prime_ideals_above(g.field, p)
                      if P.kind != "ramified" and P.label() not in support]
            if not ideals:
                return None
            ks = {P.label(): fermat_quotient_residue(g, P) for P in ideals}
            hit_labels = sorted(lbl for lbl, k in ks.items() if k == 0)
            if not hit_labels:
                return None
            return {"p": p, "ideals": hit_labels,
                    "aggregate": len(hit_labels) == len(ideals)}

        def test(p: int) -> Optional[dict]:
            if bad % p == 0:
                return route(p)
            if (sym := syms.get(p % sym_mod)) is None:
                sym = syms[p % sym_mod] = kronecker(disc, p)
            if not (unit_screen(p, trace, norm, sym) if unit
                    else lucas_screen(p, trace, norm, den, sym)):
                return None
            hit = route(p)
            if hit is None:
                raise InvariantBreachError(
                    f"p={p} passes the Lucas screen, but no ideal above it is a hit")
            return hit

    def verify(hit: dict) -> bool:
        return is_prime(hit["p"]) and route(hit["p"]) == hit

    d = None if g.field is None else g.field.d
    return SearchPredicate(
        "alpha-wieferich", {"base": str(g), "d": d}, test, verify)


def wall_predicate() -> SearchPredicate:
    """Hits are primes with equal Fibonacci period mod p and mod p^2.

    test screens every p outside {2, 5} with wss_screen and runs Wall's
    period test only on the primes that pass, to build the hit record.
    The two verdicts agree by theorem, so a screened prime whose periods
    differ is a bug.
    """

    def test(p: int) -> Optional[dict]:
        screened = p not in (2, 5)
        if screened and not wss_screen(p):
            return None
        v = wall_period_test(p)
        if not v.equal:
            if screened:
                raise InvariantBreachError(
                    f"p={p} passes the p^2 | F_(p-(5/p)) screen, but its "
                    f"periods mod p and p^2 differ")
            return None
        return {"p": p, "pi_p": v.pi_p, "pi_p2": v.pi_p2}

    def verify(hit: dict) -> bool:
        if not is_prime(hit["p"]):  # a stored hit comes from a file
            return False
        v = wall_period_test(hit["p"])
        ok = v.equal and v.pi_p == hit["pi_p"] and v.pi_p2 == hit["pi_p2"]
        if ok and hit["p"] not in (2, 5):
            ok = wss_divisibility_test(hit["p"])  # second, independent route
        return ok

    return SearchPredicate("wall-period", {}, test, verify)
