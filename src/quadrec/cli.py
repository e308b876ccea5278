"""Command-line front end: argument parsing, literal syntax, output
serialization, and the worker pool for range-sharded searches, which is
imported only when a search asks for more than one worker.

Output discipline: every numeric value in JSON goes out as a decimal string
(floats via shortest round-trip repr), CSV streams carry a versioned schema
comment, and hit lists are emitted in sorted order, so identical configs
produce byte-identical output.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import os
import re
import sys
from fractions import Fraction
from typing import Optional

from .certificates import certified_count
from .dynamics import expected_counts, multiplicative_rank
from .errors import DegenerateInputError, QuadrecError, UsageError
from .heights import phi_norm_ratio, power_triples
from .periods import (RecurrenceTuple, fibonacci_tuple, ideal_factorization,
                      lucas_tuple, period_bruteforce, period_formula)
from .record import Record
from .ring import (QuadraticElement, as_element, as_elements, quadratic_field,
                   sqrt_element)
from .search import (_dumps, check_range, search_range, wall_predicate,
                     wieferich_predicate)

# ---------------------------------------------------------------------------
# quadratic literals: "a", "a/b", "sqrt(d)", "b*sqrt(d)", "(a+b*sqrt(d))/c"

_RAT = r"[+-]?\d+(?:/\d+)?"
_POSRAT = r"\d+(?:/\d+)?"
_QUAD = (rf"(?:(?P<a>{_RAT})(?=[+-]))?(?P<sign>[+-])?"
         rf"(?:(?P<coef>{_POSRAT})\*)?sqrt\((?P<d>-?\d+)\)")


def _fraction(s: str) -> Fraction:
    """The rational that CLI text s names, a zero denominator a usage error."""
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise UsageError(f"zero denominator in {s!r}") from None


def _parse_body(s: str) -> tuple[Fraction, Fraction, Optional[int]]:
    if re.fullmatch(_RAT, s):
        return _fraction(s), Fraction(0), None
    m = re.fullmatch(_QUAD, s)
    if m:
        coef = _fraction(m["coef"] or "1")
        return (_fraction(m["a"] or "0"), -coef if m["sign"] == "-" else coef,
                int(m["d"]))
    raise UsageError(f"malformed quadratic literal {s!r}")


def parse_quadratic(text: str, field_d: Optional[int] = None) -> QuadraticElement:
    """Exact element from a literal; sqrt(d) must agree with field_d if both
    are present."""
    s = text.replace(" ", "")
    den = 1
    m = re.fullmatch(r"\((?P<inner>.*)\)(?:/(?P<den>\d+))?", s)
    if m:
        s = m["inner"]
        den = int(m["den"]) if m["den"] else 1
        if den == 0:
            raise UsageError("zero denominator")
    a, b, d = _parse_body(s)
    if d is None:
        field = quadratic_field(field_d) if field_d is not None else None
        return as_element(a / den, field)
    if field_d is not None and field_d != d:
        raise UsageError(f"literal uses sqrt({d}) but --field-d is {field_d}")
    K = quadratic_field(d)
    return (as_element(a, K) + as_element(b, K) * sqrt_element(K)) / den


def format_quadratic(x: QuadraticElement) -> str:
    """Canonical literal; parse_quadratic(format_quadratic(x), d) == x when d
    names x's field.  Rational values print without a field tag, so the bare
    round-trip recovers them as plain rationals."""
    if x.field is None or x.num_b == 0:
        return str(Fraction(x.num_a, x.den))
    f = x.field
    if f.omega_trace:  # basis element is (1 + sqrt(d))/2
        A, B, C = 2 * x.num_a + x.num_b, x.num_b, 2 * x.den
    else:
        A, B, C = x.num_a, x.num_b, x.den
    g = math.gcd(A, B, C)
    A, B, C = A // g, B // g, C // g
    root = f"sqrt({f.d})"
    if A == 0:
        coef = Fraction(B, C)
        if coef == 1:
            return root
        if coef == -1:
            return f"-{root}"
        return f"{coef}*{root}"
    bs = root if abs(B) == 1 else f"{abs(B)}*{root}"
    inner = f"{A}{'+' if B > 0 else '-'}{bs}"
    return f"({inner})/{C}" if C > 1 else inner


# ---------------------------------------------------------------------------
# configuration


class RunConfig(Record):
    subcommand: str
    field_d: Optional[int] = None
    base: Optional[str] = None        # canonical literal
    tuple_spec: Optional[str] = None  # preset name or canonical roots;weights
    modulus: Optional[int] = None
    lo: Optional[int] = None
    hi: Optional[int] = None
    bound: Optional[int] = None
    n_from: int = 1
    n_to: int = 20
    gens: tuple[str, ...] = ()
    checkpoint: Optional[str] = None
    resume: bool = False
    emit: str = "json"
    workers: int = 1

    def config_hash(self) -> str:
        blob = _dumps({name: getattr(self, name) for name in self._fields})
        return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # deterministic exit codes instead of SystemExit
        raise UsageError(message)


class _Once(argparse.Action):
    """Store an option's value, refusing the option a second time."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise UsageError(f"{option_string} given more than once")
        setattr(namespace, self.dest, values)


def _build_parser() -> _Parser:
    p = _Parser(prog="quadrec", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, *, base=False, field_d=True, emit=("json", "csv")):
        if base:
            sp.add_argument("--base", required=True, action=_Once,
                            help="rational or quadratic literal, e.g. 2, 3/2, "
                                 "(1+sqrt(5))/2")
        if field_d:
            sp.add_argument("--field-d", type=int, default=None, action=_Once,
                            help="squarefree field discriminant parameter d")
        if emit:
            sp.add_argument("--emit", choices=emit, default=emit[0])

    sp = sub.add_parser("period", help="period of a recurrence modulo m")
    sp.add_argument("--tuple", dest="tuple_spec", default="fibonacci",
                    help="preset (fibonacci, lucas) or 'r1,r2;w1,w2' literals")
    sp.add_argument("--mod", dest="modulus", type=int, required=True)
    common(sp, emit=("text", "json"))

    for name in ("search-wss", "search-wieferich"):
        sp = sub.add_parser(name, help="checkpointable prime range scan")
        if name == "search-wieferich":
            common(sp, base=True)
        else:
            common(sp, field_d=False)
        sp.add_argument("--from", dest="lo", type=int, default=2)
        sp.add_argument("--to", dest="hi", type=int, required=True)
        sp.add_argument("--checkpoint", default=None)
        sp.add_argument("--resume", action="store_true")
        sp.add_argument("--workers", type=int, default=1)

    sp = sub.add_parser("certify", help="cyclotomic non-Wieferich certificates")
    common(sp, base=True)
    sp.add_argument("--bound", type=int, required=True)

    sp = sub.add_parser("abc-quality", help="quality of the power triple family")
    common(sp, base=True, emit=("csv", "json"))
    sp.add_argument("--n-from", type=int, default=1)
    sp.add_argument("--n-to", type=int, default=20)

    sp = sub.add_parser("phi-ratio", help="cyclotomic log-norm ratios")
    common(sp, base=True, emit=("csv", "json"))
    sp.add_argument("--n-from", type=int, default=1)
    sp.add_argument("--n-to", type=int, default=60)

    sp = sub.add_parser("rank", help="free rank of a multiplicative group")
    sp.add_argument("--gen", dest="gens", action="append", required=True)
    common(sp, emit=None)

    sp = sub.add_parser("heuristic", help="expected-count sums per decade")
    sp.add_argument("--gen", dest="gens", action="append", required=True)
    sp.add_argument("--bound", type=int, required=True)
    common(sp, emit=("csv", "json"))
    return p


_PRESETS = {"fibonacci": fibonacci_tuple, "lucas": lucas_tuple}


def _resolve_tuple(spec: str, field_d: Optional[int]) -> RecurrenceTuple:
    """The tuple of a preset name or of a 'r1,r2;w1,w2' spec, its literals
    parsed, checked and put in one field."""
    if spec in _PRESETS:
        t = _PRESETS[spec]()
        if field_d is not None and field_d != t.field().d:
            raise UsageError(f"preset {spec} uses sqrt({t.field().d}) "
                             f"but --field-d is {field_d}")
        return t
    if ";" not in spec:
        raise UsageError("tuple must be a preset name or 'roots;weights'")
    roots, weights = ([parse_quadratic(s, field_d) for s in part.split(",") if s]
                      for part in spec.split(";", 1))
    if not roots or len(roots) != len(weights):
        raise UsageError("tuple needs equally many roots and weights")
    xs = as_elements(roots + weights)
    return RecurrenceTuple(tuple(xs[:len(roots)]), tuple(xs[len(roots):]),
                           name="custom")


def parse_args(argv) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    fields = {}
    for key in ("subcommand", "field_d", "modulus", "lo", "hi", "bound",
                "n_from", "n_to", "checkpoint", "resume", "emit", "workers"):
        if hasattr(ns, key):
            fields[key] = getattr(ns, key)
    if fields.get("field_d") is not None:
        quadratic_field(fields["field_d"])  # validates squarefree, not 0 or 1
    if fields.get("workers", 1) < 1:
        raise UsageError("--workers must be >= 1")
    if fields.get("modulus") is not None and fields["modulus"] < 1:
        raise UsageError("--mod must be >= 1")
    if fields.get("n_from", 1) < 1:
        raise UsageError("--n-from must be >= 1")
    if getattr(ns, "base", None) is not None:
        fields["base"] = format_quadratic(
            parse_quadratic(ns.base, fields.get("field_d")))
    if getattr(ns, "tuple_spec", None) is not None:
        t = _resolve_tuple(ns.tuple_spec, fields.get("field_d"))
        fields["tuple_spec"] = t.name if t.name in _PRESETS else ";".join(
            ",".join(map(format_quadratic, xs)) for xs in (t.a, t.b))
    if getattr(ns, "gens", None):
        fields["gens"] = tuple(map(format_quadratic, as_elements(
            [parse_quadratic(s, fields.get("field_d")) for s in ns.gens])))
    return RunConfig(**fields)


# ---------------------------------------------------------------------------
# serialization


def _stringify(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, (list, tuple)):
        return [_stringify(x) for x in v]
    if isinstance(v, dict):
        return {k: _stringify(x) for k, x in v.items()}
    return v


def _json_line(obj) -> str:
    return _dumps(_stringify(obj))


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return "|".join(str(x) for x in v)
    return str(v)


def _emit(cfg: RunConfig, header: list[str], rows, out,
          json_tail=None, csv_tail=None) -> None:
    """Rows as JSON lines keyed by header, or as a CSV stream under the
    subcommand's schema comment; then the tail line, if any."""
    if cfg.emit == "json":
        for row in rows:
            print(_json_line(dict(zip(header, row))), file=out)
        if json_tail is not None:
            print(_json_line(json_tail), file=out)
        return
    print(f"# schema: quadrec.{cfg.subcommand}.v1", file=out)
    print(",".join(header), file=out)
    for row in rows:
        print(",".join(_csv_cell(v) for v in row), file=out)
    if csv_tail is not None:
        print(csv_tail, file=out)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_period(cfg: RunConfig, out) -> None:
    t = _resolve_tuple(cfg.tuple_spec, cfg.field_d)
    try:
        rep = period_formula(t, ideal_factorization(t.field(), cfg.modulus))
    except DegenerateInputError:
        rep = period_bruteforce(t, cfg.modulus)
    if cfg.emit == "json":
        print(_json_line({
            "modulus": cfg.modulus, "period": rep.period,
            "method": rep.method,
            "orders": [{"generator": i, "ideal": lbl, "order": o}
                       for i, lbl, o in rep.per_generator_orders],
        }), file=out)
    else:
        print(rep.period, file=out)


_HIT_FIELDS = {"search-wss": ["p", "pi_p", "pi_p2"],
               "search-wieferich": ["p", "ideals", "aggregate"]}


def _predicate(kind: str, base: Optional[QuadraticElement]):
    return wall_predicate() if kind == "search-wss" else wieferich_predicate(base)


def _scan_shard(spec: tuple) -> tuple[list, int]:
    kind, base, lo, hi = spec
    ck = search_range(_predicate(kind, base), lo, hi)
    return ck.hits, ck.primes_scanned


def _cmd_search(cfg: RunConfig, out) -> None:
    if cfg.resume and not cfg.checkpoint:
        raise UsageError("--resume needs --checkpoint")
    if cfg.workers > 1 and cfg.checkpoint:
        raise UsageError("checkpointing requires --workers 1")
    base = None if cfg.base is None else parse_quadratic(cfg.base, cfg.field_d)
    if cfg.workers == 1:
        ck = search_range(_predicate(cfg.subcommand, base), cfg.lo, cfg.hi,
                          cfg.checkpoint, resume=cfg.resume)
        hits, scanned = ck.hits, ck.primes_scanned
    else:
        check_range(cfg.lo, cfg.hi)
        chunk = max(1, -(-(cfg.hi - cfg.lo) // cfg.workers))
        shards = [(cfg.subcommand, base, a, min(cfg.hi, a + chunk))
                  for a in range(cfg.lo, cfg.hi, chunk)]
        hits, scanned = [], 0
        # with fork the pool starts every worker up front, so ask for no
        # more processes than there are shards or CPUs
        workers = min(cfg.workers, len(shards), os.cpu_count() or 1)
        if workers:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for shard_hits, shard_scanned in pool.map(_scan_shard, shards):
                    hits.extend(shard_hits)  # ordered shards keep hits sorted
                    scanned += shard_scanned
    header = _HIT_FIELDS[cfg.subcommand]
    _emit(cfg, header, [[h[k] for k in header] for h in hits], out,
          json_tail={"range": [cfg.lo, cfg.hi], "hits": len(hits),
                     "primes_scanned": scanned},
          csv_tail=f"# primes_scanned: {scanned}")


def _cmd_certify(cfg: RunConfig, out) -> None:
    g = parse_quadratic(cfg.base, cfg.field_d)
    cc = certified_count(g, cfg.bound)
    gamma = format_quadratic(g)
    field_d = g.field.d if g.field is not None else None
    rows = [(gamma, field_d, c.n, c.p, c.prime_ideal.kind, c.order_check,
             c.square_check) for c in cc.certificates]
    _emit(cfg, ["gamma", "field_d", "n", "p", "ideal_kind", "order_check",
                "square_check"], rows, out,
          json_tail={"bound": cfg.bound, "certified": cc.count,
                     "skipped": cc.skipped},
          csv_tail=f"# certified: {cc.count}")


def _cmd_abc_quality(cfg: RunConfig, out) -> None:
    _emit(cfg, ["n", "h", "rad", "q"], power_triples(
        parse_quadratic(cfg.base, cfg.field_d), cfg.n_from, cfg.n_to), out)


def _cmd_phi_ratio(cfg: RunConfig, out) -> None:
    g = parse_quadratic(cfg.base, cfg.field_d)
    rows = []
    for n in range(cfg.n_from, cfg.n_to + 1):
        pr = phi_norm_ratio(g, n)
        rows.append((n, pr.ratio, pr.target))
    _emit(cfg, ["n", "ratio", "target"], rows, out)


def _cmd_rank(cfg: RunConfig, out) -> None:
    gens = [parse_quadratic(s, cfg.field_d) for s in cfg.gens]
    rep = multiplicative_rank(gens)
    print(_json_line({
        "generators": list(cfg.gens),
        "support_primes": list(rep.support_primes),
        "valuation_matrix": [list(r) for r in rep.valuation_matrix],
        "kernel_basis": [list(r) for r in rep.kernel_basis],
        "torsion_relations": [list(r) for r in rep.torsion_relations],
        "free_rank": rep.free_rank,
    }), file=out)


def _cmd_heuristic(cfg: RunConfig, out) -> None:
    gens = [parse_quadratic(s, cfg.field_d) for s in cfg.gens]
    ys = []
    y = 10
    while y < cfg.bound:
        ys.append(y)
        y *= 10
    if cfg.bound >= 2:
        ys.append(cfg.bound)
    _emit(cfg, ["Y", "expected_count"],
          list(zip(ys, expected_counts(gens, ys))), out)


_HANDLERS = {"period": _cmd_period, "search-wss": _cmd_search,
             "search-wieferich": _cmd_search, "certify": _cmd_certify,
             "abc-quality": _cmd_abc_quality, "phi-ratio": _cmd_phi_ratio,
             "rank": _cmd_rank, "heuristic": _cmd_heuristic}


def run(cfg: RunConfig, out=None) -> int:
    _HANDLERS[cfg.subcommand](cfg, out or sys.stdout)
    return 0


def main(argv=None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
        code = run(cfg)
        sys.stdout.flush()  # a closed reader raises here, not at exit
        return code
    except QuadrecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:  # silence the exit-time flush; 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
