"""One timed pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py SPAWN_TIME [SPANS_FILE] < plan.json

SPAWN_TIME is the parent's time.monotonic() just before it started this
process, so setup_s covers interpreter start, `import quadrec` and building
the workload's inputs from the plan.  wall_s runs from the start of the
first operation to the end of the last.  Both are clock readings with the
speed probes' own time taken out; the probe samples (setup_probe_s around
the set-up, probe_s during the operations) go back with them, and the
parent scales the times to the reference speed.  The raw outputs go back
to the parent on stdout as one JSON object; the parent checks them.  With
SPANS_FILE the calls into quadrec are traced and the spans written there.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_quadrec():
    import quadrec
    from quadrec import cli, dynamics, periods, ring, search

    src = os.path.join(ROOT, "src", "quadrec")
    if os.path.dirname(os.path.abspath(quadrec.__file__)) != src:
        raise RuntimeError(f"quadrec imported from {quadrec.__file__}, "
                           f"not from {src}")
    return {"cli": cli, "search": search, "periods": periods, "ring": ring,
            "dynamics": dynamics}


def _cli_ops(q, plan):
    def op(argv):
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = q["cli"].main(argv)
            return {"rc": rc, "stdout": buf.getvalue()}
        return run
    return [op(argv) for argv in plan["cli"]], None


def _scan_resume_ops(q, plan):
    search = q["search"]
    ckpt = os.path.join(ROOT, "perfbench", "out", f"ckpt-{os.getpid()}.jsonl")
    pred = search.wieferich_predicate(plan["base"])
    lo, hi = plan["lo"], plan["hi"]

    def op(i, stop):
        def run():
            ck = search.search_range(pred, lo, hi, ckpt, resume=i > 0,
                                     stop_after=stop)
            return {"cursor": ck.cursor, "complete": ck.complete}
        return run

    def finish():
        try:
            with open(ckpt, encoding="utf-8") as fh:
                return fh.read().splitlines()[-1]
        except (OSError, IndexError):
            return None
        finally:
            with contextlib.suppress(OSError):
                os.remove(ckpt)

    return [op(i, s) for i, s in enumerate(plan["stops"])], finish


def _periods_ops(q, plan):
    periods, ring, dynamics = q["periods"], q["ring"], q["dynamics"]
    from plan import BATTERY

    battery = periods.standard_battery()
    names = [t.name for t in battery]
    if names != [b["name"] for b in BATTERY]:
        raise RuntimeError(f"standard_battery() changed: {names}")
    ideals = {}
    moduli = []
    for ti, p, label, e in plan["moduli"]:
        t = battery[ti]
        key = (ti, p)
        if key not in ideals:
            ideals[key] = {P.label(): P
                           for P in ring.prime_ideals_above(t.field(), p)}
        P = ideals[key][label]
        if P.kind == "ramified" or periods.is_degenerate(t, P):
            raise RuntimeError(f"planned modulus {label}^{e} is degenerate")
        moduli.append((t, (P, e)))

    ops = []
    for t, mod in moduli:
        ops.append(lambda t=t, mod=mod: periods.period_formula(t, [mod]).period)
    for i in plan["brute"]:
        t, mod = moduli[i]
        ops.append(lambda t=t, mod=mod: periods.period_bruteforce(t, mod).period)
    for m in plan["pisano"]:
        ops.append(lambda m=m: periods.pisano(m))
    for i in plan["eigen"]:
        t, mod = moduli[i]

        def eigen(t=t, mod=mod):
            rep = dynamics.eigen_consistency(t, mod)
            return [rep["orbit"], rep["formula"]]
        ops.append(eigen)
    return ops, None


PROBE_LOOPS = 20_000
PROBE_INTERVAL_S = 0.2


def _probe() -> float:
    """Seconds for a fixed loop of Python-level modular arithmetic."""
    t = time.perf_counter()
    x, m = 1, (1 << 61) - 1
    for i in range(PROBE_LOOPS):
        x = (x * x + i) % m
    return time.perf_counter() - t


class SpeedProbe:
    """Samples the machine's speed during a pass.

    The host's speed swings by up to 2x within seconds, so one probe before
    and after a pass is not enough.  Every PROBE_INTERVAL_S of wall time a
    SIGALRM handler times _probe(); `spent` is the time the handler took,
    which the caller removes from the pass's wall time.  A traced pass
    probes only before and after, so that no probe lands inside a span.
    """

    def __init__(self, periodic: bool):
        self.periodic = periodic
        self.samples, self.spent = [], 0.0

    def _sample(self, signum=None, frame=None):
        t = time.perf_counter()
        self.samples.append(_probe())
        self.spent += time.perf_counter() - t

    def __enter__(self):
        self._sample()
        if self.periodic:
            self._old = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                             PROBE_INTERVAL_S)
        self.spent = 0.0
        return self

    def __exit__(self, *exc):
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)
        spent = self.spent
        self._sample()
        self.spent = spent
        return False


_BUILD = {"scan": _cli_ops, "certify": _cli_ops,
          "scan-resume": _scan_resume_ops, "periods": _periods_ops}


def main(argv) -> int:
    spawned = float(argv[0])
    start_probe = _probe()
    spans_file = argv[1] if len(argv) > 1 else None
    plan = json.load(sys.stdin)
    q = _import_quadrec()
    rec = None
    if spans_file:
        import spans
        rec = spans.Recorder()
        spans.install(rec)
    ops, finish = _BUILD[plan["workload"]](q, plan)

    ready = time.monotonic()
    outcomes = []
    with SpeedProbe(periodic=rec is None) as probe:
        t0 = time.monotonic()
        for i, op in enumerate(ops):
            if rec is not None:
                rec.current_op = i
            try:
                outcomes.append(op())
            except Exception as exc:  # one failed operation must not end the run
                outcomes.append({"error": f"{type(exc).__name__}: {exc}"})
        t1 = time.monotonic()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"setup_s": ready - spawned - start_probe,
              "wall_s": t1 - t0 - probe.spent,
              "setup_probe_s": [start_probe, probe.samples[0]],
              "probe_s": probe.samples,
              "peak_rss_mb": peak_kb / 1024, "outcomes": outcomes,
              "final": finish() if finish else None}
    if rec is not None:
        rec.dump(spans_file, {"workload": plan["workload"],
                              "seed": plan["seed"], "ops": len(ops)})
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
