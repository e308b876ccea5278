"""quadrec benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 28 --trace 0

Run from the root of a quadrec checkout; the package is imported from its
src/.  Each pass of a workload runs in a fresh interpreter (worker.py), one
client in a closed loop, and passes repeat until --seconds have gone (at
least MIN_PASSES).  Every pass's outputs are checked by checks.py.  The
report gives medians over the passes.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1, traced and untraced passes alternate and the
metrics are per layer, from the span files the traced passes write.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  --workload all runs every workload and prints a table.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import checks
import plan as planner

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_PASSES = 3
PASS_TIMEOUT_S = 100

# The gated end-to-end metrics (BENCHMARK.json).  Times on this kind of
# shared host swing by up to 2x within seconds, so every gated time is in
# reference seconds: the clock reading scaled by PROBE_REF_S over the mean
# time of the speed probes taken while it ran (see worker.SpeedProbe).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}
# Reported beside them and never gated: the clock readings, and the failure
# ratio, which is 0 on a clean run and so cannot be a bound's base.
EXTRA = {"setup_clock_s": "s", "wall_clock_s": "s",
         "items_per_clock_s": "1/s", "fail_ratio": "ratio"}
# probe time at the reference speed; close to this host's median probe time
PROBE_REF_S = 0.006


class BenchError(Exception):
    """The benchmark cannot run here (no package, or a pass crashed)."""


def _unit(metric: str) -> str:
    kind = metric.rpartition(".")[2]
    if kind.endswith("_s"):
        return "s"
    if kind in ("fail_ratio", "bruteforce_share"):
        return "ratio"
    return "bytes" if kind == "bytes" else "count"


def _git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu():
    model, count = "unknown", 0
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and model == "unknown":
                    model = value.strip()
                count += key.strip() == "processor"
    except OSError:
        pass
    return model, count or os.cpu_count()


def run_pass(plan: dict, spans_file=None) -> dict:
    """One pass in a fresh interpreter; returns the worker's raw result."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py")]
    started = time.monotonic()
    cmd.append(repr(started))
    if spans_file:
        cmd.append(spans_file)
    try:
        proc = subprocess.run(cmd, input=json.dumps(plan), capture_output=True,
                              text=True, cwd=ROOT, env=env,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded {PASS_TIMEOUT_S}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout)
    result["elapsed_s"] = time.monotonic() - started
    return result


def _pass_metrics(result: dict, tally) -> dict:
    fail = tally.items_failed / tally.items
    setup_speed = PROBE_REF_S / statistics.mean(result["setup_probe_s"])
    speed = PROBE_REF_S / statistics.mean(result["probe_s"])
    return {"setup_s": result["setup_s"] * setup_speed,
            "wall_s": result["wall_s"] * speed,
            "items_per_s": tally.useful / (result["wall_s"] * speed),
            "ok_ratio": 1.0 - fail,
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_clock_s": result["setup_s"],
            "wall_clock_s": result["wall_s"],
            "items_per_clock_s": tally.useful / result["wall_s"],
            "fail_ratio": fail}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        import spans
    plan = planner.make_plan(workload, seed)
    orc = checks.oracle(plan)
    spans_file = os.path.join(OUT, f"spans-{workload}.jsonl") if trace else None
    deadline = time.monotonic() + seconds
    passes, traced, tallies, self_test = [], [], [], None
    while True:
        for span_path in ((None, spans_file) if trace else (None,)):
            result = run_pass(plan, span_path)
            if span_path:
                result["layers"] = spans.layer_metrics(
                    *spans.read_spans(span_path))
            tally = checks.check(plan, orc, result["outcomes"], result["final"])
            tallies.append(tally)
            (traced if span_path else passes).append((result, tally))
            if self_test is None:
                bad = checks.check(plan, orc, *checks.corrupt(
                    plan, result["outcomes"], result["final"]))
                self_test = (bad.items_failed > tally.items_failed
                             and bad.ops_failed > tally.ops_failed)
        durations = [r["elapsed_s"] for r, _ in passes + traced]
        step = statistics.median(durations) * (2 if trace else 1)
        enough = len(passes) >= (1 if trace else MIN_PASSES)
        if enough and time.monotonic() + step > deadline:
            break

    per_pass = [_pass_metrics(r, t) for r, t in passes]
    summary = {}
    for name in list(END_TO_END) + list(EXTRA):
        values = [m[name] for m in per_pass]
        q1, q3 = _quartiles(values)
        summary[name] = {"value": statistics.median(values),
                         "unit": END_TO_END.get(name) or EXTRA[name],
                         "q1": q1, "q3": q3}
    layers = None
    if trace:
        per_traced = [r["layers"] for r, _ in traced]
        layers = {}
        for name in per_traced[0]:
            layers[name] = {"value": statistics.median(m[name] for m in per_traced),
                            "unit": _unit(name)}
        traced_wall = statistics.median(
            _pass_metrics(r, t)["wall_s"] for r, t in traced)
        layers["trace.overhead_s"] = {
            "value": traced_wall - summary["wall_s"]["value"], "unit": "s"}
    first = tallies[0]
    return {
        "workload": workload, "seed": seed,
        "correct": self_test and all(t.ops_failed == 0 for t in tallies),
        "self_test": "passed" if self_test else "FAILED",
        "attempted": sum(t.ops for t in tallies),
        "failed": sum(t.ops_failed for t in tallies),
        "samples": {"untraced": len(passes), "traced": len(traced)},
        "per_pass": {"operations": first.ops, "items": first.items,
                     "items_failed": first.items_failed,
                     "useful": first.useful},
        "metrics": summary, "layers": layers,
    }


def _meta(seed: int) -> dict:
    model, nproc = _cpu()
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "cpu_model": model, "nproc": nproc, "seed": seed}


def _table(reports) -> str:
    names = list(END_TO_END) + list(EXTRA)
    units = {**END_TO_END, **EXTRA}
    head = f"{'workload':<12}" + "".join(f"{n + ' (' + units[n] + ')':>25}"
                                         for n in names)
    rows = [head]
    for r in reports:
        rows.append(f"{r['workload']:<12}" + "".join(
            f"{r['metrics'][n]['value']:>25.6g}" for n in names))
    return "\n".join(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=planner.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "quadrec", "__init__.py")):
        print(f"error: no quadrec package under {SRC}; run from the root of "
              "a quadrec checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workloads = planner.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in workloads]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    meta = _meta(args.seed)
    for r in reports:
        print(json.dumps({"report": r, "meta": meta}, sort_keys=True))
    print(_table(reports))
    key = "layers" if args.trace else "metrics"
    if len(reports) == 1:
        metrics = {n: {"value": m["value"], "unit": m["unit"]}
                   for n, m in reports[0][key].items()}
    else:
        metrics = {f"{r['workload']}.{n}": {"value": m["value"], "unit": m["unit"]}
                   for r in reports for n, m in r[key].items()}
    if not args.trace:
        metrics = {n: m for n, m in metrics.items()
                   if n.rpartition(".")[2] in END_TO_END}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
