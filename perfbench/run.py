"""Benchmark of the gasket CLI: end-to-end runs and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness

Run from the root of a gasket checkout; the library is imported from
``src``.  One closed-loop client: the benchmark starts one child process
at a time and waits for it.  ``--trace 0`` repeats the workload for S
seconds and reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs it untraced for a third of S, then twice under the tracer, and
reports the per-layer metrics.  Every output is checked; the last line
of stdout is the JSON result.  ``--steadiness`` runs every workload on
ten seeds, twice over, for the ``run_seconds`` of BENCHMARK.json, and
prints each end-to-end metric's spread and drift against its bound.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
LAUNCH = os.path.join(HERE, "launch.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
CHILD_TIMEOUT_S = 150
SETUP_PER_RUN = 2  # set-up samples taken before each run of the workload
STEADY_SEEDS = 10  # seeds per workload in each round of --steadiness
STEADY_ROUNDS = 2
LAYERS = ("cli", "serialize", "svg", "packing", "classify", "complete",
          "group", "core", "verify")
SUITES = ("group", "forms", "packing", "appendix", "symmetry")
# Metrics that count work; two traced runs of one seed must agree on them.
WORK_COUNTS = ("packing.circles", "classify.reduce_letters", "svg.bytes",
               "cli.stdout_bytes")


class Child:
    """Runs one child process at a time inside a private work directory."""

    def __init__(self, work):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def run(self, cmd):
        """Returns (exit code, stdout, stderr, seconds)."""
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL, env=self.env,
                                    cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                proc.wait()
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8") as fh:
            stderr = fh.read()
        return proc.returncode, stdout, stderr, seconds

    def cli(self, argv):
        """One whole CLI run; returns its result, seconds and peak RSS."""
        peak = os.path.join(self.work, "peak")
        if os.path.exists(peak):
            os.remove(peak)
        rc, out, err, seconds = self.run([sys.executable, LAUNCH, peak] + argv)
        rss = 0.0
        if os.path.exists(peak):
            with open(peak, encoding="ascii") as fh:
                rss = float(fh.read())
        return {"rc": rc, "stdout": out, "stderr": err, "seconds": seconds}, \
            seconds, rss

    def worker(self, requests, trace):
        """Runs requests through cli.main in one worker process."""
        spec = os.path.join(self.work, "spec.json")
        result = os.path.join(self.work, "result.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"src": SRC, "trace": trace, "requests": requests}, fh)
        if os.path.exists(result):
            os.remove(result)
        rc, _, stderr, seconds = self.run([sys.executable, WORKER, spec, result])
        if rc != 0:
            failed = {"rc": -1, "stdout": "", "stderr": stderr, "seconds": 0.0}
            return {"results": [failed] * len(requests)}, seconds, 0.0
        with open(result, encoding="utf-8") as fh:
            *results, report = [json.loads(line) for line in fh]
        report["results"] = results
        return report, seconds, report["peak_rss_mb"]


SETUP_CMD = [sys.executable, "-c", "import gasket.cli as c; c.build_parser()"]


def setup_samples(child, count):
    """Wall times of processes that import gasket.cli and build its parser;
    returns (seconds per sample, number that failed)."""
    runs = [child.run(SETUP_CMD) for _ in range(count)]
    return [r[3] for r in runs], sum(1 for r in runs if r[0] != 0)


def run_rep(child, workload, trace):
    """One whole run of the workload: its results, wall time, peak RSS,
    per-request latencies and (when traced) the merged trace."""
    requests = workload.requests()
    if workload.in_process:
        report, wall, rss = child.worker(requests, trace)
        results = report["results"]
        traces = [report.get("trace")]
        latencies = [r["seconds"] for r in results]
    else:
        results, traces, wall, rss = [], [], 0.0, 0.0
        for argv in requests:
            if trace:
                report, seconds, peak = child.worker([argv], True)
                results += report["results"]
                traces.append(report.get("trace"))
            else:
                result, seconds, peak = child.cli(argv)
                results.append(result)
            wall += seconds
            rss = max(rss, peak)
        latencies = [wall]
    return {"results": results, "wall": wall, "rss": rss,
            "latencies": latencies,
            "trace": _merge(traces) if trace and all(traces) else None}


def _merge(traces):
    stats, counts, spans, gc_s = {}, {}, [], 0.0
    for n, t in enumerate(traces):
        for name, (calls, incl, own) in t["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += own
        for name, value in t["counts"].items():
            counts[name] = counts.get(name, 0) + value
        spans += [[n] + list(s) for s in t["spans"]]
        gc_s += t["gc_s"]
    return {"stats": stats, "counts": counts, "spans": spans, "gc_s": gc_s}


def layer_metrics(rep):
    """Per-layer metrics of one traced run."""
    trace = rep["trace"]
    stats, counts = trace["stats"], trace["counts"]

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    own = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, self_s) in stats.items():
        own[name.split(".", 1)[0]] += self_s
    circles = counts.get("packing.circles", 0)
    enumerate_s = incl("packing.generate_packing") + \
        incl("packing.generate_superpacking")
    touches = calls("packing.window_touches")
    inproc = sum(r["seconds"] for r in rep["results"])
    m = {
        "core.canon.calls": calls("core.canon"),
        "core.canon_row.calls": calls("core.canon_row"),
        "core.mat_mul.calls": calls("core.mat_mul"),
        "runtime.fraction_new.calls": counts["runtime.fraction_new.calls"],
        "packing.enumerate_s": enumerate_s,
        "packing.circles": circles,
        "packing.us_per_circle": 1e6 * enumerate_s / circles if circles else 0.0,
        "packing.window_touches.calls": touches,
        "packing.window_yield": circles / touches if touches else 0.0,
        "group.apply.calls": calls("group.apply"),
        "group.apply_s": incl("group.apply"),
        "group.word_text.calls": calls("group.GroupWord.text"),
        "svg.render_svg_s": incl("svg.render_svg"),
        "svg.bytes": counts.get("svg.bytes", 0),
        "serialize.packed_to_json_s": incl("serialize.packed_to_json"),
        "serialize.packed_to_json.calls": calls("serialize.packed_to_json"),
        "cli.stdout_bytes": sum(len(r["stdout"].encode()) for r in rep["results"]),
        "cli.parse_s": incl("cli.build_parser") + incl("cli.parse_args"),
        "classify.reduce_to_ground_s": incl("classify.reduce_to_ground"),
        "classify.reduce_letters": counts.get("classify.reduce_letters", 0),
        "classify.reduced_form_s": incl("classify.reduced_form"),
        "classify.root_quadruple_s": incl("classify.root_quadruple"),
        "classify.orbit_census_s": incl("classify.orbit_census"),
        "complete.complete_s": incl("complete.complete"),
        "verify.run_suite_s": incl("verify.run_suite"),
        "runtime.gc_s": trace["gc_s"],
        "runtime.gc_collections": counts["runtime.gc_collections"],
        # Self times tile the traced requests; 1.0 when nothing is missed.
        "trace.tiled_share": sum(own.values()) / inproc if inproc else 0.0,
    }
    for suite in SUITES:
        m[f"verify.suite.{suite}_s"] = incl(f"verify.suite.{suite}")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = own[layer]
    return m


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload_cls, seed, seconds, trace, child):
    """Runs the workload; returns (metrics, attempted, failed, failure
    notes, trace of the first traced run or None)."""
    workload = workload_cls(random.Random(seed))
    attempted = failed = 0
    notes = []
    verdicts = {}

    def checked(rep):
        nonlocal attempted, failed
        key = hashlib.sha256(json.dumps(
            [(r["rc"], r["stdout"], r["stderr"]) for r in rep["results"]]
        ).encode()).hexdigest()
        if key not in verdicts:
            try:
                verdicts[key] = workload.check(rep["results"])
            except (ValueError, KeyError, IndexError, TypeError,
                    ZeroDivisionError) as exc:
                verdicts[key] = [f"unreadable output: {exc!r}"] * \
                    len(rep["results"])
        bad = [v for v in verdicts[key] if v is not None]
        attempted += len(verdicts[key])
        failed += len(bad)
        notes.extend(bad[:3])
        return rep

    # The first start fills the bytecode cache, which users pay only once.
    setup, failed = setup_samples(child, 1)
    reps, measured = [], 0.0
    budget = seconds / 3 if trace else seconds
    while not reps or measured < budget:
        if not trace:
            # Spread over the run, the samples see the same host as the reps.
            samples, bad = setup_samples(child, SETUP_PER_RUN)
            setup += samples
            failed += bad
        reps.append(checked(run_rep(child, workload, False)))
        measured += reps[-1]["wall"]
    attempted += len(setup)
    setup = setup[1:]
    wall = statistics.median(r["wall"] for r in reps)
    if not trace:
        latencies = [x for r in reps for x in r["latencies"]]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "peak_rss_mb": statistics.median(r["rss"] for r in reps),
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_p95_ms": 1000 * _quantile(latencies, 95),
        }
        return metrics, attempted, failed, notes, None

    traced = [checked(run_rep(child, workload, True)) for _ in range(2)]
    if not all(r["trace"] for r in traced):
        return None, attempted, failed + 1, notes + ["traced run failed"], None
    runs = [layer_metrics(r) for r in traced]
    attempted += 2
    differ = [k for k in runs[0] if (k.endswith(".calls") or k in WORK_COUNTS)
              and runs[0][k] != runs[1][k]]
    if differ:
        failed += 1
        notes.append(f"work counts differ between traced runs: {differ}")
    tiled = [r["trace.tiled_share"] for r in runs]
    if any(abs(1 - t) > 0.01 for t in tiled):
        failed += 1
        notes.append(f"layer self times do not tile the traced time: {tiled}")
    metrics = {k: statistics.median([runs[0][k], runs[1][k]]) for k in runs[0]}
    metrics["trace.overhead_s"] = \
        statistics.median(r["wall"] for r in traced) - wall
    return metrics, attempted, failed, notes, traced[0]["trace"]


def _git_commit():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(args):
    from workloads import WORKLOADS
    bench = _load_benchmark()
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "python": platform.python_version(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "commit": _git_commit(), "loadavg": os.getloadavg()}
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        metrics, attempted, failed, notes, trace = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
            Child(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    if metrics is None:
        metrics = dict.fromkeys((s["name"] for s in specs), 0.0)
    if trace is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"info": info, "spans_fields": [
                "process", "id", "parent", "request", "name", "start", "end"],
                "spans": trace["spans"], "stats": trace["stats"]}, fh)
    print("info " + json.dumps(info))
    for note in notes:
        print("failure: " + note)
    for s in specs:
        print(f"  {s['name']:<32} {metrics[s['name']]:>16.6f} {s['unit']}")
    print(f"  {'error_rate':<32} {failed / attempted:>16.6f} "
          f"({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]}
                    for s in specs}}))


def steadiness():
    """Runs every workload on STEADY_SEEDS seeds, STEADY_ROUNDS times, and
    compares each end-to-end metric's spread and drift with its bound."""
    bench = _load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    values = {}  # (workload, metric, round) -> [value per seed]
    ok = True
    for rnd in range(STEADY_ROUNDS):
        for name in names:
            for i in range(STEADY_SEEDS):
                seed = 1000 * (rnd + 1) + i
                cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                       name, "--seed", str(seed), "--seconds",
                       str(bench["run_seconds"]), "--trace", "0"]
                line = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True, check=True).stdout.splitlines()[-1]
                result = json.loads(line)
                ok = ok and result["correct"]
                print(f"round {rnd + 1} {name} seed {seed}: correct="
                      f"{result['correct']} " + " ".join(
                          f"{k}={v['value']:.4f}"
                          for k, v in result["metrics"].items()), flush=True)
                for k, v in result["metrics"].items():
                    values.setdefault((name, k, rnd), []).append(v["value"])
    print(f"{'workload':<14} {'metric':<16} {'bound':>6} " + " ".join(
        f"{'median' + str(r + 1):>10} {'spread' + str(r + 1):>8}"
        for r in range(STEADY_ROUNDS)) + f" {'drift':>7}")
    for name in names:
        for spec in bench["end_to_end"]:
            metric, bound = spec["name"], spec["bound"]
            cells, medians = [], []
            for rnd in range(STEADY_ROUNDS):
                vals = values[(name, metric, rnd)]
                med = statistics.median(vals)
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / med
                medians.append(med)
                cells.append(f"{med:>10.4f} {spread:>8.3f}")
                ok = ok and spread <= bound
            drift = (medians[-1] - medians[0]) / medians[0]
            ok = ok and abs(drift) <= bound
            print(f"{name:<14} {metric:<16} {bound:>6.3f} " + " ".join(cells)
                  + f" {drift:>7.3f}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "steadiness.json"), "w",
              encoding="utf-8") as fh:
        json.dump([[list(k), v] for k, v in values.items()], fh)
    print("steady" if ok else
          "NOT steady: a run failed its checks, or a spread or drift "
          "exceeds its bound")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "gasket", "cli.py")):
        print(f"error: no gasket sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.steadiness:
        return steadiness()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    run_once(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
