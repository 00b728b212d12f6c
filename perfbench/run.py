"""Closed-loop benchmark of the carnot-extremals command line.

One client calls ``carnot_extremals.cli.main`` in-process, one request at a
time, on configs generated during set-up from ``--seed``.  Run from the root
of a source checkout:

    python3 perfbench/run.py --workload classify_lp --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke

With ``--trace 0`` the client loops over the workload's requests for
``--seconds`` seconds, checks every output (see checks.py), and reports the
end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` it runs a fixed
prefix of the requests twice, untraced and then traced (see tracing.py), and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is the result object; the line before it is the full record
with provenance.  See README.md in this directory for the design.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
STATE_FILE = ROOT / ".perfbench_state" / "counters.json"

TAIL_BEYOND = 10          # samples that must lie beyond the tail percentile
SETUP_PROBES = 2          # extra fresh-process set-ups timed per run
# Requests in the traced prefix; the untraced and the traced pass of it
# together take 35 to 40 s on a 2-core machine at the commit that introduced
# the benchmark.
TRACE_PREFIX = {"classify_smooth": 88, "classify_lp": 18, "integrate_mixed": 48}
# Counters that must repeat exactly between runs of the same code and seed.
DETERMINISTIC = ("flow.nfev", "flow.steps", "bodies.gradient_calls", "flow.crossings_tested",
                 "reporting.csv_bytes", "reporting.report_bytes", "lift.nfev", "lift.steps")


def _process_age() -> float:
    """Seconds since this process started, from /proc (10 ms resolution)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def _import_library() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from carnot_extremals import bodies, cli, flow, lift
    return {"cli": cli, "flow": flow, "lift": lift, "bodies": bodies}


@dataclass
class Outcome:
    seconds: float
    ops: int
    errors: list = field(default_factory=list)


class Bench:
    """One workload's generated configs and the client that sends them."""

    def __init__(self, workload: str, seed: int, shape, work_dir: Path):
        self.modules = _import_library()
        self.cli = self.modules["cli"]
        self.requests = workloads.make_requests(workload, seed, shape)
        self.paths = workloads.write_configs(self.requests, work_dir / "configs")
        self.out_dir = work_dir / "out"
        self.sink = open(os.devnull, "w")
        self.hook = None   # called around cli.main in traced passes
        warm = workloads.warmup_request(workload)
        warm_path = workloads.write_configs([warm], work_dir / "warmup")[0]
        self.send(warm, warm_path)

    def close(self) -> None:
        self.sink.close()

    def send(self, req, path) -> Outcome:
        argv = [req.command, "--config", str(path), "--out", str(self.out_dir)]
        errors = []
        with redirect_stdout(self.sink), redirect_stderr(self.sink):
            t0 = time.perf_counter()
            try:
                code = self.hook(self.cli.main, argv) if self.hook else self.cli.main(argv)
            except Exception:  # a crash is one failed request, not a failed run
                code = None
                errors.append(traceback.format_exc(limit=3))
            elapsed = time.perf_counter() - t0
        if code is not None:
            errors += self.check(req, code)
        return Outcome(elapsed, req.ops, errors)

    def check(self, req, code) -> list:
        try:
            if req.command == "classify":
                return checks.check_classify(req.doc, code, self.out_dir)
            return checks.check_integrate(req.doc, code, self.out_dir, req.expect_abort)
        except (OSError, KeyError, TypeError, ValueError) as err:
            return [f"unreadable output: {err!r}"]

    def request(self, n: int) -> tuple:
        i = n % len(self.requests)
        return self.requests[i], self.paths[i]


def _tail(values: list) -> tuple[float, float, int]:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it.

    Returns the value, the percentile and the samples beyond it, which fall
    short of TAIL_BEYOND only when there are too few samples.
    """
    ordered = sorted(values)
    idx = len(ordered) - 1 - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - 1 - idx


def end_to_end(outcomes: list, setup_samples: list) -> tuple[dict, dict]:
    """The gated metrics of BENCHMARK.json, and the latency record beside them.

    The latency quantiles are reported but not gated: see README.md.
    """
    lat = [o.seconds for o in outcomes]
    failed = sum(1 for o in outcomes if o.errors)
    tail, pct, beyond = _tail(lat)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (sum(o.ops for o in outcomes) / sum(lat), "1/s"),
        "pass_frac": (1.0 - failed / len(outcomes), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    record = {"latency_p50_s": statistics.median(lat), "latency_tail_s": tail,
              "tail_percentile": pct, "tail_samples_beyond": beyond, "requests": len(lat),
              "fail_frac": failed / len(outcomes), "setup_samples_s": setup_samples}
    return metrics, record


def per_layer(bench: Bench, prefix: int) -> tuple[dict, dict, list, set]:
    """Untraced then traced pass over the first ``prefix`` requests.

    Returns the layer metrics, the raw counter totals, the outcomes of both
    passes and the names of the spans recorded.
    """
    plain = [bench.send(*bench.request(n)) for n in range(prefix)]
    tracer = tracing.Tracer(bench.modules)

    def hook(main, argv):
        root = tracer.open(tracing.ROOT)
        try:
            return main(argv)
        finally:
            tracer.close(root)

    tracer.install()
    bench.hook = hook
    try:
        traced = []
        for n in range(prefix):
            tracer.request = n
            traced.append(bench.send(*bench.request(n)))
    finally:
        bench.hook = None
        tracer.uninstall()
    walls = [o.seconds for o in traced]
    layers, totals = tracing.layer_metrics(tracer.spans, walls,
                                           [bench.request(n)[0].sweep for n in range(prefix)])
    base = sum(o.seconds for o in plain)
    layers["trace.overhead_s"] = ((sum(walls) - base) / prefix, "s")
    layers["trace.overhead_frac"] = ((sum(walls) - base) / base, "ratio")
    return layers, totals, plain + traced, {s.name for s in tracer.spans}


def _source_hash() -> str:
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _repeat_check(key: str, totals: dict) -> list:
    """Compare the deterministic counters with an earlier run of the same key."""
    counters = {name: totals[name] for name in DETERMINISTIC}
    store = json.loads(STATE_FILE.read_text()) if STATE_FILE.exists() else {}
    seen = store.get(key)
    if seen is not None:
        return [f"counter {name} was {seen[name]}, now {counters[name]}"
                for name in DETERMINISTIC if seen.get(name) != counters[name]]
    store[key] = counters
    STATE_FILE.parent.mkdir(parents=True, exist_ok=True)
    tmp = STATE_FILE.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, STATE_FILE)
    return []


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def _provenance(args, source_hash: str) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "git_commit": _git_commit(),
            "source_sha256": source_hash}


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it is ready to send."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def _result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {name: {"value": value, "unit": unit}
                                   for name, (value, unit) in metrics.items()}})


def run(args) -> int:
    work_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, workloads.FULL, work_dir)
    try:
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        setup_main = _process_age()
        source_hash = _source_hash()
        record = _provenance(args, source_hash)
        problems = []
        if args.trace:
            prefix = TRACE_PREFIX[args.workload]
            metrics, totals, outcomes, _ = per_layer(bench, prefix)
            problems = _repeat_check(f"{source_hash}/{args.workload}/{args.seed}/{prefix}", totals)
            record.update(requests=prefix, counters=totals, repeat_mismatches=problems)
        else:
            outcomes = []
            deadline = time.perf_counter() + args.seconds
            while time.perf_counter() < deadline:
                outcomes.append(bench.send(*bench.request(len(outcomes))))
            setup = [setup_main] + [_probe_setup(args.workload, args.seed)
                                    for _ in range(SETUP_PROBES)]
            metrics, extra = end_to_end(outcomes, setup)
            record.update(extra)
    finally:
        bench.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    failed = sum(1 for o in outcomes if o.errors)
    record["failures"] = [o.errors for o in outcomes if o.errors][:5]
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    print(json.dumps(record))
    print(_result_line(failed == 0 and not problems, len(outcomes), failed, metrics))
    return 0


def smoke() -> int:
    """Tiny versions of the three workloads, with the checks the README lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems, spans = [], set()
    for workload in workloads.WORKLOADS:
        work_dir = WORK_DIR / f"smoke-{workload}-{os.getpid()}"
        t0 = time.perf_counter()
        bench = Bench(workload, 0, workloads.SMOKE, work_dir)
        setup = time.perf_counter() - t0
        try:
            n = len(bench.requests)
            outcomes = [bench.send(*bench.request(i)) for i in range(n)]
            metrics, extra = end_to_end(outcomes, [setup])
            layers, totals, traced, names = per_layer(bench, n)
            _, again, _, _ = per_layer(bench, n)
            spans |= names
        finally:
            bench.close()
            shutil.rmtree(work_dir, ignore_errors=True)
        for group, emitted in (("end_to_end", metrics), ("per_layer", layers)):
            for m in spec[group]:
                if emitted.get(m["name"], (None, None))[1] != m["unit"]:
                    problems.append(f"{workload}: {group} metric {m['name']} missing or wrong unit")
        failures = [e for o in outcomes + traced for e in o.errors]
        if failures:
            problems.append(f"{workload}: fail_frac {extra['fail_frac']}: {failures[:2]}")
        if layers["trace.uncovered_s"][0] < 0.0:
            problems.append(f"{workload}: layer self times exceed the request wall time")
        if {k: totals[k] for k in DETERMINISTIC} != {k: again[k] for k in DETERMINISTIC}:
            problems.append(f"{workload}: deterministic counters differ between two passes")
    missing = set(tracing.SPANS) | {tracing.ROOT}
    missing -= spans
    if missing:
        problems.append(f"no spans recorded for {sorted(missing)}")
    for line in problems:
        print(line, file=sys.stderr)
    print("smoke ok" if not problems else "smoke FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "carnot_extremals" / "cli.py").is_file():
        print(f"no carnot_extremals sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ["CARNOT_LOG"] = "off"
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
