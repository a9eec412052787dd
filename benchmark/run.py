#!/usr/bin/env python3
"""latentaudio benchmark: one workload per run, checked outputs, one JSON line.

    python3 benchmark/run.py --workload synth-session --seed 1 --seconds 40 --trace 0

Run from the repository root. With --trace 0 the last line of standard
output holds the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run. Everything above that line is the
run record. See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# BLAS reads its thread count once, at numpy import: set it before any import.
# One thread by default: on a 2-core host a second one spin-waits on the
# other core, so the run would also time the host's other load there. A
# count given in the environment is kept, up to nproc.
for _var in THREAD_VARS:
    try:
        _wanted = int(os.environ.get(_var, 1))
    except ValueError:
        _wanted = 1
    os.environ[_var] = str(min(max(_wanted, 1), NPROC))

import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

import numpy as np  # noqa: E402

from checks import CheckFailed  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import WORKLOADS, Metric, Result  # noqa: E402

IMPORT_LAUNCHES = 5
# a traced operation's top-level spans must cover its wall time to within this
COVERAGE_TOLERANCE = (0.02, 2e6)  # share of the wall time, or ns, whichever is larger


def cold_import_s(env: dict) -> float:
    """Median over fresh interpreters of the time `import latentaudio.cli` takes."""
    code = ("import time; t = time.perf_counter(); import latentaudio.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_LAUNCHES + 1):  # the first launch warms the file cache
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout.strip()))
    return statistics.median(times[1:])


def run_round(cli, ops, recorder=None, tag="") -> list:
    results = []
    for op in ops:
        argv = op.args()
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        if recorder is not None:
            recorder.op = f"{tag}:{op.name}"
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter_ns()
            code = cli.main(argv)
            ns = time.perf_counter_ns() - start
        results.append(Result(op, code, ns, out.getvalue(), err.getvalue()))
    return results


def cli_round(ops, env: dict) -> tuple[list, float]:
    """Run each operation as its own `python3 -m latentaudio.cli` process, as a
    user would; returns the results and the largest peak RSS among them, in MB."""
    results, peak_kb = [], 0
    for op in ops:
        start = time.perf_counter_ns()
        proc = subprocess.Popen([sys.executable, "-m", "latentaudio.cli", *op.args()], env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        results.append(Result(op, proc.returncode, time.perf_counter_ns() - start, "", ""))
        peak_kb = max(peak_kb, usage.ru_maxrss)
    return results, peak_kb / 1024.0


def digests(results) -> dict:
    return {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
            for r in results if r.ok for p in r.op.outputs}


def blas_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # the config layout differs across numpy builds
        return f"unknown ({exc.__class__.__name__})"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "latentaudio" / "cli.py").is_file():
        print(f"error: no program source at {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))

    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, work, work_root, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path, work_root: Path, env: dict) -> int:
    workload = WORKLOADS[args.workload](work, args.seed, env)
    setup_s = cold_import_s(env) if not args.trace else None
    workload.prepare()
    import latentaudio.cli as cli

    ops = workload.ops()
    recorder = Recorder() if args.trace else None
    problems = []

    first, peak_rss_mb = cli_round(ops, env)
    reference = digests(first)
    problems += [f"{r.op.name} failed when run as its own process (exit {r.code})"
                 for r in first if not r.ok and not r.op.known_fault]
    rounds, traced_rounds, untraced_ns, traced_ns = [], 0, [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(rounds) < 1 + args.trace:
        tracing = bool(args.trace) and len(rounds) % 2 == 1
        if tracing:
            recorder.install()
        try:
            results = run_round(cli, ops, recorder if tracing else None,
                                tag=str(len(rounds)))
        finally:
            if tracing:
                recorder.uninstall()
        (traced_ns if tracing else untraced_ns).append(sum(r.ns for r in results))
        traced_rounds += tracing
        rounds.append(results)
        if digests(results) != reference:
            problems.append(f"round {len(rounds)}: artifacts differ from the CLI round's"
                            + (" (traced)" if tracing else ""))

    last = {r.op.name: r for r in rounds[-1]}
    last.update({r.op.name: r for r in run_round(cli, workload.verify_ops(), tag="verify")})
    try:
        workload.check(last)
    except CheckFailed as exc:
        problems.append(str(exc))
    for results in rounds:
        for r in results:
            if not r.ok and not r.op.known_fault:
                problems.append(f"{r.op.name} failed: {r.stderr.strip()}")

    attempted = sum(len(results) for results in rounds)
    failed = sum(not r.ok for results in rounds for r in results)
    latencies = {op.name: [r.ns for results in rounds for r in results if r.op.name == op.name]
                 for op in ops}

    print(f"# workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {len(rounds)} rounds")
    print(f"# nproc {NPROC}; python {platform.python_version()}; numpy {np.__version__}; "
          f"blas {blas_build()}")
    print("# thread env: " + ", ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS))
    for op in ops:
        rows = [r for results in rounds for r in results if r.op.name == op.name]
        ok = [r.ns / 1e6 for r in rows if r.ok]
        median = f"median {statistics.median(ok):.2f} ms, min {min(ok):.2f} ms" if ok else "no successes"
        print(f"# op {workload.name}/{op.name}: attempted {len(rows)} failed "
              f"{sum(not r.ok for r in rows)}; {median}"
              + ("  [known fault]" if op.known_fault else ""))
    if args.trace:
        metrics = recorder.layer_metrics(traced_rounds)
        worst = 0.0
        for index, results in enumerate(rounds):
            if index % 2 == 0:
                continue
            for r in results:
                top = recorder.top_level_ns(f"{index}:{r.op.name}")
                gap = abs(r.ns - top)
                worst = max(worst, gap / r.ns)
                if gap > max(COVERAGE_TOLERANCE[0] * r.ns, COVERAGE_TOLERANCE[1]):
                    problems.append(f"{r.op.name}: spans cover {top} of {r.ns} ns")
        trace_path = work_root / "traces" / f"{workload.name}-seed{args.seed}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        recorder.write_jsonl(trace_path)
        overhead = (statistics.median(traced_ns) - statistics.median(untraced_ns)) / 1e6
        print(f"# traced rounds {traced_rounds}, untraced {len(untraced_ns)}; tracing overhead "
              f"{overhead:.2f} ms per round; worst span coverage gap {worst:.4%}; "
              f"{len(recorder.spans)} spans in {trace_path.relative_to(ROOT)}")
        for name, row in sorted(recorder.stats().items()):
            print(f"# span {name}: calls {row['calls'] / traced_rounds:g}/round, "
                  f"{row['ns'] / 1e6 / traced_rounds:.2f} ms, "
                  f"self {row['self_ns'] / 1e6 / traced_rounds:.2f} ms, "
                  f"work {row['work'] / traced_rounds:g}")
    else:
        mix = [op.name for op in ops if not op.known_fault]
        named = [
            Metric("setup_s", setup_s, "s", IMPORT_LAUNCHES),
            Metric("peak_rss_mb", peak_rss_mb, "MB", len(ops)),
            Metric("round_ms", sum(statistics.median(latencies[n]) for n in mix) / 1e6, "ms",
                   len(rounds)),
            *workload.named_metrics(latencies, rounds),
        ]
        for m in named:
            print(f"# metric {m.name} = {m.value:.6g} {m.unit} (n={m.samples})")
        metrics = {m.name: {"value": m.value, "unit": m.unit} for m in named[:3]}

    for problem in problems:
        print(f"# CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
