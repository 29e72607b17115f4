"""Run one workload of the ringzeta benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every case calls `ringzeta.cli.main(argv)` in this process, with stdout and
stderr captured and stdin not a terminal, and its report is checked against
the pinned reference in references.json.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 repeats the workload's case list until S seconds have passed and
reports the end-to-end metrics.  --trace 1 runs the case list once untraced
and once traced, and reports the per-layer metrics; the spans go to
.bench_trace/ in the checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_LAUNCHES = 9
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import ringzeta.cli; "
              "from ringzeta import ratfun; ratfun.formula_names()")

sys.path.insert(0, str(HERE))
import cases  # noqa: E402


def run_case(cli, argv):
    """(exit code, stdout) of one in-process CLI call."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO()  # not a TTY: the guard never prompts
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash fails the case, not the run
        print(f"case {argv} raised {exc!r}", file=sys.stderr)
        code = None
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def run_list(cli, case_list, call=None):
    """Run every case once; (seconds, outcomes), checking left out of the time."""
    start = perf_counter()
    outcomes = [(call(case_id, run_case, cli, argv) if call else run_case(cli, argv))
                for case_id, argv in case_list]
    return perf_counter() - start, outcomes


def count_failures(case_list, outcomes, references):
    failed = 0
    for (case_id, _), (code, stdout) in zip(case_list, outcomes):
        if not cases.check(references[case_id], code, stdout):
            print(f"case failed: {case_id} (exit {code})", file=sys.stderr)
            failed += 1
    return failed


def setup_seconds():
    """Median wall time for a fresh interpreter to import the CLI and load
    the formula catalog."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def cpu_seconds():
    self_, children = (resource.getrusage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return self_.ru_utime + self_.ru_stime + children.ru_utime + children.ru_stime


def timed_run(cli, case_list, references, seconds):
    setup = setup_seconds()
    reps, failed, attempted = [], 0, 0
    start = perf_counter()
    while not reps or perf_counter() - start < seconds:
        elapsed, outcomes = run_list(cli, case_list)
        reps.append(elapsed)
        attempted += len(outcomes)
        failed += count_failures(case_list, outcomes, references)
    rss_kib = sum(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    metrics = {
        "wall_s": (statistics.median(reps), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (rss_kib / 1024, "MiB"),
        "pass_frac": ((attempted - failed) / attempted, "ratio"),
    }
    return attempted, failed, metrics


def traced_run(cli, case_list, references, trace_path):
    import tracing

    cpu = cpu_seconds()
    untraced, plain = run_list(cli, case_list)
    cpu = cpu_seconds() - cpu
    tracer = tracing.Tracer()
    with tracer.installed():
        traced, outcomes = run_list(cli, case_list, call=tracer.call)
    trace_path.parent.mkdir(exist_ok=True)
    tracer.write(trace_path)
    failed = count_failures(case_list, plain, references) + count_failures(case_list, outcomes, references)
    metrics = tracer.layer_metrics()
    metrics["process.cpu_s"] = (cpu, "s")
    metrics["trace.overhead_frac"] = (traced / untraced - 1, "ratio")
    return 2 * len(case_list), failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ringzeta" / "cli.py").is_file():
        print(f"error: no ringzeta sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from ringzeta import cli

    references = json.loads((HERE / "references.json").read_text())
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_inputs_") as tmp:
        case_list = cases.materialize(args.workload, args.seed, ROOT, Path(tmp))
        if args.trace:
            path = ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.json"
            attempted, failed, metrics = traced_run(cli, case_list, references, path)
        else:
            attempted, failed, metrics = timed_run(cli, case_list, references, args.seconds)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
