#!/usr/bin/env python3
"""Benchmark of the equipell CLI, run in-process from the repository root.

    python3 bench/run.py --workload exact-pell --seed 0 --seconds 30 --trace 0

Each case is one call of `equipell.cli.main(argv)`; its JSON report and exit
code are judged by the reference checks in `reference.py`.  Whole passes
over the workload's case list repeat until `--seconds` of case time have been
measured; each case's time is its median pass, corrected for the host's
speed by a calibration kernel (see hostspeed.py).  With `--trace 0` the last line
of standard output is the end-to-end result; with `--trace 1` traced and
untraced passes alternate and the line holds the per-layer metrics.  A result
file with the machine description (and the spans, when traced) is written to
`bench/results/`.  See README.md for the workloads and metrics.
"""

import os
import sys

# Pin BLAS to one thread before numpy is imported by anything below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import hostspeed  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
# Set-up is timed in this many fresh processes, spread evenly over the run so
# that one slow stretch of the host does not decide the median.
SETUP_PROBES = 7


def _program_src():
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "equipell", "__init__.py")):
        raise SystemExit(f"bench: no src/equipell under {os.getcwd()}; run from the repository root")
    return src


def _import_program():
    """Import equipell from ./src of the checkout, never from elsewhere."""
    src = _program_src()
    sys.path.insert(0, src)
    import equipell
    import equipell.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(equipell.__file__))) != src:
        raise SystemExit(f"bench: imported equipell from {equipell.__file__}, not {src}")
    return equipell.cli


def _setup(workload, seed):
    """Everything that precedes the first timed case: import and case list."""
    cli = _import_program()
    import workloads

    cases, top = workloads.WORKLOADS[workload](seed)
    return cli, cases, top, workloads.KERNEL[workload]


def _setup_probe(args):
    """Seconds from the start of a fresh process until its case list is
    built, at the reference host speed."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]

    def probe():
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise SystemExit("bench: set-up probe failed")
        return ready

    return hostspeed.timed(probe, "interpreter")[2]


def _cache_clearers():
    """cache_clear of every functools cache at a module level of the package:
    a CLI call starts in a fresh process, so no cache may carry over between
    cases."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "equipell" or name.startswith("equipell."):
            for obj in vars(module).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    seen[id(obj)] = clear
    return list(seen.values())


def _call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed case, not a failed benchmark
            rc = "exception: " + traceback.format_exc(limit=3)
    return rc, out.getvalue(), err.getvalue()


def _run_pass(cli, cases, clearers, kernel, tracer=None):
    """One pass over the cases.  Returns per-case wall seconds, per-case
    seconds at the reference host speed, and outputs."""
    wall, scaled, outputs = [], [], []
    for case in cases:
        for clear in clearers:
            clear()
        gc.collect()
        call = functools.partial(_call, cli, case.argv)
        if tracer is not None:
            call = functools.partial(tracer.run_case, case.id, call)
        result, seconds, at_ref = hostspeed.timed(call, kernel)
        wall.append(seconds)
        scaled.append(at_ref)
        outputs.append(result)
    return wall, scaled, outputs


def _judge(case, result):
    rc, out, err = result
    try:
        report = json.loads(out)
    except ValueError:
        report = None
    errors = case.check(report, rc)
    if errors and err.strip():
        errors.append("stderr: " + err.strip()[-300:])
    return errors


def _environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg": os.getloadavg(),
    }


def _median_case(passes, index):
    return statistics.median(p[index] for p in passes)


def run(args):
    # One CPU for the cases, the probes and the kernels that calibrate them.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_samples = [_setup_probe(args)]
    cli, cases, top, kernel = _setup(args.workload, args.seed)
    clearers = _cache_clearers()
    top_index = [c.id for c in cases].index(top)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    failures = []   # (pass, case id, messages)
    unexpected = 0  # failures of cases not listed as known faults
    attempted = failed = 0
    timed = []      # (traced, per-case wall seconds, per-case reference seconds)
    layer_passes = []
    measured = 0.0
    while measured < args.seconds or (tracer and len(layer_passes) < 1):
        traced = bool(tracer) and len(timed) % 2 == 1
        if traced:
            tracer.counts.clear()
            lo = len(tracer.spans)
            tracer.install()
            try:
                wall, scaled, outputs = _run_pass(cli, cases, clearers, kernel, tracer)
            finally:
                tracer.uninstall()
            found = tracing.pass_metrics(tracer.spans, lo, len(tracer.spans), tracer.counts)
            factor = sum(scaled) / sum(wall)
            layer_passes.append({
                m: found[m] if unit == "count" else found[m] * factor
                for m, unit, _ in tracing.LAYER_METRICS
            })
        else:
            wall, scaled, outputs = _run_pass(cli, cases, clearers, kernel)
        timed.append((traced, wall, scaled))
        measured += sum(wall)
        for case, result in zip(cases, outputs):
            errors = _judge(case, result)
            attempted += 1
            if errors:
                failed += 1
                unexpected += case.known_fault is None
                if len(failures) < 50:
                    failures.append((len(timed), case.id, errors))
        while (len(setup_samples) < SETUP_PROBES
               and measured >= args.seconds * len(setup_samples) / (SETUP_PROBES - 1)):
            setup_samples.append(_setup_probe(args))
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(_setup_probe(args))

    plain = [s for t, _, s in timed if not t]
    if tracer:
        metrics = {
            m: statistics.median(p[m] for p in layer_passes) for m, _, _ in tracing.LAYER_METRICS
        }
        metrics["bench.trace_overhead_s"] = statistics.median(
            sum(s) for t, _, s in timed if t
        ) - statistics.median(sum(s) for s in plain)
        units = {m: u for m, u, _ in tracing.LAYER_METRICS}
        units["bench.trace_overhead_s"] = "s"
    else:
        metrics = {
            "cases_per_s": len(cases) / sum(_median_case(plain, i) for i in range(len(cases))),
            "top_case_ms": 1000.0 * _median_case(plain, top_index),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"cases_per_s": "1/s", "top_case_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

    line = {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "cases": [{"id": c.id, "argv": list(c.argv), "known_fault": c.known_fault} for c in cases],
        "setup_samples_s": setup_samples,
        "passes": [{"traced": t, "wall_s": w, "at_ref_s": s} for t, w, s in timed],
        "failures": failures,
        "result": line,
    }
    if tracer:
        record["missing_hooks"] = tracer.missing
        record["layer_passes"] = layer_passes
        record["layer_share"] = tracing.shares(layer_passes)
        record["spans"] = tracer.spans
        for metric, share in record["layer_share"].items():
            print(f"{metric:32s} {100 * share:6.1f}% of case time", file=sys.stderr)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS_DIR, name), "w") as handle:
        json.dump(record, handle)
    for pass_no, case_id, errors in failures:
        print(f"pass {pass_no} {case_id}: {'; '.join(errors)}", file=sys.stderr)
    print(json.dumps(line))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact-pell", "solve-lowt", "solve-hight"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: import and build the case list, print 'ready', exit")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_probe:
        _setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    _program_src()  # fail before the probes when the program is absent
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
