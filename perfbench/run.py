"""Benchmark of moediv: end-to-end and per-layer timings of three workloads.

    python3 perfbench/run.py --workload train|analyze|check --seed N --seconds S --trace 0|1

Run from the repository root. ``--trace 0`` runs the workload untraced and
reports the ``end_to_end`` metrics of BENCHMARK.json. ``--trace 1`` runs it
untraced and then traced, and reports the ``per_layer`` metrics. Both check
every output. The last line of standard output is the JSON result; the
lines before it give every figure by name and unit, and the environment.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One caller, so BLAS gets one thread: with the interpreter's own thread
# that stays within two cores, and timings do not depend on how busy the
# second core is.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
EDGE_SLICES = 3  # reference slices before and after each set-up and unit
# set-up spans whose per-layer numbers come from the traced set-up
SETUP_SPANS = ("data.synth_corpus", "data.split_validation", "data.pack_batches")
# counts that must repeat exactly from one traced unit to the next, with
# cli.<verb>.forward_calls
EXACT_COUNTS = ("tensor.graph_nodes.total", "divergence.decompose.calls",
                "model.forward.calls")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "analyze", "check"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fresh_import():
    """Load the package in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # no timeout: waiting with one polls in steps of up to 50 ms, which
    # would show up in the measurement
    subprocess.run([sys.executable, "-c", "import moediv.cli"], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def window(workloads, wl, work, sites, seconds=None, units=None):
    """Run units back to back until ``seconds`` have passed or ``units`` ran.

    Each unit gets a fresh Tracer with ``sites`` wrapped (None: every site),
    reference slices before, during and after it, and a fresh directory.
    Returns [(Outcome, Tracer)].
    """
    results = []
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer()
        pacer = calibrate.Pacer(tracer)
        unit_dir = work / f"unit{len(results)}"
        unit_dir.mkdir(parents=True)
        pacer.slice(EDGE_SLICES)
        with tracing.patched(workloads.instrument(tracer, sites, pacer)):
            outcome = wl.run_unit(unit_dir, tracer)
        pacer.slice(EDGE_SLICES)
        shutil.rmtree(unit_dir)
        results.append((outcome, tracer))
        if units is not None and len(results) >= units:
            return results
        if units is None and time.perf_counter() - start >= seconds:
            return results


def unit_times(wl, tracer):
    """Reference seconds of one unit's measured spans.

    Returns (run seconds, raw run seconds, {span name: [seconds]}).
    """
    cal = calibrate.Calibration(tracer.spans)
    measured = {}
    raw = 0.0
    for name, start, end, _ in tracer.spans:
        if name in wl.measured_spans:
            measured.setdefault(name, []).append(cal(start, end))
        if name in wl.run_spans:
            raw += end - start
    return sum(sum(measured.get(n, [])) for n in wl.run_spans), raw, measured


def known_spans(workloads):
    verbs = [v[0] for v in workloads.ANALYZE_VERBS] + ["check"]
    return (list(workloads.SITES)
            + ["checks." + fn.__name__ for _, fn in workloads.checks.ALL_CHECKS]
            + ["cli.run." + v for v in verbs])


def unit_layer_values(workloads, tracer, duration=None):
    """Per-layer values of one traced unit."""
    summary = tracing.summarize(tracer.spans, duration)
    values = {}
    for span in known_spans(workloads):
        for field in ("ms", "self_ms", "calls"):
            values[f"{span}.{field}"] = summary.get(span, {}).get(field, 0)

    def per_call(counter, span):
        calls = summary.get(span, {}).get("calls", 0)
        return tracer.counters.get(counter, 0) / calls if calls else 0.0

    values["tensor.graph_nodes"] = per_call("tensor.graph_nodes", "tensor.backward")
    values["tensor.graph_nodes.total"] = tracer.counters.get("tensor.graph_nodes", 0)
    for name in ("routing.active_experts", "routing.load_max_over_mean"):
        values[name] = per_call(name, "routing.moe_forward_batch")
    for verb, *_ in workloads.ANALYZE_VERBS:
        values[f"cli.{verb}.forward_calls"] = tracing.count_within(
            tracer.spans, "model.forward", "cli.run." + verb)
    return values


def exact_counts(values):
    return {n: v for n, v in values.items()
            if n in EXACT_COUNTS or n.endswith(".forward_calls")}


def set_up(workloads, wl, work, traced):
    """Set up SETUP_REPS times (once, traced, with ``traced``) between
    reference slices. Returns (reference seconds of each set-up, Tracer)."""
    tracer = tracing.Tracer()
    pacer = calibrate.Pacer(tracer)
    for rep in range(1 if traced else SETUP_REPS):
        rep_dir = work / f"setup{rep}"
        rep_dir.mkdir()
        pacer.slice(EDGE_SLICES)
        sites = None if traced else ()
        with tracing.patched(workloads.instrument(tracer, sites, pacer)):
            with tracer.span("bench.setup"):
                if not traced:
                    fresh_import()
                wl.setup(rep_dir)
    pacer.slice(EDGE_SLICES)
    cal = calibrate.Calibration(tracer.spans)
    return [cal(s, e) for name, s, e, _ in tracer.spans if name == "bench.setup"], tracer


def measure(workloads, args, work):
    """Set up, run the windows, check outputs.

    Returns (values, report-only values, attempted, failed, problems).
    """
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setups, setup_tracer = set_up(workloads, wl, work, args.trace)
    values = {} if args.trace else {"setup_s": tracing.median(setups)}

    plain = window(workloads, wl, work / "plain", wl.timing_sites, seconds=args.seconds)
    traced = []
    if args.trace:
        traced = window(workloads, wl, work / "traced", None, units=max(2, len(plain)))

    outcomes = [o for o, _ in plain + traced]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = []
    if failed:
        problems.append(f"{failed} of {attempted} operations failed their output checks")
    if any(o.outputs != outcomes[0].outputs for o in outcomes):
        problems.append("outputs differ between units (traced and untraced)")

    times = [unit_times(wl, t) for _, t in plain]
    runs = [run for run, _, _ in times]
    values["run_s"] = tracing.median(runs)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values.update(dict.fromkeys(workloads.FIGURES, 0.0))
    values.update(wl.figures([m for _, _, m in times], runs))
    values["ops_failed_frac"] = failed / attempted
    slices = [1e3 * (e - s) for _, t in plain for name, s, e, _ in t.spans
              if name == calibrate.REF_SPAN]
    extra = {"bench.run_wall_s": tracing.median([raw for _, raw, _ in times]),
             "bench.reference_slice_ms": tracing.median(slices)}

    if traced:
        per_unit = [unit_layer_values(workloads, t, calibrate.Calibration(t.spans))
                    for _, t in traced]
        for name in per_unit[0]:
            values[name] = tracing.median([u[name] for u in per_unit])
        setup_summary = tracing.summarize(
            setup_tracer.spans, calibrate.Calibration(setup_tracer.spans))
        for span in SETUP_SPANS:
            for field in ("ms", "self_ms", "calls"):
                values[f"{span}.{field}"] = setup_summary.get(span, {}).get(field, 0)
        counts = [exact_counts(u) for u in per_unit]
        if any(c != counts[0] for c in counts):
            problems.append(f"exact counts differ between traced units: {counts}")
        traced_runs = [unit_times(wl, t)[0] for _, t in traced]
        values["bench.trace_overhead_frac"] = (
            tracing.median(traced_runs) / values["run_s"] - 1.0)
    return values, extra, attempted, failed, problems


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def git_state():
    """(sha, dirty) of the checkout, or (None, None) when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)

    def git(*cmd):
        return subprocess.run(["git", *cmd], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60)

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return None, None
        return head.stdout.strip(), bool(git("status", "--porcelain").stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return None, None


def environment(args):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    sha, dirty = git_state()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "git_sha": sha,
        "git_dirty": dirty,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "moediv" / "__init__.py").is_file():
        print(f"error: no moediv package under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    # one core for the run and the interpreters it starts, so the reference
    # slices time the core the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        values, extra, attempted, failed, problems = measure(workloads, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in values.items():
        if name in units:
            print(f"{name} = {value:.6g} {units[name]}")
    print(f"bench.run_wall_s = {extra['bench.run_wall_s']:.6g} s (median, not calibrated)")
    print(f"bench.reference_slice_ms = {extra['bench.reference_slice_ms']:.6g} ms "
          f"(median; {1e3 * calibrate.NOMINAL_S:g} ms is reference speed)")
    for problem in problems:
        print(f"problem: {problem}")
    print("env " + json.dumps(environment(args), sort_keys=True))
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
