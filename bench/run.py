"""Fixed-seed benchmark of emoforge: the train, synth and eval workloads.

    python3 bench/run.py --workload {train,synth,eval} --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports emoforge from `src/`
and writes only under `bench/.work/`. The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}: with
`--trace 0` the metrics are the `end_to_end` list of BENCHMARK.json, with
`--trace 1` the `per_layer` list. The lines above it are the run record:
environment, set-up times, output digests and the workload's own metrics.
`--smoke` runs the same code at tiny sizes for the benchmark's tests.
See bench/README.md for the metric definitions.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
# A traced run fails if the median traced/untraced time of its paired
# operations is above 1 + OVERHEAD_LIMIT: a wrapper then sits on a hot path.
OVERHEAD_LIMIT = 0.10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "synth", "eval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    return p.parse_args(argv)


def environment(seed, nproc):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        openblas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": openblas, "nproc": nproc,
            "cpu_model": cpu, "blas_threads": nproc, "seed": seed}


def run_measured(workload, seconds):
    """Closed loop: whole cycles until `seconds` have passed and min_cycles ran."""
    cycles = []
    t0 = perf_counter()
    while len(cycles) < workload.min_cycles or perf_counter() - t0 < seconds:
        cycles.append(workload.cycle())
    return cycles


def run_traced(workload, seconds, tracer):
    """One untraced cycle, then paired cycles until `seconds` have passed: a
    paired cycle runs each operation untraced and then traced, back to back
    (see Workload.timed), and its outputs are those of the traced calls.
    Returns (untraced, traced, segments) where segments[k] is the span range
    of traced cycle k."""
    t0 = perf_counter()
    untraced = [workload.cycle()]
    traced, segments = [], []
    workload.pair_tracer = tracer
    try:
        while not traced or perf_counter() - t0 < seconds:
            start = len(tracer.spans)
            traced.append(workload.cycle())
            segments.append((start, len(tracer.spans)))
    finally:
        workload.pair_tracer = None
    return untraced, traced, segments


def percentile(values, q):
    import numpy
    return float(numpy.percentile(values, q))


def median(values):
    return percentile(values, 50)


def layer_values(stats, names):
    """Per-layer metric values for one traced cycle."""
    def get(span, field):
        return stats.get(span, {}).get(field, 0)

    out = {}
    for name in names:
        if name == "autodiff.forward_s":
            out[name] = get("autodiff.grad", "busy_s") - get("autodiff.backward", "busy_s")
        elif name == "autodiff.grad_calls_per_step":
            steps = get("autodiff.adam_step", "calls")
            out[name] = get("autodiff.grad", "calls") / steps if steps else 0.0
        elif name == "metrics.dtw_align.ns_per_cell":
            cells = get("metrics.dtw_align", "cells")
            out[name] = 1e9 * get("metrics.dtw_align", "busy_s") / cells if cells else 0.0
        elif name != "trace.overhead_frac":
            span, field = name.rsplit(".", 1)
            out[name] = get(span, field)
    return out


def count_errors(expected, seg_stats):
    """Compare exact per-cycle counts with every traced cycle's span stats.
    A call site the wrapper table missed shows up here as a short count."""
    errors = []
    for name, want in expected.items():
        span, field = name.rsplit(".", 1)
        got = {st.get(span, {}).get(field, 0) for st in seg_stats}
        if got != {want}:
            errors.append("count %s: expected %d per cycle, traced %s" % (name, want, sorted(got)))
    return errors


def summarize(cycles):
    attempted = sum(c["attempted"] for c in cycles)
    failed = sum(c["failed"] for c in cycles)
    errors = [e for c in cycles for e in c["errors"]]
    digests = [c["digest"] for c in cycles]
    if len(set(digests)) != 1 or digests[0] is None:
        errors.append("cycles produced different outputs: %s" % sorted(set(map(str, digests))))
    return attempted, failed, errors


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


def measured_metrics(workload, args, import_s, record):
    """End-to-end metrics of an untraced run."""
    cycles = run_measured(workload, args.seconds)
    latencies = [x for c in cycles for x in c["latencies"]]
    work = [c["work"] for c in cycles]
    values = {
        "setup_s": import_s + median(record["setup_runs_s"]),
        "peak_rss_mb": peak_rss_mb(),
        "latency_p50_ms": 1000.0 * percentile(latencies, 50),
        "latency_p90_ms": 1000.0 * percentile(latencies, 90),
        "work_per_s": sum(w["done"] for w in work) / sum(w["busy_s"] for w in work),
    }
    named = {"setup_s": (values["setup_s"], "s"), "peak_rss_mb": (values["peak_rss_mb"], "MB")}
    for name, (own_name, unit, scale) in workload.metric_names.items():
        named[own_name] = (scale * values[name], unit)
    named.update(workload.extra_metrics(cycles))
    record["workload_metrics"] = named
    record["latency_samples"] = len(latencies)
    return cycles, [], values


def traced_metrics(workload, args, spec, record):
    """Per-layer metrics of a traced run, with its count checks and overhead."""
    from tracer import Tracer  # imports numpy: only after the BLAS thread cap is set
    tracer = Tracer()
    untraced, traced, segments = run_traced(workload, args.seconds, tracer)
    seg_stats = [tracer.segment_stats(a, b) for a, b in segments]
    per_cycle = [layer_values(st, [m["name"] for m in spec["per_layer"]]) for st in seg_stats]
    values = {}
    for name in per_cycle[0]:
        series = [v[name] for v in per_cycle]
        values[name] = series[0] if len(set(series)) == 1 else median(series)
    overhead = median(workload.overhead_ratios) - 1.0
    values["trace.overhead_frac"] = overhead
    errors = count_errors(workload.expected_counts(), seg_stats)
    if overhead > OVERHEAD_LIMIT:
        errors.append("tracing overhead %.3f is above %.2f" % (overhead, OVERHEAD_LIMIT))
    for (a, b), result in zip(segments, traced):
        errors.extend(workload.trace_checks(tracer, a, b, result))
    trace_path = os.path.join(BENCH, ".work", "trace-%s-seed%d.jsonl" % (args.workload, args.seed))
    tracer.write_jsonl(trace_path)
    record.update(bindings=sorted(tracer.bindings), traced_cycles=len(traced),
                  paired_operations=len(workload.overhead_ratios),
                  spans={"file": os.path.relpath(trace_path, ROOT), "count": len(tracer.spans)})
    return untraced + traced, errors, values


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "emoforge", "__init__.py")):
        sys.stderr.write("error: no emoforge sources under %s\n" % SRC)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = str(nproc)
    t0 = perf_counter()
    sys.path.insert(0, SRC)
    import emoforge
    if os.path.dirname(os.path.abspath(emoforge.__file__)) != os.path.join(SRC, "emoforge"):
        sys.stderr.write("error: imported emoforge from %s, not %s\n" % (emoforge.__file__, SRC))
        return 2
    from workloads import PROBE_REF_S, WORKLOADS, host_probe, scaled_call
    import_s = perf_counter() - t0
    host_probe()  # the first call also pays numpy's one-time FFT set-up
    import_s *= PROBE_REF_S / host_probe()

    workdir = os.path.join(BENCH, ".work", "%s-%d" % (args.workload, os.getpid()))
    workload = WORKLOADS[args.workload](args.seed, workdir, args.smoke)
    record = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
              "trace": args.trace, "environment": environment(args.seed, nproc),
              "import_s": import_s}
    try:
        setup_runs, setup_raw = [], []
        for _ in range(1 if args.trace or args.smoke else SETUP_REPEATS):
            _, scaled, raw = scaled_call(workload.setup)
            setup_runs.append(scaled)
            setup_raw.append(raw)
        record.update(setup_runs_s=setup_runs, setup_raw_s=setup_raw)
        rss = {"after_setup": peak_rss_mb(), "children": peak_rss_mb(resource.RUSAGE_CHILDREN)}
        if hasattr(workload, "ckpt_digest"):
            record["checkpoint_digest"] = workload.ckpt_digest

        if args.trace:
            cycles, errors, values = traced_metrics(workload, args, spec, record)
            metric_specs = spec["per_layer"]
        else:
            cycles, errors, values = measured_metrics(workload, args, import_s, record)
            metric_specs = spec["end_to_end"]
        attempted, failed, cycle_errors = summarize(cycles)
        errors = cycle_errors + errors
        rss["after_cycles"] = peak_rss_mb()
        scales = workload.host_scales
        record["host_scale"] = {"median": median(scales), "min": min(scales), "max": max(scales),
                                "operations": len(scales)}
        record["peak_rss_mb"] = rss
        record["cycles"] = len(cycles)
        record["digest"] = cycles[0]["digest"]
        record["errors"] = errors
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps(record, indent=1, sort_keys=True))
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
