"""spin7lab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload flow-1d --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  `--trace 0` reports the end-to-end
metrics from an untraced run; `--trace 1` traces the package from outside
and reports the per-layer metrics, the tracing overhead and the stage
table.  The last line of standard output is always the result object:
{"correct", "attempted", "failed", "metrics"}.  Exit code 2, with no
result line, when the package cannot be imported from `<checkout>/src`.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "SPIN7_THREADS")
MIN_OPS = 2          # two same-seed operations, so the byte-equality check runs
SETUPS = 3           # least set-ups per untraced run; setup_s is their median


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package() -> bool:
    """Import spin7 from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import spin7.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import spin7 from {src}: {exc}", file=sys.stderr)
        return False
    if os.path.commonpath([os.path.abspath(sys.modules["spin7"].__file__), src]) != src:
        print(f"error: spin7 was imported from outside {src}", file=sys.stderr)
        return False
    return True


def environment() -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = os.path.join(ROOT, "src", "spin7")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(ROOT),
        "src_spin7_lines": lines,
    }


def git_commit(root: str) -> str:
    """HEAD commit of the checkout's own .git; 'unknown' outside a repo."""
    try:
        proc = subprocess.run(["git", "--git-dir", os.path.join(root, ".git"),
                               "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def repeat(one, seconds: float, min_count: int) -> list:
    """Call one(i) for i = 0, 1, ... while another call is expected to end
    within `seconds` of the first, and at least min_count times."""
    results = []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        n = len(results)
        if n >= min_count and elapsed * (n + 1) / n > seconds:
            return results
        results.append(one(n))


def end_to_end(ops, setups, step_times, import_s: float) -> dict:
    def med(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    if step_times:   # analysis: the flow_step calls that made its checkpoints
        steps_per_s = 1.0 / med(step_times)
    else:
        steps_per_s = med(o.steps / o.wall_s for o in ops if o.wall_s > 0)
    return {
        "setup_s": {"value": import_s + med(setups), "unit": "s"},
        "wall_s": {"value": med(o.wall_s for o in ops), "unit": "s"},
        "steps_per_s": {"value": steps_per_s, "unit": "1/s"},
        "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                         "unit": "MiB"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"      # before numpy is imported anywhere
    if not import_package():
        return 2
    import_s = time.perf_counter() - T_START
    sys.path.insert(0, HERE)
    import spantrace
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".perfbench_out", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = environment()

    def op(i: int, fx, tracer=None):
        out = os.path.join(work, f"op{i}")
        if tracer is not None:
            tracer.begin_op()
        result = workloads.run_op(wl, fx, out, args.seed)
        shutil.rmtree(out, ignore_errors=True)
        return result

    def setup(i: int):
        t0 = time.perf_counter()
        fixture = wl.setup(os.path.join(work, f"setup{i}"), args.seed)
        return fixture, time.perf_counter() - t0

    if args.trace == 0:
        setups = []

        def setup_and_op(i: int):
            # a fresh set-up before every other operation: set-up samples the
            # whole run at half the cost of one per operation
            if i % 2 == 0:
                setups.append(setup(i))
            return op(i, setups[-1][0])

        ops = repeat(setup_and_op, args.seconds, max(MIN_OPS, 2 * SETUPS - 1))
        metrics = end_to_end(ops, [s for _, s in setups],
                             [t for f, _ in setups for t in f.step_times], import_s)
    else:
        setup_tracer = spantrace.Tracer()
        setup_tracer.install()
        try:
            fx, _ = setup(0)
        finally:
            setup_tracer.uninstall()
        setup_tracer.finish()
        tracer = spantrace.Tracer()

        def plain_and_traced(i: int):
            # alternate, so the overhead is not confused with the machine's drift
            plain = op(2 * i, fx)
            tracer.install()
            try:
                return plain, op(2 * i + 1, fx, tracer)
            finally:
                tracer.uninstall()

        pairs = repeat(plain_and_traced, args.seconds, 1)
        tracer.finish()
        ops, traced = [p[0] for p in pairs], [p[1] for p in pairs]
        layers = spantrace.layer_metrics(tracer, len(traced))
        layers["bench.trace.overhead_s"] = (statistics.median(o.wall_s for o in traced)
                                            - statistics.median(o.wall_s for o in ops))
        steps = sum(o.steps for o in traced)
        table = spantrace.stage_table(tracer, setup_tracer, steps)
        print(spantrace.format_table({wl_label(wl): table}))
        layers["flow.run_flow.step_ms"] = table["per-step"] if steps else 0.0
        with open(os.path.join(work, "stages.json"), "w", encoding="utf-8") as fh:
            json.dump({wl_label(wl): table}, fh, indent=2)
        spans_path = os.path.join(work, "spans.jsonl")
        setup_tracer.write(spans_path, "setup")
        tracer.write(spans_path, "timed")
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            wanted = json.load(fh)["per_layer"]
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in wanted}
        with open(os.path.join(work, "layers.json"), "w", encoding="utf-8") as fh:
            json.dump(layers, fh, indent=2, sort_keys=True)
        ops = ops + traced

    failures = [f for o in ops for f in o.failures]
    failed = sum(1 for o in ops if o.failures)
    for i, o in enumerate(ops[1:], 1):
        if o.fingerprint != ops[0].fingerprint:
            failed += 0 if o.failures else 1
            failures.append(f"{args.workload}: operation {i} output bytes differ from "
                            f"operation 0 (same seed)")
    for f in failures:
        print(f"FAIL {f}")
    result = {"correct": not failures, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    print(f"fail_ratio {failed / len(ops):.6g} ({failed}/{len(ops)})")
    print("env " + json.dumps(env, sort_keys=True))
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "env": env, "failures": failures,
                   "op_wall_s": [o.wall_s for o in ops], **result}, fh, indent=2)
    print(json.dumps(result))
    return 0


def wl_label(wl) -> str:
    spec = wl.raw_config(0)["lattice"]
    n, k = spec["points"], len(spec["active_axes"])
    return f"{wl.name} ({n}^{k})" if k > 1 else f"{wl.name} ({n} pts)"


if __name__ == "__main__":
    raise SystemExit(main())
