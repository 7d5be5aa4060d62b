"""powertree benchmark: one workload per run, one process, closed loop.

    python3 bench/run.py --workload protocol|monitor_long|cli_chain|all \
        [--seed 1] [--seconds 20] [--trace 0|1]

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src``.  The run sets up its inputs from ``--seed`` (the
median of several set-ups is ``setup_s``), repeats the workload's timed
pass as often as ``--seconds`` holds passes of the workload's nominal
length (at least ``min_passes`` times), checks every pass's outputs
outside the timed region, and prints
each metric with its unit (``all`` runs the three workloads one after
another, each in its own process).  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json, or with ``--trace 1`` its per-layer metrics.

Every pass of a run does the same work on the same inputs, and a pass is a
fixed sequence of steps timed back to back (workloads.py).  ``wall_s`` is
the sum over steps of each step's fastest time among the run's passes: the
time one pass takes when no step is slowed by other load on the host.
Other load on a shared host only adds time, and much of it comes and goes
within a second, so a short step's fastest time varies less from run to
run than a pass's mean; a slowdown of the whole host that outlasts a run
still shows.  The record also keeps every pass's wall time and their
median.

A traced run sets up once with spans on, runs the untraced passes, then one
more pass with spans around every call into powertree; per-layer times
are self times of those spans and ``trace.overhead_s`` is the traced pass
minus the median untraced pass.  The full record (provenance, checks,
behaviour fingerprint, spans) goes to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# One BLAS/OpenMP thread: the benchmark is a single closed-loop process on a
# 2-core machine, and the CLI children inherit the same environment.
THREAD_CAPS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                "VECLIB_MAXIMUM_THREADS")}

WORKLOADS = ("protocol", "monitor_long", "cli_chain")
# Per-layer time metric -> the span names whose self times it sums.
SPAN_METRICS = {
    "workload.simulate_dataset_s": ("workload.simulate_dataset",),
    "workload.synthesize_trace_s": ("workload.synthesize_trace",),
    "workload.save_dataset_s": ("workload.save_dataset",),
    "workload.load_dataset_s": ("workload.load_dataset",),
    "selection.rfe_s": ("selection.rfe",),
    "tuning.grid_search_s": ("tuning.grid_search_cv",),
    "tuning.learning_curve_s": ("tuning.learning_curve",),
    "model.fit_tree_s": ("model.fit_tree",),
    "model.fit_linear_s": ("model.fit_linear",),
    "model.predict_tree_batch_s": ("model.predict_tree_batch",),
    "hwsim.quantize_s": ("hwsim.quantize",),
    "hwsim.period_features_s": ("hwsim.period_features",),
    "pdn.build_lut_s": ("pdn.build_lut",),
    "pdn.shed_s": ("pdn.shed_rows", "pdn.shed"),
}
COUNT_METRICS = ("selection.rfe_iterations", "tuning.combinations",
                 "tuning.fits_nominal", "model.tree_nodes", "model.tree_depth",
                 "hwsim.counter_steps", "hwsim.engine_calls",
                 "hwsim.engine_cycles_total", "cli.bytes_written")
# Workload outputs, each produced by some workloads only; the per-layer
# record reads 0 where a workload does not produce one.
OUTPUT_METRICS = ("sim_cycles_per_s", "tree_test_mae_pct",
                  "linear_test_mae_pct", "cv_best_mae_pct", "monitor_mae_pct",
                  "est_cycles_max", "shed_eff_impv_pct")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read without starting git; 'unknown' outside
    a repository."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = root / ".git" / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    return sorted_vals[min(len(sorted_vals) - 1, int(q * len(sorted_vals)))]


def layer_metrics(tr, summary: dict, overhead_s: float, cli_stages) -> dict:
    self_t = tr.self_times()
    out = {name: sum(self_t.get(s, 0.0) for s in spans)
           for name, spans in SPAN_METRICS.items()}
    out.update({f"cli.{s}_s": self_t.get(f"cli.{s}", 0.0) for s in cli_stages})
    out.update({name: summary["counts"].get(name, 0) for name in COUNT_METRICS})
    pf = out["hwsim.period_features_s"]
    out["hwsim.counter_steps_per_s"] = \
        out["hwsim.counter_steps"] / pf if pf > 0 else 0.0
    lat = sorted(d * 1e6 for d in tr.durations("hwsim.engine_invoke"))
    out["hwsim.engine_invoke_us.p50"] = percentile(lat, 0.50)
    out["hwsim.engine_invoke_us.p99"] = percentile(lat, 0.99)
    out["hwsim.engine_invoke_us.samples"] = len(lat)
    out["trace.overhead_s"] = overhead_s
    out["trace.spans"] = len(tr.spans)
    return out


def call_shares(tr) -> dict[str, float]:
    """Share of the traced pass spent in each called function; the rest is
    the benchmark's own code between calls."""
    pass_idx = max(i for i, sp in enumerate(tr.spans) if sp[0] == "pass")
    _, p0, p1, _ = tr.spans[pass_idx]
    shares: dict[str, float] = {}
    for name, t0, t1, parent in tr.spans:
        if parent == pass_idx:
            shares[name] = shares.get(name, 0.0) + (t1 - t0) / (p1 - p0)
    shares["(between calls)"] = 1.0 - sum(shares.values())
    return shares


def run(args, spec: dict, pt, np) -> tuple[dict, dict]:
    import checks
    import workloads
    from tracer import Tracer

    work = ROOT / ".bench_out" / f"work-{os.getpid()}"
    W = workloads.make(args.workload, ROOT)
    seeds = workloads.Seeds.from_seed(args.seed)
    tr = Tracer()
    failures: dict[str, int] = {}

    def tally(found: dict[str, int]) -> None:
        for k, v in found.items():
            failures[k] = failures.get(k, 0) + v

    try:
        work.mkdir(parents=True, exist_ok=True)
        selftest = checks.selftest(pt, work)

        setup_times = []
        for _ in range(1 if args.trace else W.setup_repeats):
            t0 = perf_counter()
            with tr.root("setup", bool(args.trace)):
                state = W.setup(seeds, tr, work)
            setup_times.append(perf_counter() - t0)

        walls: list[float] = []
        step_times: list[list[tuple[str, float]]] = []
        summaries: list[dict] = []

        def one_pass(traced: bool) -> float:
            laps: list[tuple[str, float]] = []
            t0 = last = perf_counter()

            def lap(step: str) -> None:
                nonlocal last
                now = perf_counter()
                laps.append((step, now - last))
                last = now

            with tr.root("pass", traced):
                out = W.run_pass(state, tr, lap)
            lap("end")
            wall = perf_counter() - t0
            if not traced:
                step_times.append(laps)
            tally(W.check(state, out))
            summaries.append(W.summarize(state, out))
            return wall

        # A fixed pass count: the fastest of n laps drifts lower as n grows,
        # so n must not depend on how fast the host happens to run.
        for _ in range(max(W.min_passes, round(args.seconds / W.pass_s))):
            walls.append(one_pass(False))
        steps = [name for name, _ in step_times[0]]
        tally({"pass_steps_identical": sum(
            [name for name, _ in laps] != steps for laps in step_times)})
        best_steps = [min(laps[i][1] for laps in step_times)
                      for i in range(len(steps))]
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_chain" \
            else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        overhead = one_pass(True) - statistics.median(walls) \
            if args.trace else 0.0
        if args.workload == "cli_chain":
            with tr.root("io", bool(args.trace)):
                tally(W.io_roundtrip(state, tr))
        tally({"pass_fingerprints_identical": sum(
            s["fingerprint"] != summaries[0]["fingerprint"]
            for s in summaries[1:])})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    sound = {k: clean == 0 and corrupt > 0
             for k, (clean, corrupt) in selftest.items()}
    attempted = tr.calls
    failed = min(attempted, sum(failures.values()))
    outputs = {name: statistics.median(s["metrics"][name] for s in summaries)
               for name in summaries[0]["metrics"]}
    end_to_end = {"setup_s": statistics.median(setup_times),
                  "wall_s": sum(best_steps),
                  "peak_rss_mb": peak_rss_mb}
    per_layer = layer_metrics(tr, summaries[-1], overhead,
                              workloads.CLI_STAGES)
    per_layer.update({name: outputs.get(name, 0.0) for name in OUTPUT_METRICS})
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "provenance": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "thread_env": {k: os.environ.get(k) for k in THREAD_CAPS},
            "git_commit": git_commit(ROOT),
            "seeds": vars(seeds),
            "run_seconds": args.seconds,
            "sizes": W.sizes(),
        },
        "passes": len(walls) + bool(args.trace),
        "pass_walls_s": walls,
        "pass_wall_median_s": statistics.median(walls),
        "steps": len(steps),
        "step_best_s": dict(zip(steps, best_steps)),
        "setup_times_s": setup_times,
        "checks": failures,
        "selftest": {k: {"clean_failed": c, "corrupt_failed": b,
                         "sound": sound[k]} for k, (c, b) in selftest.items()},
        "failed_ops_frac": failed / max(attempted, 1),
        "fingerprint": summaries[0]["fingerprint"],
        "end_to_end": end_to_end,
        "outputs": outputs,
        "per_layer": per_layer if args.trace else None,
        "pass_shares": call_shares(tr) if args.trace else None,
        "spans": tr.dump() if args.trace else None,
    }
    section = "per_layer" if args.trace else "end_to_end"
    values = per_layer if args.trace else end_to_end
    result = {
        "correct": failed == 0 and all(sound.values()),
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec[section]},
    }
    return record, result


def report(record: dict, result: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']} passes {record['passes']} "
          f"steps {record['steps']} median pass "
          f"{record['pass_wall_median_s']:.6g} s")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for name, v in record["end_to_end"].items():
        print(f"metric {name} = {v:.6g} {units[name]}")
    for name, v in record["outputs"].items():
        print(f"metric {name} = {v:.6g} {units[name]}")
    print(f"metric failed_ops_frac = {record['failed_ops_frac']:.6g} "
          f"(failed {result['failed']} of {result['attempted']} calls)")
    for name, v in (record["per_layer"] or {}).items():
        print(f"layer {name} = {v:.6g} {units[name]}")
    for name, v in (record["pass_shares"] or {}).items():
        print(f"share {name} = {100 * v:.1f} %")
    for name, v in record["checks"].items():
        print(f"check {name}: {'ok' if v == 0 else f'FAILED x{v}'}")
    for name, v in record["selftest"].items():
        print(f"selftest {name}: clean {v['clean_failed']} corrupted "
              f"{v['corrupt_failed']} -> {'sound' if v['sound'] else 'BROKEN'}")
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return max(subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)]).returncode for w in WORKLOADS)
    os.environ.update(THREAD_CAPS)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        import numpy as np
        import powertree as pt
    except (OSError, ValueError, ImportError) as e:
        print(f"error: cannot load the benchmark spec or the program: {e}",
              file=sys.stderr)
        return 2
    if not Path(pt.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: powertree imported from {pt.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        record, result = run(args, spec, pt, np)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    results = ROOT / ".bench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    report(record, result, spec)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
