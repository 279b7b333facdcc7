#!/usr/bin/env python3
"""End-to-end PFDRL benchmark runner.

Builds the harness (perfbench/e2e_bench.cpp) against the repository's
sources, runs one workload, checks the program's outputs and prints the
result as one JSON object on the last line of standard output:

    python3 perfbench/run.py --workload paper_lstm --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics (span timings, a one-worker rerun for .speedup_1w, and the
counters the program exports). Host and build facts, the per-repetition
records and, in traced runs, the metrics registry dump are written under
.bench_build/perfbench/results/. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = BUILD / "results"
HARNESS = BUILD / "e2e_bench"

WORKLOADS = ("paper_lstm", "mesh_exchange", "faults_snapshots")
# One pool worker fewer than cores: the calling thread joins parallel_for,
# so compute threads stay at nproc (4 on the reference host).
POOL_WORKERS = 3
SHARDS = 4
RUN_DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 850.0

MIB = 1024.0 * 1024.0

SPANS = (
    "data.generate",
    "core.construct",
    "forecast.train",
    "ems.train",
    "sim.snapshot_save",
    "sim.snapshot_restore",
    "forecast.infer",
    "ems.evaluate",
)

# Per-layer registry metrics: (benchmark name, unit, how to read it).
# "count" values are summed over the run's distinct scenarios; every other
# kind is the median over all repetitions.
REGISTRY_METRICS = (
    # nn
    ("nn.kernel_train_batches", "count", ("counter", "nn.kernel_train_batches")),
    ("nn.fused_batches", "count", ("counter", "nn.fused_batches")),
    ("nn.workspace_allocs", "count", ("counter", "nn.workspace_allocs")),
    ("nn.scratch_bytes", "B", ("gauge", "nn.scratch_bytes")),
    # fl / DFL
    ("dfl.rounds", "count", ("counter", "dfl.rounds")),
    ("dfl.round_seconds.p50", "s", ("series_p50", "dfl.round_seconds_series")),
    ("dfl.round_seconds.max", "s", ("hist_max", "dfl.round_seconds")),
    ("dfl.shard.seconds.sum", "s", ("hist_sum", "dfl.shard.seconds")),
    ("dfl.shard.imbalance", "ratio", ("gauge", "dfl.shard.imbalance")),
    ("dfl.train_windows", "count", ("counter", "dfl.train_windows")),
    # fl exchange
    ("exchange.items", "count", ("counter", "exchange.items")),
    ("exchange.payload_copies", "count", ("counter", "exchange.payload_copies")),
    ("exchange.late_msgs", "count", ("counter", "exchange.late_msgs")),
    ("exchange.duplicate_msgs", "count", ("counter", "exchange.duplicate_msgs")),
    ("exchange.quorum_missed", "count", ("counter", "exchange.quorum_missed")),
    ("exchange.retries", "count", ("counter", "exchange.retries")),
    ("dfl.contributions_accepted", "count", ("counter", "dfl.contributions_accepted")),
    ("dfl.contributions_rejected", "count", ("counter", "dfl.contributions_rejected")),
    ("drl.contributions_accepted", "count", ("counter", "drl.contributions_accepted")),
    ("drl.contributions_rejected", "count", ("counter", "drl.contributions_rejected")),
    # net
    *(
        (f"bus.{bus}.{field}", unit, (kind, f"bus.{bus}.{field}"))
        for bus in ("forecast", "drl")
        for field, unit, kind in (
            ("messages_delivered", "count", "counter"),
            ("bytes_on_wire", "B", "counter"),
            ("logical_bytes", "B", "counter"),
            ("shard_batches", "count", "counter"),
            ("shard_max_queue_depth", "count", "gauge"),
        )
    ),
    ("fault.drops", "count", ("counter", "fault.drops")),
    ("fault.delayed_msgs", "count", ("counter", "fault.delayed_msgs")),
    ("fault.duplicates", "count", ("counter", "fault.duplicates")),
    ("wire.encode_ns", "ns", ("counter", "wire.encode_ns")),
    ("wire.decode_ns", "ns", ("counter", "wire.decode_ns")),
    ("wire.raw_bytes", "B", ("counter", "wire.raw_bytes")),
    ("wire.coded_over_raw", "ratio", ("ratio", "wire.coded_bytes", "wire.raw_bytes")),
    # core
    ("ems.rounds", "count", ("counter", "ems.rounds")),
    ("ems.round_seconds.p50", "s", ("series_p50", "ems.round_seconds_series")),
    ("ems.round_seconds.max", "s", ("hist_max", "ems.round_seconds")),
    ("ems.pipeline.stall_seconds", "s", ("gauge", "ems.pipeline.stall_seconds")),
    ("ems.pipeline.overlap_seconds", "s", ("gauge", "ems.pipeline.overlap_seconds")),
    ("ems.pipeline.wall_seconds", "s", ("gauge", "ems.pipeline.wall_seconds")),
    ("ems.eval_shard.imbalance", "ratio", ("gauge", "ems.eval_shard.imbalance")),
    # rl / ems
    ("ems.env_steps", "count", ("counter", "ems.env_steps")),
    ("ems.learn_calls", "count", ("counter", "ems.learn_calls")),
    ("ems.replay_pushes", "count", ("counter", "ems.replay_pushes")),
    ("episode.forecast_cache_misses", "count", ("counter", "episode.forecast_cache_misses")),
    # util
    ("pool.tasks_executed", "count", ("counter", "pool.tasks_executed")),
    ("pool.tasks_stolen", "count", ("counter", "pool.tasks_stolen")),
    ("pool.tasks_heap", "count", ("counter", "pool.tasks_heap")),
    ("pool.max_queue_depth", "count", ("gauge", "pool.max_queue_depth")),
    # sim
    ("sim.snapshot_bytes", "B", ("counter", "sim.snapshot_bytes")),
    ("sim.snapshot_saves", "count", ("counter", "sim.snapshot_saves")),
    ("sim.home_restarts", "count", ("counter", "sim.home_restarts")),
)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then (re)build the harness; quiet unless it fails."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"repository sources not found under {ROOT}")
    BUILD.mkdir(parents=True, exist_ok=True)
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2e_bench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    env=env, timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                out.flush()
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed: " + " ".join(cmd))


def host_stamp(build_facts):
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "build_type": build_facts["type"],
        "compile_flags": build_facts["flags"],
        "x86_64_v3": build_facts["x86_64_v3"],
        "libmvec": build_facts["libmvec"],
        "git_sha": sha,
        "pool_workers": POOL_WORKERS,
        "shards": SHARDS,
    }


def run_harness(args, workers, deadline, tmp, reps=None):
    out = tmp / f"reps-w{workers}.json"
    cmd = [str(HARNESS), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--pool-workers", str(workers),
           "--out", str(out), "--tmp", str(tmp)]
    if reps is not None:
        cmd += ["--reps", str(reps)]
    for flag in ("homes", "scenarios"):
        if getattr(args, flag) is not None:
            cmd += [f"--{flag}", str(getattr(args, flag))]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before the harness could run")
    try:
        rc = subprocess.run(cmd, timeout=remaining).returncode
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {RUN_DEADLINE_S:.0f} s")
    if rc != 0:
        fail(f"harness exited with {rc}")
    return json.loads(out.read_text())


def registry_value(reg, spec):
    kind, name = spec[0], spec[1]
    if kind == "counter":
        return float(reg["counters"].get(name, 0))
    if kind == "gauge":
        return float(reg["gauges"].get(name, 0.0))
    if kind == "hist_max":
        h = reg["histograms"].get(name)
        return float(h["max"]) if h and h["count"] else 0.0
    if kind == "hist_sum":
        h = reg["histograms"].get(name)
        return float(h["sum"]) if h else 0.0
    if kind == "series_p50":
        values = reg["series"].get(name) or []
        return float(statistics.median(values)) if values else 0.0
    if kind == "ratio":
        base = float(reg["counters"].get(spec[2], 0))
        return float(reg["counters"].get(name, 0)) / base if base else 0.0
    raise ValueError(kind)


def home_days(rep):
    return rep["homes"] * rep["days"]


def accepted_contributions(rep):
    c = rep["registry"]["counters"]
    return c.get("dfl.contributions_accepted", 0) + c.get("drl.contributions_accepted", 0)


def check_reps(reps, workload):
    """Correctness checks; one message per failed repetition."""
    failures = []
    first_hash = {}
    for rep in reps:
        problems = []
        acc = rep["forecast_accuracy"]
        if acc is None or not 0.0 < acc <= 1.0:
            problems.append(f"forecast_accuracy {acc} outside (0, 1]")
        accepted, expected = accepted_contributions(rep), rep["contrib_expected"]
        if not 0 < accepted <= expected:
            problems.append(f"{accepted} contributions accepted of {expected} expected")
        elif workload != "faults_snapshots" and accepted != expected:
            problems.append(f"clean links lost contributions: {accepted} accepted "
                            f"of {expected} expected")
        for key in ("setup_s", "run_wall_s", "run_cpu_s", "peak_rss_mib"):
            if rep[key] is None or not math.isfinite(rep[key]):
                problems.append(f"{key} is not finite")
        k = rep["scenario"]
        if k in first_hash and rep["param_hash"] != first_hash[k]:
            problems.append(f"param_hash {rep['param_hash']} differs from the "
                            f"first run of scenario {k} ({first_hash[k]})")
        first_hash.setdefault(k, rep["param_hash"])
        if workload == "faults_snapshots":
            if rep.get("restored_hash") != rep.get("saved_hash"):
                problems.append("restored snapshot does not reproduce the saved param_hash")
            if rep["registry"]["counters"].get("sim.home_restarts", 0) < 1:
                problems.append("no home was warm-restarted")
        if problems:
            failures.append(f"rep {rep['rep']}: " + "; ".join(problems))
    return failures


def check_net_savings(reps):
    """The learned policy must beat the passive baseline over the workload:
    net savings summed over every home of the run's scenarios, without
    clamping each home at zero, are finite and above zero. One failure
    message, or None."""
    scen = distinct(reps)
    net = sum(r["net_saved_kwh_unclamped"] for r in scen)
    standby = sum(r["standby_kwh"] for r in scen)
    if not standby or not math.isfinite(net / standby) or net <= 0.0:
        return f"net savings {net} kWh of {standby} kWh over the workload is not > 0"
    return None


def distinct(reps):
    """The first repetition of each scenario."""
    seen, out = set(), []
    for rep in reps:
        if rep["scenario"] not in seen:
            seen.add(rep["scenario"])
            out.append(rep)
    return out


def net_savings_pct(scen):
    return 100.0 * sum(r["net_saved_kwh"] for r in scen) / sum(r["standby_kwh"] for r in scen)


def end_to_end(data):
    med = statistics.median
    reps = data["reps"]
    scen = distinct(reps)
    return {
        "setup_s": (med(data["setup_samples_s"]), "s"),
        "home_days_per_s": (med(home_days(r) / r["run_wall_s"] for r in reps), "home-days/s"),
        "cpu_s_per_home_day": (med(r["run_cpu_s"] / home_days(r) for r in reps), "s"),
        "peak_rss_mib": (med(r["peak_rss_mib"] for r in reps), "MiB"),
        "wire_mib_per_home_day": (sum(r["bytes_on_wire"] for r in scen) / MIB
                                  / sum(home_days(r) for r in scen), "MiB"),
        "forecast_accuracy": (statistics.fmean(r["forecast_accuracy"] for r in scen), "ratio"),
        "contrib_accept_frac": (sum(accepted_contributions(r) for r in scen)
                                / sum(r["contrib_expected"] for r in scen), "ratio"),
    }


def per_layer(reps, rerun):
    med = statistics.median
    metrics = {}
    base = [r for r in reps if r["scenario"] == 0]
    one_worker = rerun["spans"]
    for name in SPANS:
        walls = [r["spans"].get(name, {}).get("wall_s", 0.0) for r in reps]
        cpus = [r["spans"].get(name, {}).get("cpu_s", 0.0) for r in reps]
        wall = med(walls)
        base_wall = med(r["spans"].get(name, {}).get("wall_s", 0.0) for r in base)
        metrics[f"{name}.wall_s"] = (wall, "s")
        metrics[f"{name}.cpu_s"] = (med(cpus), "s")
        metrics[f"{name}.parallelism"] = (
            med(c / w if w > 0 else 0.0 for c, w in zip(cpus, walls)), "ratio")
        metrics[f"{name}.speedup_1w"] = (
            one_worker.get(name, {}).get("wall_s", 0.0) / base_wall
            if base_wall > 0 else 0.0, "ratio")
    metrics["rep.wall_s"] = (med(r["rep_wall_s"] for r in reps), "s")
    metrics["unattributed.wall_s"] = (
        med(r["rep_wall_s"] - sum(s["wall_s"] for s in r["spans"].values())
            for r in reps), "s")
    scen = distinct(reps)
    metrics["ems.net_savings_pct"] = (net_savings_pct(scen), "%")
    for name, unit, spec in REGISTRY_METRICS:
        if unit == "count":
            value = sum(registry_value(r["registry"], spec) for r in scen)
        else:
            value = med(registry_value(r["registry"], spec) for r in reps)
        metrics[name] = (value, unit)
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Size overrides for the benchmark's own seconds-scale tests.
    ap.add_argument("--homes", type=int)
    ap.add_argument("--scenarios", type=int)
    args = ap.parse_args()

    deadline = time.monotonic() + RUN_DEADLINE_S
    build()
    RESULTS.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD / "tmp"))
    try:
        data = run_harness(args, POOL_WORKERS, deadline, tmp)
        reps = data["reps"]
        failures = check_reps(reps, args.workload)
        net_failure = check_net_savings(reps)
        if net_failure:
            failures.append(net_failure)
        attempted = len(reps)
        rerun = None
        if args.trace:
            # The global pool is sized once per process, so the one-worker
            # baseline for .speedup_1w is a separate process; it reruns
            # scenario 0 and must reproduce its param_hash.
            rerun = run_harness(args, 1, deadline, tmp, reps=1)["reps"][0]
            attempted += 1
            if rerun["param_hash"] != reps[0]["param_hash"]:
                failures.append(f"1-worker rerun param_hash {rerun['param_hash']} "
                                f"!= {reps[0]['param_hash']}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = per_layer(reps, rerun) if args.trace else end_to_end(data)
    failed = len(failures)
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            failures.append(f"metric {name} is not finite")
            failed = attempted
            metrics[name] = (0.0, unit)  # keep the result valid JSON

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stamp = host_stamp(data["build"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "stamp": stamp, "failures": failures,
        "setup_samples_s": data["setup_samples_s"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "reps": [{k: v for k, v in r.items() if k != "registry"} for r in reps],
    }
    if rerun is not None:
        record["rerun_1w"] = {k: v for k, v in rerun.items() if k != "registry"}
        (RESULTS / f"{stem}.registry.json").write_text(
            json.dumps(reps[0]["registry"], indent=1, sort_keys=True))
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))

    for msg in failures:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    print(f"{args.workload}: {len(reps)} repetitions, "
          f"{len({r['scenario'] for r in reps})} scenarios")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
