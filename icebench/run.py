#!/usr/bin/env python3
"""Build and run the Smart-Iceberg benchmark (see icebench/README.md).

Run one workload (from the repository root):

    python3 icebench/run.py --workload fig1_iceberg --seed 7 --seconds 30 --trace 0

The script builds icebench/ (and the library from src/) into .bench_build
(or $CARGO_TARGET_DIR), runs the icebench binary, and passes its output
through: a {"host": ...} record, then the result object as the last line.
It exits nonzero when the build fails, a result is wrong or a statement
fails.

Other modes:

    --out FILE          also append {"host":..,"result":..} to FILE (JSONL)
    --compare A B       diff two --out files metric by metric, one row per
                        workload, using the bounds in BENCHMARK.json
    --regen-digests     recompute icebench/expected_digests.txt from the
                        baseline engine for the default seed
    --selftest          tiny-scale checks of the benchmark itself
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "expected_digests.txt")
WORKLOADS = ["fig1_iceberg", "selective_join", "serve_mixed"]
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, d))


def tool_env(out):
    """Environment for child processes: temporary files stay in `out`."""
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def build():
    """Configures (once) and builds the icebench binary; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    env = tool_env(out)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "icebench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                 env=env, cwd=ROOT)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("icebench: build failed (%s)\n" % log_path)
                if not os.path.exists(os.path.join(out, "icebench")):
                    # A failed configure leaves a cache that would skip
                    # configuring next time.
                    cache = os.path.join(out, "CMakeCache.txt")
                    if os.path.exists(cache):
                        os.remove(cache)
                return None
    return os.path.join(out, "icebench")


def git_hash():
    """HEAD commit read from .git without running git; "unknown" outside a
    git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def run_binary(binary, args, timeout=RUN_TIMEOUT_S):
    """Runs the binary; returns (exit code, stdout lines)."""
    env = tool_env(build_dir())
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              env=env, cwd=ROOT, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("icebench: run exceeded %d s\n" % timeout)
        return 124, []
    return proc.returncode, proc.stdout.splitlines()


def parse_run(lines):
    """(host, result) from the binary's stdout, or (None, None)."""
    host = result = None
    for line in lines:
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if "host" in obj:
            host = obj["host"]
        elif "metrics" in obj:
            result = obj
    return host, result


def workload_args(opts):
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace),
            "--scale", str(opts.scale), "--digests", opts.digests or DIGESTS,
            "--git", git_hash()]
    if opts.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(traces, "%s-seed%d.json" % (opts.workload,
                                                          opts.seed))]
    if opts.starve_admission:
        args.append("--starve-admission")
    return args


def cmd_run(opts):
    binary = build()
    if binary is None:
        return 1
    rc, lines = run_binary(binary, workload_args(opts))
    host, result = parse_run(lines)
    if result is None:
        sys.stderr.write("icebench: no result (exit %d)\n" % rc)
        return rc or 1
    if opts.out:
        with open(opts.out, "a") as f:
            f.write(json.dumps({"host": host, "result": result}) + "\n")
    print(json.dumps({"host": host}))
    print(json.dumps(result))
    return rc


# ------------------------------------------------------------------ compare

def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_results(path):
    """{workload: {metric: [values]}} over the untraced runs of a file."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            host, result = rec["host"], rec["result"]
            if host.get("trace"):
                continue
            per = runs.setdefault(host["workload"], {})
            for name, m in result["metrics"].items():
                per.setdefault(name, []).append(m["value"])
    return runs


def spread(values):
    """Interquartile range as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def verdict(metric, a, b):
    """better / same / worse / unresolved for run sets a (base) and b."""
    lower = metric["better"] == "lower"
    med_a, med_b = statistics.median(a), statistics.median(b)
    # Positive = b is worse than a, as a share of a's median.
    change = (med_b - med_a) / med_a if med_a else 0.0
    if not lower:
        change = -change
    bound = metric["bound"]
    noise = max(spread(a), spread(b))
    if noise > bound:
        return "unresolved", change, noise
    if change > bound:
        return "worse", change, noise
    all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
    if all_better or -change > noise:
        return "better", change, noise
    return "same", change, noise


def cmd_compare(path_a, path_b):
    bench = load_benchmark()
    a_runs, b_runs = load_results(path_a), load_results(path_b)
    any_worse = False
    print("base: %s\nnew:  %s\n(change > 0 means worse; spread = IQR/median)"
          % (path_a, path_b))
    for workload in [w["name"] for w in bench["workloads"]]:
        a, b = a_runs.get(workload), b_runs.get(workload)
        if not a or not b:
            print("%-15s missing in %s" % (workload, path_a if not a else
                                           path_b))
            continue
        cells = []
        for metric in bench["end_to_end"]:
            name = metric["name"]
            if name not in a or name not in b:
                cells.append("%s=missing" % name)
                continue
            v, change, noise = verdict(metric, a[name], b[name])
            any_worse |= v == "worse"
            cells.append("%s=%s(%+.1f%%, spread %.1f%%, bound %.0f%%)" % (
                name, v, 100 * change, 100 * noise, 100 * metric["bound"]))
        runs = "n=%d/%d" % (len(a["setup_s"]), len(b["setup_s"]))
        print("%-15s %s  %s" % (workload, runs, "  ".join(cells)))
    return 1 if any_worse else 0


# ------------------------------------------------------------------ digests

def cmd_regen_digests():
    binary = build()
    if binary is None:
        return 1
    text = ["# Expected result digests of the default seed, from the baseline",
            "# engine's serial reference paths. Regenerate with:",
            "#   python3 icebench/run.py --regen-digests",
            "# <workload> <seed> <rows> <statement>@<data set> <result rows>"
            " <digest>"]
    for workload in WORKLOADS:
        rc, lines = run_binary(binary, ["--workload", workload, "--seed",
                                        str(DEFAULT_SEED), "--emit-digests"],
                               timeout=600)
        if rc != 0:
            sys.stderr.write("digest run failed for %s\n" % workload)
            return 1
        text += lines
    with open(DIGESTS, "w") as f:
        f.write("\n".join(text) + "\n")
    print("wrote %s" % DIGESTS)
    return 0


# ------------------------------------------------------------------ selftest

def cmd_selftest():
    binary = build()
    if binary is None:
        return 1
    bench = load_benchmark()
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    # Per-layer metrics that must read above 0 where their layer works.
    applies = {
        "fig1_iceberg": ["optimizer.execute_us", "optimizer.pick_nljp_us",
                         "nljp.bindings", "nljp.inner_eval_us",
                         "engine.q4.p50_ms"],
        "selective_join": ["exec.pairs_examined", "exec.query_us",
                           "plan.cbo_plans", "exec.transfer_build_us",
                           "exec.worker_utilization", "engine.jo1.p90_ms"],
        "serve_mixed": ["latency_p50_ms", "write_p50_ms", "server.insert_us",
                        "server.plan_cache_hit_ratio", "nljp.bindings",
                        "engine.hot.p50_ms", "engine.cold.p90_ms"],
    }
    everywhere = ["latency_geomean_p90_ms", "parser.parse_us", "common.shape_us", "fme.derive_us",
                  "stats.build_us", "storage.load_rows_per_s",
                  "storage.table_bytes", "obs.trace_overhead_ratio",
                  "bench.samples"]
    scale, seconds = "0.1", "1"
    failures = []

    def check(cond, what):
        print("%s %s" % ("ok  " if cond else "FAIL", what))
        if not cond:
            failures.append(what)

    def tiny(workload, trace, *extra, seed=DEFAULT_SEED):
        args = ["--workload", workload, "--seed", str(seed), "--seconds",
                seconds, "--trace", str(trace), "--scale", scale] + list(extra)
        rc, lines = run_binary(binary, args)
        host, result = parse_run(lines)
        return rc, host, result

    # Every named metric prints with its unit on every workload.
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, host, result = tiny(workload, trace)
            ok = rc == 0 and result is not None and result["correct"]
            check(ok and result["failed"] == 0,
                  "%s trace=%d runs clean" % (workload, trace))
            got = {k: v["unit"] for k, v in result["metrics"].items()} \
                if result else {}
            check(got == expected[trace],
                  "%s trace=%d prints every metric with its unit"
                  % (workload, trace))
            names = list(expected[0]) if trace == 0 else \
                everywhere + applies[workload]
            zero = [n for n in names
                    if not result or result["metrics"][n]["value"] <= 0]
            check(not zero, "%s trace=%d measures %d applicable metrics%s"
                  % (workload, trace, len(names),
                     " (zero: %s)" % ", ".join(zero) if zero else ""))

    # A corrupted expected digest fails the run.
    work = os.path.join(build_dir(), "selftest")
    os.makedirs(work, exist_ok=True)
    rc, lines = run_binary(binary, ["--workload", "fig1_iceberg", "--seed",
                                    str(DEFAULT_SEED), "--scale", scale,
                                    "--emit-digests"])
    good = os.path.join(work, "digests_good.txt")
    bad = os.path.join(work, "digests_bad.txt")
    with open(good, "w") as f:
        f.write("\n".join(lines) + "\n")
    fields = lines[0].split()
    fields[-1] = "%016x" % (int(fields[-1], 16) ^ 1)
    with open(bad, "w") as f:
        f.write("\n".join([" ".join(fields)] + lines[1:]) + "\n")
    rc, host, result = tiny("fig1_iceberg", 0, "--digests", good)
    check(rc == 0 and host["stored_digests"] and result["correct"],
          "stored digests are used and match")
    rc, host, result = tiny("fig1_iceberg", 0, "--digests", bad)
    check(rc != 0 and result is not None and not result["correct"]
          and result["failed"] > 0,
          "a corrupted expected digest fails the run")

    # An admission queue too small to keep up sheds, counted as failed.
    rc, host, result = tiny("serve_mixed", 1, "--starve-admission")
    ratio = result["metrics"]["failed_ratio"]["value"] if result else 0
    check(rc != 0 and result is not None and result["failed"] > 0
          and abs(ratio - result["failed"] / result["attempted"]) < 1e-6,
          "starved admission sheds and counts them in failed_ratio")

    # Two seeds: different data, the same metric names.
    _, host1, result1 = tiny("fig1_iceberg", 0, seed=1)
    _, host2, result2 = tiny("fig1_iceberg", 0, seed=2)
    check(host1 and host2 and host1["data_digest"] != host2["data_digest"]
          and set(result1["metrics"]) == set(result2["metrics"]),
          "two seeds give different data and the same metric names")

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures
                            else "passed"))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="data size multiplier (digests are stored for 1)")
    p.add_argument("--digests", help="expected-digest file override")
    p.add_argument("--starve-admission", action="store_true",
                   help="self-test knob: one admission slot, no queue")
    p.add_argument("--out", help="append results to this JSONL file")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    p.add_argument("--regen-digests", action="store_true")
    p.add_argument("--selftest", action="store_true")
    opts = p.parse_args()
    if opts.compare:
        return cmd_compare(*opts.compare)
    if opts.regen_digests:
        return cmd_regen_digests()
    if opts.selftest:
        return cmd_selftest()
    if not opts.workload:
        p.error("--workload is required")
    return cmd_run(opts)


if __name__ == "__main__":
    sys.exit(main())
