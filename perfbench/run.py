#!/usr/bin/env python3
"""wormcast's benchmark: build, run one workload, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. The script builds the benchmark
package (perfbench/Cargo.toml, its own workspace) and the wormcast-serve
binary into $CARGO_TARGET_DIR (default .bench_build), runs
perfbench-worker for S seconds on the workload's seeded operations, and
prints, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones. The lines before it restate every metric in
words, with the run's host record. The exit code is 1 when any output check
failed, 2 when the benchmark could not be built or run. perfbench/README.md
defines every metric and workload.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("scale-bcast", "mixed-knee", "faults-5pct", "serve-mix")
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# The worker must finish within this many seconds (the build before it is
# not counted).
RUN_LIMIT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def command_output(*cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the source files the benchmark builds from, so a record
    names its code even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        files += [p for p in (ROOT / top).rglob("*") if p.is_file() and "target" not in p.parts]
    for p in sorted(files):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def host_record():
    rev = command_output("git", "-C", str(ROOT), "rev-parse", "HEAD")
    dirty = None
    if rev is not None:
        status = command_output("git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else status != ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output("rustc", "-V"),
        "git_rev": rev,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "profile": "release",
    }


def build(target):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(BENCH / "Cargo.toml"),
        "-p", "wormcast-perfbench", "-p", "wormcast-serve",
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, env=env)
    except OSError as e:
        die(f"cannot run cargo: {e}")
    if done.returncode != 0:
        die("build failed")


def percentile(values, q):
    """The q-quantile (q in {0.5, 0.9, 0.99}) of values, interpolated."""
    if q == 0.5 or len(values) < 2:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def floors(passes):
    """Each operation's best latency over the run's passes, for the
    operations sampled in at least one pass."""
    per_op = zip(*passes) if passes else ()
    return [min(x for x in op if x is not None) for op in per_op if any(x is not None for x in op)]


def end_to_end(raw):
    """The end-to-end metrics from the worker's raw samples; None where a
    sample set is empty.

    Every timing starts from each operation's best cold and best warm
    latency in the run, the times the shared host slowed least: a latency
    is their median and tail over operations, `work_s` their sum. Set-up
    time and memory are medians over processes."""
    def med(key):
        return statistics.median(raw[key]) if raw[key] else None

    q = raw["tail_q"]
    out = {
        "setup_s": med("setup_s"),
        "peak_rss_mb": med("rss_mb"),
    }
    work_ms = 0.0
    for kind in ("cold", "warm"):
        best = floors(raw[f"{kind}_ms"])
        work_ms += sum(best)
        if best:
            out[f"{kind}_p50_ms"] = statistics.median(best)
            out[f"{kind}_tail_ms"] = percentile(best, q)
        else:
            out[f"{kind}_p50_ms"] = out[f"{kind}_tail_ms"] = None
    out["work_s"] = work_ms / 1e3 if work_ms > 0 else None
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    build(target)
    worker = target / "release" / "perfbench-worker"
    out_dir = target / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [
        str(worker), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--serve-bin", str(target / "release" / "wormcast-serve"),
    ]
    if args.trace:
        cmd += ["--spans", str(out_dir / f"spans-{stem}.ndjson")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"worker did not finish: {e}")
    lines = [l for l in done.stdout.splitlines() if l.startswith("RESULT ")]
    if done.returncode != 0 or not lines:
        die(f"worker exited with {done.returncode} and no result")
    raw = json.loads(lines[-1][len("RESULT "):])
    host = host_record()

    attempted, failed = raw["attempted"], raw["failed"]
    fail_frac = failed / attempted if attempted else 1.0
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(
        f"{args.workload} seed {args.seed}: {len(raw['cold_ms'])} cold and "
        f"{len(raw['warm_ms'])} warm untraced passes; {attempted} operations attempted "
        f"in all, {failed} failed, fail_frac {fail_frac:.6g} ratio"
    )
    for e in raw["errors"]:
        print(f"  failed: {e}")

    if args.trace:
        wanted = spec["per_layer"]
        values = raw["layers"]
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(raw)
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        die(f"no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    q = raw["tail_q"]
    def per_pass(kind):
        passes = raw[f"{kind}_ms"]
        return f"over n={len(floors(passes))} operations, each best of {len(passes)} passes"

    counts = {
        "work_s": f"cold + warm sum, {per_pass('cold')}",
        "setup_s": f"median of {len(raw['setup_s'])} set-ups",
        "peak_rss_mb": f"median of {len(raw['rss_mb'])} processes",
        "cold_p50_ms": per_pass("cold"),
        "cold_tail_ms": f"p{round(q * 100)}, {per_pass('cold')}",
        "warm_p50_ms": per_pass("warm"),
        "warm_tail_ms": f"p{round(q * 100)}, {per_pass('warm')}",
    }
    for name, m in metrics.items():
        note = counts.get(name, "traced run")
        print(f"  {name} = {m['value']:.6g} {m['unit']} ({note})")

    record = {"host": host, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "fail_frac": fail_frac,
              "metrics": metrics, "raw": raw}
    (out_dir / f"record-{stem}.json").write_text(json.dumps(record) + "\n")

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
