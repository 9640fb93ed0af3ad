#!/usr/bin/env python3
"""End-to-end certification benchmark: build it, run one workload, report.

Run from the repository root:

    python3 e2ebench/run.py --workload live-certify --seed 1 --seconds 30 --trace 0

Builds e2ebench/ (which pulls in the repository's libraries) into
$CARGO_TARGET_DIR, or .bench_build when that is unset. Then runs rounds of
the workload, each in a fresh driver process, until --seconds have passed,
and prints the host, every round, and every metric by name with its unit.
The last line is one JSON object: {correct, attempted, failed, metrics}.
--trace 0 reports the end-to-end metrics from untraced rounds; --trace 1
alternates untraced and traced rounds, reports the per-layer metrics from
the traced ones and the tracing overhead between the two, and writes the
spans to <build dir>/traces/. Exits non-zero without a result when the
build or a round fails to run.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("live-certify", "durable-audit", "net-tenants")
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = [
    ("events_per_s", "events/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]
# End-to-end latencies. They go with the per-layer metrics (no regression
# bound) because they do not repeat within a bound from run to run; they
# are taken from the untraced rounds. See NOTES.md.
LATENCY = [
    ("final_verdict_ms", "ms"),
    ("verdict_lag_p50_ms", "ms"),
    ("verdict_lag_p99_ms", "ms"),
]
PER_LAYER = LATENCY + [
    ("runtime.mix_s", "s"),
    ("runtime.abort_ratio", "ratio"),
    ("recorder.overhead_x", "x"),
    ("drain.batches", "count"),
    ("drain.batch_events_p50", "events"),
    ("drain.batch_events_max", "events"),
    ("drain.backlog_events_p99", "events"),
    ("drain.tail_ms", "ms"),
    ("drain.self_s", "s"),
    ("certify.busy_s", "s"),
    ("certify.events_per_busy_s", "events/s"),
    ("certify.threads_used", "count"),
    ("log.append_s", "s"),
    ("log.close_s", "s"),
    ("log.write_mb_per_s", "MB/s"),
    ("log.bytes_per_event", "B/event"),
    ("log.segments", "count"),
    ("log.prep_stalls", "count"),
    ("log.flush_lag_peak", "count"),
    ("log.read_s", "s"),
    ("log.read_mb_per_s", "MB/s"),
    ("net.connect_ms", "ms"),
    ("net.send_s", "s"),
    ("net.tenant_skew", "x"),
    ("net.finish_ms", "ms"),
    ("net.server.events_ingested", "count"),
    ("net.server.streams_failed", "count"),
    ("proc.cpu_s", "s"),
    ("proc.cores_busy", "cores"),
    ("trace.overhead_pct", "%"),
]


def absent_reason(workload, metric):
    """Why a layer's metric is not measured on a workload, or None."""
    if metric.startswith("log.") and workload != "durable-audit":
        return "the log is idle on " + workload
    if metric.startswith("net.") and workload != "net-tenants":
        return "the network is idle on " + workload
    if metric.startswith("drain.") and workload != "live-certify":
        return "set-up records the history without a drain pump on " + workload
    if metric.startswith("certify.") and workload == "net-tenants":
        return "the certifier runs inside the server's loop; no public call times it"
    return None


def build(build_dir):
    """Configure once, then build incrementally. Build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "e2ebench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def run_round(binary, args, index, traced, work_dir, deadline):
    """One round in a fresh process; its JSON, or None if it did not run."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--round", str(index), "--trace", "1" if traced else "0",
           "--planted", "1" if index == 0 else "0", "--work-dir", work_dir]
    if traced:
        cmd += ["--trace-out", os.path.join(work_dir, "spans-%d.json" % index)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("e2ebench: round %d ran past the run's time limit" % index, file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("e2ebench: round %d exited with %d" % (index, proc.returncode), file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(rounds, key):
    """Median over the rounds that measured `key` (a round reports null for
    a value that came out non-finite, and counts as failed)."""
    return statistics.median(r[key] for r in rounds if r[key] is not None)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "e2ebench")
    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())

    # Rounds until the time is spent: at least three untraced ones for a
    # median, and with --trace 1 as many traced ones interleaved.
    min_rounds = 6 if args.trace else 3
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    rounds = []
    spans = []
    try:
        while len(rounds) < min_rounds or time.monotonic() - start < args.seconds:
            traced = args.trace == 1 and len(rounds) % 2 == 1
            r = run_round(binary, args, len(rounds), traced, work_dir, deadline)
            if r is None:
                return 1
            if traced:
                with open(os.path.join(work_dir, "spans-%d.json" % r["round"])) as f:
                    spans.append({"round": r["round"], "spans": json.load(f)})
            rounds.append(r)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for key, value in rounds[0]["host"].items():
        print("host.%s=%s" % (key, value))
    print("run.workload=%s seed=%d seconds=%d trace=%d rounds=%d wall_s=%.1f" % (
        args.workload, args.seed, args.seconds, args.trace, len(rounds),
        time.monotonic() - start))
    attempted = 1  # the planted-violation stream
    failed = 0
    for r in rounds:
        print("round=%d traced=%d setup_s=%.4f events=%d events_per_s=%.0f "
              "final_verdict_ms=%.2f lag_p50_ms=%.2f lag_p99_ms=%.2f peak_rss_mb=%.1f "
              "threads=%d connections=%d failed=%d/%d" % (
                  r["round"], r["traced"], r["setup_s"], r["events"], r["events_per_s"],
                  r["final_verdict_ms"], r["verdict_lag_p50_ms"], r["verdict_lag_p99_ms"],
                  r["peak_rss_mb"], r["threads_busy"], r["connections"],
                  r["streams_failed"], r["streams"]))
        for e in r["errors"]:
            print("error: " + e)
        attempted += r["streams"]
        failed += r["streams_failed"]
        if any(r[name] is None for name, _ in END_TO_END + LATENCY):
            print("error: round %d measured a non-finite value" % r["round"])
            failed += 1
    # Every prefix before the planted read is a prefix of a certified
    # history, and no serialization explains a read of a value nobody wrote:
    # the shortest bad prefix ends at the planted read, so both the reference
    # and the certify path must flag exactly there.
    planted = rounds[0]["planted"]
    planted_ok = planted["reference_pos"] == planted["at"] and \
        planted["flagged_pos"] == planted["at"]
    failed += 0 if planted_ok else 1
    print("planted.at=%d reference_pos=%s flagged_pos=%s: %s" % (
        planted["at"], planted["reference_pos"], planted["flagged_pos"],
        "flagged at the reference position" if planted_ok else "MISSED"))

    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    values = {name: median(untraced, name) for name, _ in END_TO_END + LATENCY}
    print("metric.rounds=%d untraced, %d traced" % (len(untraced), len(traced)))
    print("metric.lag_samples=%d per round (p99 %s)" % (
        min(r["lag_samples"] for r in untraced),
        "supported" if all(r["lag_p99_supported"] for r in untraced) else "NOT supported"))
    for name, unit in END_TO_END + LATENCY:
        print("metric.%s=%.6g %s" % (name, values[name], unit))
    print("metric.error_rate=%.6g (%d of %d streams)" % (failed / attempted, failed, attempted))

    if args.trace:
        values["trace.overhead_pct"] = 100.0 * (
            1.0 - median(traced, "events_per_s") / values["events_per_s"])
        for name, unit in PER_LAYER:
            if name in values:
                continue
            measured = [r["layer"][name] for r in traced
                        if r["layer"].get(name) is not None]
            why = absent_reason(args.workload, name)
            if measured:
                values[name] = statistics.median(measured)
                print("layer.%s=%.6g %s" % (name, values[name], unit))
            else:
                values[name] = 0.0
                print("layer.%s absent: %s" % (name, why or "not measured"))
        print("layer.trace.overhead_pct=%.3g %% (traced %.0f vs untraced %.0f events/s)" % (
            values["trace.overhead_pct"], median(traced, "events_per_s"),
            values["events_per_s"]))
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        path = os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))
        with open(path, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "rounds": spans}, f)
        print("trace.spans=%s" % path)

    reported = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in reported}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
