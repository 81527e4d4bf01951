#!/usr/bin/env python3
"""The benchmark's own determinism and seed test.

Run from the root of a checkout:

    python3 perfbench/check.py

For every workload it runs the end-to-end and the traced run twice at
the first seed and once at the second. It fails unless every run passes
its output checks and, at the first seed, the exact figures (simulated
metrics, peak heap and counters) repeat to the last digit. Each run gets
a one-second budget, so it makes a single round; the whole check takes a
few minutes.
"""

import json
import subprocess
import sys

WORKLOADS = ("agg-10k", "mlq-replan", "sketch-churn")
SEEDS = (1, 2)

# Metrics that must repeat exactly at one seed; the rest are host times.
EXACT = {
    0: ("peak_heap_mb", "completeness", "result_age_p50_s", "result_age_max_s", "bandwidth_mbps"),
    1: (
        "plan.physical_trees", "plan.replans", "engine.events", "engine.events_per_msg",
        "transport.sent", "transport.delivered", "transport.lost_frac",
        "transport.bytes_data_mb", "transport.bytes_heartbeat_mb", "transport.bytes_control_mb",
        "transport.bytes_result_mb", "transport.delivered_data", "transport.delivered_heartbeat",
        "transport.delivered_control", "transport.delivered_result", "peer.tuples_sent",
        "peer.tuples_received", "peer.tuples_late", "peer.tuples_dropped", "peer.results_emitted",
        "peer.reconciliations", "peer.type_faults", "op.state_bytes", "gc.minor_words_per_msg",
        "gc.promoted_words_per_msg", "gc.major_collections", "ledger.windows_missed_frac",
        "ledger.age_samples",
    ),
}


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    ok = out.returncode == 0 and result["correct"]
    print("%-12s seed %d trace %d: %s, %d windows, %d missed"
          % (workload, seed, trace, "ok" if ok else "FAILED", result["attempted"], result["failed"]))
    return ok, result


def main():
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            first_ok, first = run(workload, SEEDS[0], trace)
            again_ok, again = run(workload, SEEDS[0], trace)
            other_ok, _ = run(workload, SEEDS[1], trace)
            if not (first_ok and again_ok and other_ok):
                failures.append("%s trace %d: an output check failed" % (workload, trace))
            for name in EXACT[trace]:
                a = first["metrics"][name]["value"]
                b = again["metrics"][name]["value"]
                if a != b:
                    failures.append("%s: %s differs between runs at seed %d: %r vs %r"
                                    % (workload, name, SEEDS[0], a, b))
            if (first["attempted"], first["failed"]) != (again["attempted"], again["failed"]):
                failures.append("%s: attempted/failed differ between runs" % workload)
    for f in failures:
        print("FAILED: " + f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
