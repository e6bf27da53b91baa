#!/usr/bin/env python3
"""Non-gating perf-smoke check: compare a fresh benchmark run against the
committed baseline medians in a BENCH_*.json document.

usage: check_bench_regression.py FRESH_JSON BASELINE_JSON [--threshold PCT]

FRESH_JSON is the single-line document the benchmark binary prints.
BASELINE_JSON is the committed BENCH_*.json, whose "after" block holds the
accepted numbers for the current tree.

Which metrics to compare comes from the baseline itself: its "compare"
list maps fresh-run keys to "after" keys, optionally with
{"direction": "lower"} for metrics where smaller is better (size ratios).
An "after" entry may be a bare number or a {"median_of_runs": N} object.

Shared CI runners are too noisy to gate on speed: the script emits a
GitHub `::warning::` annotation for every metric that regresses more than
the threshold (default 15%) and never fails for it. A checksum that
diverges signals a correctness change, not noise: it is always annotated,
and when the baseline sets "gate_checksums": true the script exits 1.
"""
import json
import sys


CHECKSUM_SUFFIX = "_checksum"


def baseline_value(after, key):
    entry = after.get(key)
    if isinstance(entry, dict):
        return entry.get("median_of_runs")
    return entry


def main(argv):
    if len(argv) < 3:
        print("usage: check_bench_regression.py FRESH_JSON BASELINE_JSON"
              " [--threshold PCT]")
        return 0
    threshold = 15.0
    if "--threshold" in argv:
        threshold = float(argv[argv.index("--threshold") + 1])

    try:
        with open(argv[1]) as f:
            fresh = json.load(f)
        with open(argv[2]) as f:
            baseline = json.load(f)
        after = baseline["after"]
    except (OSError, ValueError, KeyError) as e:
        print(f"::warning::perf-smoke comparison skipped: {e}")
        return 0

    if "compare" not in baseline:
        print("::warning::perf-smoke: baseline has no compare list")
    regressed = 0
    for entry in baseline.get("compare", []):
        fresh_key = entry.get("fresh")
        base_key = entry.get("baseline", fresh_key)
        lower_is_better = entry.get("direction") == "lower"
        base = baseline_value(after, base_key)
        now = fresh.get(fresh_key)
        if not base or now is None:
            print(f"::warning::perf-smoke: missing metric {base_key}")
            continue
        delta_pct = 100.0 * (now - base) / base
        # Normalise so a positive worse_pct always means "got worse".
        worse_pct = delta_pct if lower_is_better else -delta_pct
        line = (f"{base_key}: {now:,} vs baseline {base:,} "
                f"({delta_pct:+.1f}%)")
        if worse_pct > threshold:
            print(f"::warning::perf-smoke regression >{threshold:.0f}%: "
                  f"{line}")
            regressed += 1
        else:
            print(line)

    # Any *_checksum field present in both documents must agree exactly:
    # checksum drift signals changed output, not noise.
    gate = baseline.get("gate_checksums") is True
    drifted = 0
    for key, base in after.items():
        if not key.endswith(CHECKSUM_SUFFIX):
            continue
        now = fresh.get(key)
        if gate and now is None:
            print(f"::error::perf-smoke: fresh run has no {key}")
            drifted += 1
        elif now is not None and base != now:
            level = "error" if gate else "warning"
            print(f"::{level}::perf-smoke checksum drift in {key}: "
                  f"{now} vs {base} — output changed, not just speed")
            drifted += 1

    print(f"perf-smoke: {regressed} metric(s) past the {threshold:.0f}% "
          "threshold (informational only)")
    return 1 if gate and drifted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
