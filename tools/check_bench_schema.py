#!/usr/bin/env python3
"""Validate BENCH_*.json files and metrics artifacts.

Every bench binary (bench/bench_util.hpp, BenchReport::write) emits one
BENCH_<name>.json; this checker is the executable form of the schema
documented in EXPERIMENTS.md ("The bench report schema"). ctest runs it
over each smoke-mode bench run (label: bench-smoke), so a drifting
writer fails the suite instead of silently producing unparseable
results.

A file tagged cuttlesim-metrics-v1 (`cuttlec --metrics=FILE`, documented
in docs/OBSERVABILITY.md) is validated as that artifact instead: design
and engine strings plus the same MetricsRegistry block a bench report
carries.

Usage: check_bench_schema.py FILE.json [FILE.json ...]
       check_bench_schema.py --self-test
Exits 0 when every file validates; prints one line per problem.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_prof_schema  # the embedded `prof` block is cuttlesim-prof-v1

METRICS_SCHEMA = "cuttlesim-metrics-v1"


def err(problems, path, msg):
    problems.append(f"{path}: {msg}")


def is_number(v):
    return not isinstance(v, bool) and isinstance(v, (int, float))


def is_uint(v):
    return not isinstance(v, bool) and isinstance(v, int) and v >= 0


def check_metrics_block(problems, where, m):
    """A MetricsRegistry::to_json block: non-negative integer counters,
    numeric gauges, a histograms object."""
    if not isinstance(m, dict):
        err(problems, where, "'metrics' must be an object "
                             "(MetricsRegistry::to_json)")
        return
    counters = m.get("counters")
    if not isinstance(counters, dict):
        err(problems, where, "metrics.counters must be an object")
    else:
        for name, v in counters.items():
            if not is_uint(v):
                err(problems, where, f"metrics.counters[{name!r}] must be "
                                     f"a non-negative integer")
    gauges = m.get("gauges")
    if not isinstance(gauges, dict):
        err(problems, where, "metrics.gauges must be an object")
    else:
        for name, v in gauges.items():
            if not is_number(v):
                err(problems, where, f"metrics.gauges[{name!r}] must be "
                                     f"a number")
    if not isinstance(m.get("histograms"), dict):
        err(problems, where, "metrics.histograms must be an object")


def validate_metrics(problems, path, root):
    """The cuttlec --metrics=FILE artifact."""
    if root.get("schema") != METRICS_SCHEMA:
        err(problems, path, f"schema tag must be '{METRICS_SCHEMA}', got "
                            f"{root.get('schema')!r}")
    for field in ("design", "engine"):
        if not isinstance(root.get(field), str):
            err(problems, path, f"'{field}' must be a string (may be empty)")
    check_metrics_block(problems, path, root.get("metrics"))


def check_number(problems, path, obj, key, required=True):
    if key not in obj:
        if required:
            err(problems, path, f"missing numeric field '{key}'")
        return
    if isinstance(obj[key], bool) or not isinstance(obj[key], (int, float)):
        err(problems, path, f"field '{key}' must be a number, got "
                            f"{type(obj[key]).__name__}")


def check_string(problems, path, obj, key, required=True):
    if key not in obj:
        if required:
            err(problems, path, f"missing string field '{key}'")
        return
    if not isinstance(obj[key], str):
        err(problems, path, f"field '{key}' must be a string")


def check_entry(problems, path, i, entry):
    where = f"{path} entries[{i}]"
    if not isinstance(entry, dict):
        err(problems, where, "entry must be an object")
        return
    check_string(problems, where, entry, "label")
    check_string(problems, where, entry, "engine")
    check_number(problems, where, entry, "cycles")
    check_number(problems, where, entry, "wall_seconds")
    check_number(problems, where, entry, "cycles_per_sec")
    # Optional blocks: per-rule counters and engine-specific extras.
    if "rules" in entry:
        if not isinstance(entry["rules"], list):
            err(problems, where, "'rules' must be an array")
        else:
            for j, rule in enumerate(entry["rules"]):
                rwhere = f"{where} rules[{j}]"
                if not isinstance(rule, dict):
                    err(problems, rwhere, "rule must be an object")
                    continue
                check_string(problems, rwhere, rule, "name")
                check_number(problems, rwhere, rule, "commits")
                check_number(problems, rwhere, rule, "aborts")
                if "abort_reasons" in rule:
                    reasons = rule["abort_reasons"]
                    if not isinstance(reasons, dict):
                        err(problems, rwhere,
                            "'abort_reasons' must be an object")
                    else:
                        for key in ("guard", "read_conflict",
                                    "write_conflict"):
                            check_number(problems, rwhere, reasons, key)
    if "extra" in entry and not isinstance(entry["extra"], dict):
        err(problems, where, "'extra' must be an object")


def check_host(problems, path, host):
    """The `host` block: which machine/toolchain produced the numbers."""
    where = f"{path} host"
    if not isinstance(host, dict):
        err(problems, where, "'host' must be an object "
                             "(bench_util.hpp host_json)")
        return
    check_string(problems, where, host, "compiler")
    check_string(problems, where, host, "cache_dir")
    check_number(problems, where, host, "hw_concurrency")
    check_number(problems, where, host, "cache_entries")
    for key in ("cache_enabled", "smoke"):
        if not isinstance(host.get(key), bool):
            err(problems, where, f"field '{key}' must be a boolean")


def check_batch(problems, path, root):
    """Extra contract for BENCH_batch.json (bench == "batch"): the
    scalar baseline and at least one batched entry must both be
    present, every entry must say how many lanes it ran and its
    speedup over scalar, and the headline batch.* gauges must be in
    the metrics block."""
    where = f"{path} (bench=batch)"
    entries = root.get("entries") or []
    labels = [e.get("label", "") for e in entries
              if isinstance(e, dict)]
    if not any("scalar" in label for label in labels):
        err(problems, where, "no scalar baseline entry "
                             "(label containing 'scalar')")
    if not any("batched" in label for label in labels):
        err(problems, where, "no batched entry "
                             "(label containing 'batched')")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            continue
        ewhere = f"{where} entries[{i}]"
        extra = entry.get("extra")
        if not isinstance(extra, dict):
            err(problems, ewhere, "batch entries need an 'extra' block")
            continue
        check_number(problems, ewhere, extra, "lanes")
        check_number(problems, ewhere, extra, "jobs")
        check_number(problems, ewhere, extra, "trials_per_sec")
        check_number(problems, ewhere, extra, "speedup_vs_scalar")
        lanes = extra.get("lanes")
        if isinstance(lanes, (int, float)) and not isinstance(lanes, bool) \
                and lanes < 1:
            err(problems, ewhere, f"'lanes' must be >= 1, got {lanes}")
    gauges = (root.get("metrics") or {}).get("gauges")
    if not isinstance(gauges, dict):
        err(problems, where, "metrics block has no gauges")
        return
    for key in ("batch.lanes", "batch.speedup_single",
                "batch.speedup_aggregate"):
        check_number(problems, f"{where} metrics gauges", gauges, key)


def check_file(problems, path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            root = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        err(problems, path, f"unreadable or invalid JSON: {e}")
        return
    if not isinstance(root, dict):
        err(problems, path, "root must be an object")
        return
    if root.get("schema") == METRICS_SCHEMA:
        validate_metrics(problems, path, root)
        return
    if root.get("schema") != "cuttlesim-bench-v1":
        err(problems, path,
            f"schema tag must be 'cuttlesim-bench-v1', got "
            f"{root.get('schema')!r}")
    check_string(problems, path, root, "bench")
    entries = root.get("entries")
    if not isinstance(entries, list):
        err(problems, path, "'entries' must be an array")
        return
    if not entries:
        err(problems, path, "'entries' is empty — the bench recorded "
                            "nothing")
    for i, entry in enumerate(entries):
        check_entry(problems, path, i, entry)
    check_host(problems, path, root.get("host"))
    # `prof` is optional (KOIKA_BENCH_NO_PROF=1 suppresses it) but must
    # be a valid cuttlesim-prof-v1 report when present.
    if "prof" in root:
        check_prof_schema.validate(problems, f"{path} prof", root["prof"])
    check_metrics_block(problems, path, root.get("metrics"))
    if root.get("bench") == "batch":
        check_batch(problems, path, root)


def self_test():
    pristine = {"schema": METRICS_SCHEMA, "design": "collatz",
                "engine": "T5 static-analysis",
                "metrics": {"counters": {"fault/trials": 54},
                            "gauges": {"fault/wall": 1.5},
                            "histograms": {}}}
    problems = []
    validate_metrics(problems, "metrics", pristine)
    if problems:
        print("self-test: pristine metrics artifact failed validation:")
        for p in problems:
            print(f"  {p}")
        return 1
    negative = json.loads(json.dumps(pristine))
    negative["metrics"]["counters"]["fault/trials"] = -1
    validate_metrics(problems, "negative", negative)
    if not problems:
        print("self-test: corruption not detected: negative counter")
        return 1
    print("self-test: metrics validator detects a negative counter")
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    problems = []
    for path in argv[1:]:
        check_file(problems, path)
    for p in problems:
        print(p)
    if not problems:
        print(f"{len(argv) - 1} file(s) validate against "
              f"cuttlesim-bench-v1 / {METRICS_SCHEMA}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
