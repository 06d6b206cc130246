#!/usr/bin/env python3
"""Validates tcpdemux.telemetry.v2 JSON exports (stdlib only).

Usage: validate_schema.py <telemetry.json> [...]

Accepts a single report object or an array of them (the form
report/telemetry_json.h writes). Exits non-zero with one line per
violation; prints a summary per file when clean. The checked schema is
documented in src/report/telemetry_json.h and DESIGN.md "Observability".
"""

import json
import sys

SCHEMA = "tcpdemux.telemetry.v2"

COUNTER_FIELDS = (
    "lookups",
    "found",
    "cache_hits",
    "inserts",
    "erases",
    "inserts_shed",
    "inserts_refused",
    "rehashes",
    "resizes_started",
    "resizes_completed",
    "resizes_deferred",
    "resize_steps",
)

HISTOGRAM_FIELDS = (
    "examined",
    "probe_length",
    "latency_ns",
    "resize_work",
    "migration_debt",
)

SAMPLE_FIELDS = {
    "events": int,
    "lookups": int,
    "mean_examined": (int, float),
    "p50": int,
    "p90": int,
    "p99": int,
    "max_examined": int,
    "hit_rate": (int, float),
    "occ_max": int,
    "occ_mean": (int, float),
    "occ_skew": (int, float),
}


def _non_negative_int(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def check_histogram(report, name, errors):
    hist = report.get(name)
    if not isinstance(hist, dict):
        errors.append(f"missing histogram object '{name}'")
        return
    for field in ("count", "sum", "max"):
        if not _non_negative_int(hist.get(field)):
            errors.append(f"{name}.{field} must be a non-negative integer")
    buckets = hist.get("buckets")
    if not isinstance(buckets, list) or not all(
        _non_negative_int(b) for b in buckets
    ):
        errors.append(f"{name}.buckets must be a list of non-negative integers")
        return
    if len(buckets) > 65:
        errors.append(f"{name}.buckets has {len(buckets)} buckets (max 65)")
    if isinstance(hist.get("count"), int) and sum(buckets) != hist["count"]:
        errors.append(
            f"{name}: bucket total {sum(buckets)} != count {hist['count']}"
        )


def check_report(report, errors):
    if report.get("schema") != SCHEMA:
        errors.append(f"schema must be '{SCHEMA}', got {report.get('schema')!r}")
    for field in ("source", "algorithm"):
        if not isinstance(report.get(field), str) or not report[field]:
            errors.append(f"'{field}' must be a non-empty string")

    counters = report.get("counters")
    if not isinstance(counters, dict):
        errors.append("missing 'counters' object")
    else:
        for field in COUNTER_FIELDS:
            if not _non_negative_int(counters.get(field)):
                errors.append(f"counters.{field} must be a non-negative integer")
        if all(_non_negative_int(counters.get(f)) for f in COUNTER_FIELDS):
            if counters["found"] > counters["lookups"]:
                errors.append("counters.found exceeds counters.lookups")
            if counters["cache_hits"] > counters["lookups"]:
                errors.append("counters.cache_hits exceeds counters.lookups")
            if counters["resizes_completed"] > counters["resizes_started"]:
                errors.append(
                    "counters.resizes_completed exceeds "
                    "counters.resizes_started"
                )

    for name in HISTOGRAM_FIELDS:
        check_histogram(report, name, errors)

    # Histogram totals must agree with the counters whenever the run had
    # histograms enabled (count != 0); counters-only runs export empty ones.
    examined = report.get("examined")
    if (
        isinstance(examined, dict)
        and isinstance(counters, dict)
        and _non_negative_int(examined.get("count"))
        and examined["count"] != 0
        and _non_negative_int(counters.get("lookups"))
        and examined["count"] != counters["lookups"]
    ):
        errors.append(
            f"examined.count {examined['count']} != counters.lookups "
            f"{counters['lookups']}"
        )

    occupancy = report.get("occupancy")
    if not isinstance(occupancy, dict):
        errors.append("missing 'occupancy' object")
    else:
        for field in ("partitions", "max"):
            if not _non_negative_int(occupancy.get(field)):
                errors.append(
                    f"occupancy.{field} must be a non-negative integer"
                )
        for field in ("mean", "skew"):
            if not isinstance(occupancy.get(field), (int, float)):
                errors.append(f"occupancy.{field} must be a number")

    series = report.get("series")
    if not isinstance(series, dict):
        errors.append("missing 'series' object")
        return
    if not _non_negative_int(series.get("interval")):
        errors.append("series.interval must be a non-negative integer")
    samples = series.get("samples")
    if not isinstance(samples, list):
        errors.append("series.samples must be a list")
        return
    if series.get("interval") == 0 and samples:
        errors.append("series.interval 0 but samples present")
    previous_events = 0
    for i, sample in enumerate(samples):
        if not isinstance(sample, dict):
            errors.append(f"samples[{i}] must be an object")
            continue
        for field, kinds in SAMPLE_FIELDS.items():
            value = sample.get(field)
            if not isinstance(value, kinds) or isinstance(value, bool):
                errors.append(f"samples[{i}].{field} must be {kinds}")
        events = sample.get("events")
        if isinstance(events, int) and not isinstance(events, bool):
            if events <= previous_events:
                errors.append(
                    f"samples[{i}].events {events} not increasing"
                )
            previous_events = events


def validate_file(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    reports = data if isinstance(data, list) else [data]
    errors = []
    for i, report in enumerate(reports):
        if not isinstance(report, dict):
            errors.append(f"report[{i}]: not an object")
            continue
        local = []
        check_report(report, local)
        errors.extend(f"report[{i}]: {e}" for e in local)
    return len(reports), errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    status = 0
    for path in argv[1:]:
        try:
            count, errors = validate_file(path)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            status = 1
            continue
        for error in errors:
            print(f"{path}: {error}", file=sys.stderr)
        if errors:
            status = 1
        else:
            print(f"{path}: OK ({count} report(s))")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
