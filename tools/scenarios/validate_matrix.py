#!/usr/bin/env python3
"""Validates the wallclock_scenarios JSON matrix (stdlib only).

Usage: validate_matrix.py <matrix.json> [...]

The file is a bench_json.h record array (other benches' records may be
mixed in; only bench == "wallclock_scenarios" records are checked). Each
record's name is "<workload-spec>|<demuxer-spec>". The matrix must be:

  * complete  — every observed workload crossed with every observed
                demuxer, no duplicates, no holes;
  * broad     — at least 5 synthetic workloads, at least 1 pcap-driven
                workload, at least 5 demuxer families;
  * sound     — required metrics present and numeric, zero replay misses
                (a miss means a generator broke open/close ordering),
                positive timings, hit rates in [0, 1].

Exits non-zero with one line per violation; prints a summary per file
when clean.
"""

import json
import sys

BENCH = "wallclock_scenarios"

REQUIRED_METRICS = (
    "ns_per_event",
    "pcbs_examined",
    "hit_rate",
    "misses",
    "events",
    "connections",
)

MIN_SYNTHETIC_WORKLOADS = 5
MIN_PCAP_WORKLOADS = 1
MIN_DEMUXERS = 5

# Demuxer families (the spec head before the first ':') that must have a
# row in every matrix. Grown alongside the registry so a new backend that
# never enters the bench is caught here, not noticed months later.
REQUIRED_DEMUXER_FAMILIES = ("bsd", "sequent", "flat16")


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_record(record, errors):
    """Validates one cell; returns (workload, demuxer) or None."""
    name = record.get("name")
    if not isinstance(name, str) or name.count("|") != 1:
        errors.append(f"record name {name!r} is not '<workload>|<demuxer>'")
        return None
    workload, demuxer = name.split("|")
    if not workload or not demuxer:
        errors.append(f"record name {name!r} has an empty axis")
        return None

    metrics = record.get("metrics")
    if not isinstance(metrics, dict):
        errors.append(f"{name}: missing 'metrics' object")
        return None
    for key in REQUIRED_METRICS:
        if not _is_number(metrics.get(key)):
            errors.append(f"{name}: metric '{key}' missing or not numeric")
    if _is_number(metrics.get("misses")) and metrics["misses"] != 0:
        errors.append(
            f"{name}: {metrics['misses']} replay misses (every generated "
            "arrival must find its PCB)"
        )
    if _is_number(metrics.get("ns_per_event")) and metrics["ns_per_event"] <= 0:
        errors.append(f"{name}: ns_per_event must be positive")
    if _is_number(metrics.get("hit_rate")) and not (
        0.0 <= metrics["hit_rate"] <= 1.0
    ):
        errors.append(f"{name}: hit_rate outside [0, 1]")
    if _is_number(metrics.get("events")) and metrics["events"] <= 0:
        errors.append(f"{name}: events must be positive")
    return workload, demuxer


def check_matrix(records, errors):
    cells = {}
    for record in records:
        cell = check_record(record, errors)
        if cell is None:
            continue
        if cell in cells:
            errors.append(f"duplicate cell {cell[0]}|{cell[1]}")
        cells[cell] = True

    workloads = sorted({w for w, _ in cells})
    demuxers = sorted({d for _, d in cells})
    for w in workloads:
        for d in demuxers:
            if (w, d) not in cells:
                errors.append(f"matrix hole: no cell for {w}|{d}")

    synthetic = [w for w in workloads if not w.startswith("pcap")]
    pcap = [w for w in workloads if w.startswith("pcap")]
    if len(synthetic) < MIN_SYNTHETIC_WORKLOADS:
        errors.append(
            f"only {len(synthetic)} synthetic workloads "
            f"(need >= {MIN_SYNTHETIC_WORKLOADS}): {synthetic}"
        )
    if len(pcap) < MIN_PCAP_WORKLOADS:
        errors.append("no pcap-driven workload row in the matrix")
    if len(demuxers) < MIN_DEMUXERS:
        errors.append(
            f"only {len(demuxers)} demuxers (need >= {MIN_DEMUXERS}): "
            f"{demuxers}"
        )
    families = {d.split(":")[0] for d in demuxers}
    for family in REQUIRED_DEMUXER_FAMILIES:
        if family not in families:
            errors.append(
                f"required demuxer family '{family}' has no matrix row "
                f"(present: {sorted(families)})"
            )
    return len(workloads), len(demuxers), len(cells)


def validate_file(path):
    errors = []
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable: {exc}"]
    if not isinstance(data, list):
        return [f"{path}: top level must be a JSON array of records"]

    records = [
        r for r in data if isinstance(r, dict) and r.get("bench") == BENCH
    ]
    if not records:
        return [f"{path}: no {BENCH} records found"]

    n_workloads, n_demuxers, n_cells = check_matrix(records, errors)
    if not errors:
        print(
            f"{path}: OK ({n_workloads} workloads x {n_demuxers} demuxers "
            f"= {n_cells} cells)"
        )
    return [f"{path}: {e}" for e in errors]


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = []
    for path in sys.argv[1:]:
        failures.extend(validate_file(path))
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
