"""Diff two benchmark result files, per workload and metric.

    python3 perfbench/compare.py .bench_out/OLD.json .bench_out/NEW.json

Accepts the per-workload files run.py writes and the combined ``--all``
file. Prints every metric both files share with its relative change, and
flags any changed count, any moved quality field and any op whose
support, status or check problems changed. Exits 1 when something is
flagged, 0 otherwise.
"""
from __future__ import annotations

import json
import sys

QUALITY = ("rsb.cert_resid_max", "rsb.value_dev_max", "fail_share")


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return obj["workloads"] if "workloads" in obj else {obj["workload"]: obj}


def _metrics(result: dict) -> dict:
    out = dict(result.get("metrics", {}))
    out.setdefault("fail_share", {"value": result["fail_share"], "unit": "ratio"})
    return out


def diff_workload(old: dict, new: dict) -> tuple[list, list]:
    """Report lines and flags for one workload."""
    lines, flags = [], []
    m_old, m_new = _metrics(old), _metrics(new)
    for name in sorted(m_old.keys() & m_new.keys()):
        a, b = m_old[name]["value"], m_new[name]["value"]
        unit = m_new[name]["unit"]
        change = f"{(b - a) / a:+.1%}" if a else ("same" if a == b else "from 0")
        lines.append(f"  {name:38s} {a:>14.6g} -> {b:<14.6g} {unit:6s} {change}")
        if unit == "count" and a != b:
            flags.append(f"count changed: {name} {a:g} -> {b:g}")
        if name in QUALITY and a != b:
            flags.append(f"quality field moved: {name} {a!r} -> {b!r}")
    ops_old = {op["id"]: op for op in old["ops"]}
    for op in new["ops"]:
        before = ops_old.get(op["id"])
        if before is None:
            flags.append(f"op only in the new file: {op['id']}")
            continue
        if before["status"] != op["status"]:
            flags.append(f"status changed: {op['id']}: {before['status']} -> {op['status']}")
        s_old = (before["summary"] or {}).get("support")
        s_new = (op["summary"] or {}).get("support")
        if s_old != s_new:
            flags.append(f"support changed: {op['id']}: {s_old} -> {s_new}")
    return lines, flags


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    flagged = False
    for workload in sorted(old.keys() | new.keys()):
        if workload not in old or workload not in new:
            print(f"{workload}: only in {'the new' if workload in new else 'the old'} file")
            flagged = True
            continue
        lines, flags = diff_workload(old[workload], new[workload])
        print(f"{workload}:")
        print("\n".join(lines))
        for flag in flags:
            print(f"  FLAG {flag}")
        flagged = flagged or bool(flags)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
