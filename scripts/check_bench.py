#!/usr/bin/env python3
"""Validate the committed benchmark records, BENCH_*.json at the repo root.

    python3 scripts/check_bench.py [FILE ...]

Every entry (one set of parent/change pairs, as ``scripts/bench_pairs.py``
writes it) must name its seeds and ``--seconds``, hold runs of both sides
whose ``machine`` record names ``nproc`` and ``python``, and give a median
of every end-to-end metric in BENCHMARK.json for both sides. Exits 1 naming
the first problem, or when there is no record at all.
"""

from __future__ import annotations

import json
import sys
from numbers import Real
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def problems(record, metrics):
    """Yield one message per missing or malformed field of a loaded record."""
    entries = record.get("entries") if isinstance(record, dict) else None
    if not entries or not isinstance(entries, list):
        yield "no entries"
        return
    for e, entry in enumerate(entries):
        where = f"entry {e}"
        seeds = entry.get("seeds")
        if not seeds or not all(isinstance(s, int) for s in seeds):
            yield f"{where}: no seeds"
        seconds = entry.get("seconds")
        if not isinstance(seconds, Real) or seconds <= 0:
            yield f"{where}: no --seconds"
        runs = entry.get("runs") or []
        for side in SIDES:
            side_runs = [run for run in runs if run.get("side") == side]
            if not side_runs:
                yield f"{where}: no {side} runs"
            for run in side_runs:
                machine = run.get("machine") or {}
                if not isinstance(machine.get("nproc"), int) or not machine.get("python"):
                    yield f"{where}: a {side} run has no machine.nproc or machine.python"
                if run.get("seed") not in (seeds or []) or run.get("seconds") != seconds:
                    yield f"{where}: a {side} run's seed or --seconds is not the entry's"
            medians = (entry.get("sides") or {}).get(side) or {}
            for name in metrics:
                if not isinstance((medians.get(name) or {}).get("median"), Real):
                    yield f"{where}: no {side} median of {name}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    paths = [Path(p) for p in argv] or sorted(ROOT.glob("BENCH_*.json"))
    if not paths:
        print(f"no BENCH_*.json in {ROOT}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [m["name"] for m in spec["end_to_end"]]
    status = 0
    for path in paths:
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            print(f"{path}: cannot load: {exc}", file=sys.stderr)
            status = 1
            continue
        for problem in problems(record, metrics):
            print(f"{path}: {problem}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
