#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and record them.

    python3 scripts/bench_pairs.py --workload corpus --seconds 20 \\
        --parent ../pedlex-parent --change . --seeds 71 72 73 --out BENCH_corpus.json

``--parent`` and ``--change`` are two checkouts; each runs its own
``perfbench/run.py``, which imports pedlex from that checkout's ``src``.
Pair i runs seed ``seeds[i]`` on both sides, the parent first in even pairs
and the change first in odd ones. Every run's ``machine:`` record, seed,
``--seconds`` and final JSON result line are kept as ``run.py`` printed
them. The entry appended to ``--out`` (a new file starts a trajectory) adds
per side the median, first and third quartile of each end-to-end metric,
and per metric the pairs the change won; ``scripts/check_bench.py``
validates the file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    machine = next((json.loads(line.split(":", 1)[1]) for line in lines
                    if line.startswith("machine:")), None)
    if proc.returncode != 0 or machine is None or not lines:
        raise SystemExit(f"{checkout}: run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return {"seed": seed, "seconds": seconds, "machine": machine, "result": json.loads(lines[-1])}


def describe(checkout: Path) -> str:
    """The checkout's HEAD commit, marked dirty when its tracked src/ or
    perfbench/ files differ from HEAD (run.py's machine record names HEAD
    either way)."""
    def git(*argv):
        return subprocess.run(["git", "-C", str(checkout), *argv], capture_output=True,
                              text=True).stdout.strip()

    head = git("rev-parse", "HEAD") or "unknown"
    dirty = git("status", "--porcelain", "--untracked-files=no", "--", "src", "perfbench")
    return head + (" (dirty)" if dirty else "")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: list[dict], metrics: dict[str, str]) -> dict:
    summary = {}
    for side in SIDES:
        side_runs = [run for run in runs if run["side"] == side]
        summary[side] = {}
        for name in metrics:
            values = [run["result"]["metrics"][name]["value"] for run in side_runs]
            q1, median, q3 = quartiles(values)
            summary[side][name] = {"median": median, "q1": q1, "q3": q3}
    wins = {}
    for name, better in metrics.items():
        pairs = {}
        for run in runs:
            value = run["result"]["metrics"][name]["value"]
            pairs.setdefault(run["pair"], {})[run["side"]] = value
        sign = 1 if better == "higher" else -1
        wins[name] = sum(1 for p in pairs.values() if sign * (p["change"] - p["parent"]) > 0)
    return {"sides": summary, "change_wins": wins}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for pair, seed in enumerate(args.seeds):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            run = run_once(checkouts[side], args.workload, seed, args.seconds)
            runs.append({"pair": pair, "side": side, **run})
            work = run["result"]["metrics"].get("work_per_s", {}).get("value")
            print(f"pair {pair} seed {seed} {side}: work_per_s {work}", flush=True)
    entry = {
        "note": args.note,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED "
                   f"--seconds {args.seconds:g}",
        "seconds": args.seconds,
        "seeds": args.seeds,
        "checkouts": {side: describe(checkouts[side]) for side in SIDES},
        **summarize(runs, metrics),
        "runs": runs,
    }
    record = {"workload": args.workload, "entries": []}
    if args.out.exists():
        record = json.loads(args.out.read_text(encoding="utf-8"))
    record["entries"].append(entry)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
