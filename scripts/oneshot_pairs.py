#!/usr/bin/env python3
"""Time alternating one-shot ``pedlex matrix`` processes from two checkouts.

    python3 scripts/oneshot_pairs.py --parent ../pedlex-parent --change . \\
        --seed 1 --jobs 2 --runs 10

The benchmark's corpus workload runs every rep's ``matrix`` in one process,
so whatever that process keeps across reps (compiled DP scans, pool workers
forked from them) counts there but not in a user's single ``pedlex matrix``.
This script times the single command. It builds the word lists of the
corpus or ingest workload once, with this checkout's pedlex
(``corpus_exactness.corpus_lists``: the seeded treebanks of
``perfbench/inputs.py`` through ``extract`` and ``g2p``), and then runs
``--runs`` pairs of fresh ``python -m pedlex matrix --jobs N`` processes, one
per checkout (each imports pedlex from its own ``src``), the parent first in
even pairs and the change first in odd ones. Per side it prints the median
and quartiles of wall time and of CPU time (the process and its pool
workers, from rusage), and the pairs the change won on each. Every report
must be byte-identical to the first one; the script exits 1 if not.

``--pos``, ``--langs`` and ``--fraction`` restrict the lists, e.g. to three
NOUN lists of the ingest workload, each cut to a sixth of its words
(1,000-1,200), sampled with ``--seed``: ``--workload ingest --pos NOUN
--langs ar hi ur --fraction 0.1667``.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from itertools import combinations
from pathlib import Path

from bench_pairs import ROOT, SIDES, quartiles


def make_lists(out: Path, workload: str, seed: int, pos, langs, fraction) -> Path:
    """The workload's word lists under ``out``, restricted to ``langs`` and
    ``pos``, each cut to a ``fraction`` of its converted lemmas, sampled
    with ``seed``."""
    sys.path.insert(0, str(ROOT / "src"))
    import pedlex
    from corpus_exactness import corpus_lists

    rng = random.Random(seed)
    for words in corpus_lists(out, seed, workload):  # in file name order
        if (langs and words.language not in langs) or (pos and words.pos not in pos):
            words.path.unlink()
        elif fraction < 1:
            # lemmas are kept sorted: a prefix would keep the words of a few letters
            kept = [lemma for lemma in words.lemmas if lemma in words.ipa_by_lemma]
            kept = rng.sample(kept, math.ceil(fraction * len(kept)))
            ipa = {lemma: words.ipa_by_lemma[lemma] for lemma in kept}
            pedlex.write_wordlist(
                dataclasses.replace(words, lemmas=tuple(kept), ipa_by_lemma=ipa), words.path)
    return out / "lists"


def describe(lists: Path) -> str:
    """How many lists and cells there are, and the largest cell's word pairs
    (the product of its lists' distinct IPA forms, as ``build_matrix``
    sizes a cell)."""
    import pedlex

    by_pos: dict[str, list[int]] = {}
    for path in lists.glob("*.tsv"):
        words = pedlex.read_wordlist(path)
        by_pos.setdefault(words.pos, []).append(len(words.ipa_strings()))
    products = [a * b for sizes in by_pos.values() for a, b in combinations(sizes, 2)]
    return (f"{sum(map(len, by_pos.values()))} lists, {len(products)} cells, "
            f"largest {max(products, default=0):,} pairs")


def run_matrix(checkout: Path, lists: Path, report: Path, jobs: int) -> tuple[float, float]:
    """(wall, CPU) seconds of one fresh ``pedlex matrix`` process."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    argv = [sys.executable, "-m", "pedlex", "matrix", "--lists", str(lists),
            "--out", str(report), "--jobs", str(jobs)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: pedlex matrix exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10, help="pairs of runs")
    parser.add_argument("--workload", default="corpus", choices=("corpus", "ingest"))
    parser.add_argument("--pos", nargs="+", help="extract only these tags")
    parser.add_argument("--langs", nargs="+", help="extract only these languages")
    parser.add_argument("--fraction", type=float, default=1.0,
                        help="keep this share of each list, sampled with --seed")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    times: dict[str, list[tuple[float, float]]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="oneshot-") as tmp:
        tmp = Path(tmp)
        lists = make_lists(tmp, args.workload, args.seed, args.pos, args.langs, args.fraction)
        print(f"{describe(lists)}; {args.workload} seed {args.seed}, --jobs {args.jobs}",
              flush=True)
        first = None
        for pair in range(args.runs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                report = tmp / "report.csv"
                wall, cpu = run_matrix(checkouts[side], lists, report, args.jobs)
                text = report.read_bytes()
                if first is None:
                    first = text
                elif text != first:
                    print(f"pair {pair} {side}: report differs from the first run's")
                    return 1
                times[side].append((wall, cpu))
                print(f"pair {pair} {side}: wall {wall:.3f} s, CPU {cpu:.3f} s", flush=True)
    for k, name in enumerate(("wall", "CPU")):
        for side in SIDES:
            q1, median, q3 = quartiles([t[k] for t in times[side]])
            print(f"{name} {side}: median {median:.3f} s [{q1:.3f}, {q3:.3f}]")
        wins = sum(c[k] < p[k] for p, c in zip(times["parent"], times["change"]))
        print(f"{name}: change won {wins} of {args.runs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
