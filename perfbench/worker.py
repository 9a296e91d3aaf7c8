#!/usr/bin/env python3
"""One run of one benchmark workload, in a fresh process.

Started by ``run.py`` with ``src`` on PYTHONPATH. With ``--setup-only`` it
does the set-up that ``setup_s`` times, prints ``ready`` and exits. Otherwise
it sets up, repeats the workload until ``--seconds`` have passed, and writes
per-repetition wall, stage and CPU times plus the outputs to ``--result`` as
JSON. With ``--trace`` it first measures untraced repetitions for half the
time, then traced ones, then the traced check pass (``--jobs 1`` for
``corpus``, ``prune=False`` for ``cell1000``), and derives the per-layer
values from the trace.
"""

import argparse
import hashlib
import json
import math
import pickle
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

SCRIPTS = ("perso-arabic", "devanagari")
clock = time.perf_counter


@dataclass
class Env:
    inventory: object
    xi: object
    tables: dict
    costs: object


def setup() -> Env:
    """Everything a workload needs before it can start; what setup_s times."""
    import pedlex
    from pedlex import defaults

    inventory = pedlex.load_inventory(defaults.default_inventory_path())
    xi = pedlex.load_manner_table(defaults.default_manner_table_path())
    tables = {s: pedlex.load_g2p_table(defaults.default_g2p_table_path(s)) for s in SCRIPTS}
    costs = pedlex.SubstitutionCosts(pedlex.DistanceConfig(), xi)
    return Env(inventory, xi, tables, costs)


def cpu_seconds() -> float:
    """User+sys time of this process and its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Largest RSS of this process or any reaped child (pool workers), MB.

    This process's own peak is VmHWM, the high-water mark of its address
    space since exec; ru_maxrss would also carry the launcher's peak across
    the exec.
    """
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            own_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    return max(own_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def list_digest(rows) -> str:
    """Digest of a list's (lemma, ipa, token count) rows; the ingest check."""
    h = hashlib.sha256()
    for lemma, ipa, n_tokens in sorted(rows):
        h.update(f"{lemma}\t{ipa or ''}\t{n_tokens}\n".encode())
    return h.hexdigest()


def report_pairs(text: str) -> int:
    """Σ size_a·size_b over the report's cells that were not skipped."""
    total = 0
    for line in text.splitlines()[1:]:
        fields = line.split(",")
        if not fields[6]:
            total += int(fields[4]) * int(fields[5])
    return total


def _check_exit(code: int, argv) -> None:
    if code != 0:
        raise RuntimeError(f"pedlex {' '.join(argv)} exited {code}")


class Corpus:
    """extract, g2p and matrix through pedlex.cli.main, as a user runs them."""

    def __init__(self, env, manifest, inputs: Path, scratch: Path, jobs: int):
        self.manifest, self.inputs, self.scratch, self.jobs = manifest, inputs, scratch, jobs
        self.tokens = sum(info["tokens"] for info in manifest["languages"].values())

    def _cli(self, *argv):
        from pedlex import cli

        _check_exit(cli.main(list(argv)), argv)

    def run(self, rep: int, jobs: int | None = None) -> dict:
        lists = self.scratch / f"lists-{rep}"
        report = self.scratch / f"report-{rep}.csv"
        languages = self.manifest["languages"]
        start = clock()
        for lang, info in languages.items():
            conllu = str(self.inputs / info["conllu"])
            self._cli("extract", "--input", conllu, "--lang", lang, "--out-dir", str(lists))
        extracted = clock()
        for path in sorted(lists.glob("*.tsv")):
            script = languages[path.name.split("_")[0]]["script"]
            self._cli("g2p", "--script", script, "--in", str(path), "--out", str(path))
        converted = clock()
        jobs = self.jobs if jobs is None else jobs
        self._cli("matrix", "--lists", str(lists), "--out", str(report), "--jobs", str(jobs))
        end = clock()
        text = report.read_text(encoding="utf-8")
        shutil.rmtree(lists)
        report.unlink()
        return {
            "wall": end - start,
            "stages": {"extract": extracted - start, "g2p": converted - extracted,
                       "matrix": end - converted},
            "work": report_pairs(text) / (end - converted),
            "output": text,
        }


class Cell1000:
    """One align_lists call over two 1000-word lists, in this process."""

    def __init__(self, env, manifest, inputs: Path, scratch: Path, jobs: int):
        from pedlex import read_wordlist

        self.env = env
        self.tokens = 0
        self.a, self.b = (read_wordlist(inputs / manifest["lists"][k]) for k in ("aa", "bb"))

    def run(self, rep: int, prune: bool = True) -> dict:
        from pedlex import similarity

        start = clock()
        cell = similarity.align_lists(
            self.a, self.b, self.env.inventory, costs=self.env.costs, prune=prune
        )
        seconds = clock() - start
        return {
            "wall": seconds,
            "stages": {"align": seconds},
            "work": cell.size_a * cell.size_b / seconds,
            "output": cell.mu_psi.hex(),
        }


class Ingest:
    """extract -> g2p -> write -> read -> tokenize through the library."""

    def __init__(self, env, manifest, inputs: Path, scratch: Path, jobs: int):
        self.env, self.manifest, self.inputs, self.scratch = env, manifest, inputs, scratch
        self.tokens = sum(info["tokens"] for info in manifest["languages"].values())

    def run(self, rep: int) -> dict:
        from pedlex import corpus, tokenizer

        out_dir = self.scratch / f"lists-{rep}"
        out_dir.mkdir()
        stages = dict.fromkeys(("extract", "g2p", "write", "read", "tokenize"), 0.0)
        digests = {}
        lemmas = 0
        start = clock()
        for lang, info in self.manifest["languages"].items():
            t = clock()
            wordlists = corpus.extract_wordlists(self.inputs / info["conllu"], lang)
            stages["extract"] += clock() - t
            table = self.env.tables[info["script"]]
            for wl in wordlists:
                path = out_dir / f"{lang}_{wl.pos}.tsv"
                t0 = clock()
                converted = corpus.g2p_convert(wl, table)
                t1 = clock()
                corpus.write_wordlist(converted, path)
                t2 = clock()
                back = corpus.read_wordlist(path)
                t3 = clock()
                ipa = back.ipa_by_lemma or {}
                counts = {
                    lemma: len(tokenizer.tokenize(form, self.env.inventory))
                    for lemma, form in ipa.items()
                }
                t4 = clock()
                stages["g2p"] += t1 - t0
                stages["write"] += t2 - t1
                stages["read"] += t3 - t2
                stages["tokenize"] += t4 - t3
                lemmas += len(counts)
                digests[f"{lang}_{wl.pos}"] = list_digest(
                    (lemma, ipa.get(lemma), counts.get(lemma, 0)) for lemma in back.lemmas
                )
        wall = clock() - start
        shutil.rmtree(out_dir)
        return {"wall": wall, "stages": stages, "work": lemmas / wall, "output": digests}


WORKLOADS = {"corpus": Corpus, "cell1000": Cell1000, "ingest": Ingest}


def repeat(run, seconds: float) -> list[dict]:
    """Run repetitions until ``seconds`` have passed (at least one)."""
    reps = []
    start = clock()
    while not reps or clock() - start < seconds:
        cpu = cpu_seconds()
        rep = run(len(reps))
        rep["cpu"] = cpu_seconds() - cpu
        reps.append(rep)
    return reps


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_values(summary: dict, input_tokens: int) -> dict[str, float]:
    """Per-layer metric values from one traced pass's Tracer.summary()."""
    busy, calls, dp, cells = summary["busy"], summary["calls"], summary["dp"], summary["cells"]
    align = [c["seconds"] for c in cells]
    align_total = sum(align)
    return {
        "tokenizer.calls": calls.get("tokenizer", 0),
        "tokenizer.busy_s": busy.get("tokenizer", 0.0),
        "tokenizer.words_per_s": _ratio(calls.get("tokenizer", 0), busy.get("tokenizer", 0.0)),
        "corpus.extract_s": busy.get("corpus.extract", 0.0),
        "corpus.extract_tokens_per_s": _ratio(
            input_tokens if calls.get("corpus.extract") else 0, busy.get("corpus.extract", 0.0)
        ),
        "corpus.g2p_s": busy.get("corpus.g2p", 0.0),
        "corpus.g2p_kept_ratio": _ratio(summary["g2p_kept"], summary["g2p_attempted"]),
        "corpus.read_s": busy.get("corpus.read", 0.0),
        "corpus.write_s": busy.get("corpus.write", 0.0),
        "distance.pair_evals": calls.get("distance.pair", 0),
        "distance.rows_s": busy.get("distance.rows", 0.0),
        "ped.dp_calls": dp["dps"],
        "ped.dp_cells": dp["cells"],
        "ped.abandoned": dp["abandoned"],
        "ped.prefiltered": dp["prefiltered"],
        "ped.busy_s": busy.get("ped.dp", 0.0),
        "ped.cells_per_s": _ratio(dp["cells"], busy.get("ped.dp", 0.0)),
        "ped.completed_ratio": _ratio(dp["dps"] - dp["abandoned"], dp["dps"]),
        "ped.work_fraction": _ratio(dp["cells"], sum(c["grid"] for c in cells)),
        "similarity.align_s_p50": _percentile(align, 0.5),
        "similarity.align_s_p90": _percentile(align, 0.9),
        "similarity.critical_cell_s": max(align, default=0.0),
        "similarity.select_share": _ratio(
            align_total - sum(c["dp_s"] + c["tokenize_s"] for c in cells), align_total
        ),
    }


def _median_values(per_pass: list[dict]) -> dict[str, float]:
    """Per-metric median over passes; counts stay whole numbers."""
    out = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        pick = statistics.median_low if isinstance(values[0], int) else statistics.median
        out[name] = pick(values)
    return out


def traced_run(workload, env, args) -> dict:
    """Untraced reps, traced reps, then the workload's traced check pass."""
    from pedlex import DistanceConfig
    from pedlex.similarity import DEFAULT_MIN_SIZE
    from tracing import Tracer

    half = args.seconds / 2
    result = {"reps": repeat(workload.run, half)}
    summaries = []
    with Tracer() as tracer:

        def traced_rep(rep: int) -> dict:
            tracer.reset()
            out = workload.run(rep)
            summaries.append(tracer.summary(env.inventory))
            return out

        traced = repeat(traced_rep, half)
        tracer.reset()
        if args.workload == "corpus":
            check = workload.run(0, jobs=1)
            # the argument tuple build_matrix sends to a pool worker per cell
            pool_task = (env.inventory, DistanceConfig(), env.xi, DEFAULT_MIN_SIZE, True, False)
            task_bytes = [len(pickle.dumps(c["lists"] + pool_task)) for c in tracer.cells]
        elif args.workload == "cell1000":
            check = workload.run(0, prune=False)
        else:
            check = None
        check_summary = tracer.summary(env.inventory) if check else None
    result["traced"] = traced
    result["check"] = check
    result["dp_per_rep"] = [s["dp"] for s in summaries]

    if args.workload == "corpus":
        # everything ran in this process only in the --jobs 1 pass
        layers = layer_values(check_summary, workload.tokens)
        matrix_wall = statistics.median(s["busy"]["similarity.matrix"] for s in summaries)
        serial = sum(c["seconds"] for c in check_summary["cells"])
        layers["similarity.pool_efficiency"] = serial / (args.jobs * matrix_wall)
        layers["similarity.pool_bytes_per_cell"] = statistics.mean(task_bytes)
    else:
        layers = _median_values([layer_values(s, workload.tokens) for s in summaries])
        layers["similarity.pool_efficiency"] = 0.0
        layers["similarity.pool_bytes_per_cell"] = 0.0
    layers["ped.dp_cells_unpruned"] = (
        check_summary["dp"]["cells"] if args.workload == "cell1000" else 0
    )
    layers["trace.overhead_s"] = statistics.median(r["wall"] for r in traced) - statistics.median(
        r["wall"] for r in result["reps"]
    )
    result["layers"] = layers
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", type=Path)
    parser.add_argument("--scratch", type=Path)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    env = setup()
    if args.setup_only:
        print("ready", flush=True)
        return 0
    manifest = json.loads((args.inputs / "manifest.json").read_text(encoding="utf-8"))
    args.scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](env, manifest, args.inputs, args.scratch, args.jobs)
    try:
        result = traced_run(workload, env, args) if args.trace else {
            "reps": repeat(workload.run, args.seconds)
        }
    except Exception:
        result = {"error": traceback.format_exc()}
    result["peak_rss_mb"] = peak_rss_mb()
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
