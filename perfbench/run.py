#!/usr/bin/env python3
"""pedlex benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout is the directory above this file, and pedlex
is imported from its ``src``. One run:

1. generates the workload's inputs from ``--seed`` (``inputs.py``) under
   ``.perfbench_work/`` and derives the expected outputs independently
   (``reference.py``);
2. times set-up in several fresh interpreters (``setup_s``);
3. runs the workload in one fresh worker process (``worker.py``) for
   ``--seconds``, which also gives the process tree's peak RSS;
4. checks every output against the reference, and prints the metrics named
   in ``BENCHMARK.json``: the end-to-end ones with ``--trace 0``, the
   per-layer ones from a traced pass with ``--trace 1``.

The last line of stdout is the JSON result. The exit code is 0 only when
every output check passed; it is 2, with no result, when the program or the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 150
clock = time.perf_counter

sys.path.insert(0, str(HERE))


class CannotRun(Exception):
    """The program or the benchmark itself is missing or broken."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    try:
        return json.loads(SPEC.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CannotRun(f"cannot read {SPEC.name}: {exc}") from None


def import_pedlex():
    src = ROOT / "src"
    if not (src / "pedlex" / "__init__.py").is_file():
        raise CannotRun(f"no pedlex sources under {src}")
    sys.path.insert(0, str(src))
    try:
        import numpy  # noqa: F401  (the reference needs it)
        import pedlex
    except ImportError as exc:
        raise CannotRun(f"import failed: {exc}") from None
    if Path(pedlex.__file__).resolve().parent != (src / "pedlex").resolve():
        raise CannotRun(f"imported pedlex from {pedlex.__file__}, not from {src}")
    return pedlex


def commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "seed": seed,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def log_tail(path: Path, lines: int = 30) -> str:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""
    return "\n".join(text.splitlines()[-lines:])


def worker_cmd(*args) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), *map(str, args)]


def measure_setup(log: Path) -> list[float]:
    """Seconds from spawning a fresh interpreter until its set-up is done."""
    times = []
    with open(log, "ab") as log_fh:
        for _ in range(SETUP_PROBES):
            start = clock()
            proc = subprocess.Popen(
                worker_cmd("--setup-only"), stdout=subprocess.PIPE, stderr=log_fh,
                env=child_env(), cwd=ROOT,
            )
            line = proc.stdout.readline()
            times.append(clock() - start)
            proc.stdout.close()
            if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
                raise CannotRun("set-up failed:\n" + log_tail(log))
    return times


def run_worker(workload: str, work: Path, seconds: float, trace: bool, jobs: int):
    """Run the worker in a fresh process and return its result."""
    result_path = work / "result.json"
    cmd = worker_cmd(
        "--workload", workload, "--inputs", work / "inputs", "--scratch", work / "scratch",
        "--result", result_path, "--seconds", seconds, "--jobs", jobs,
        *(["--trace"] if trace else []),
    )
    with open(work / "worker.log", "ab") as log_fh:
        proc = subprocess.Popen(cmd, stdout=log_fh, stderr=log_fh, env=child_env(), cwd=ROOT)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise CannotRun(f"worker still running after {WORKER_TIMEOUT_S} s; killed") from None
    if code != 0 or not result_path.is_file():
        raise CannotRun(f"worker exited {code}:\n" + log_tail(work / "worker.log"))
    return json.loads(result_path.read_text(encoding="utf-8"))


class Expected:
    """Reference outputs of one workload and seed, and how to compare to them."""

    def __init__(self, workload: str, seed: int, inputs_dir: Path, pedlex):
        import inputs
        import reference
        from pedlex import defaults

        tables = {
            s: pedlex.load_g2p_table(defaults.default_g2p_table_path(s))
            for s in ("perso-arabic", "devanagari")
        }
        generated = inputs.generate(workload, seed, inputs_dir, tables)
        phones = reference.Phones(
            pedlex.load_inventory(defaults.default_inventory_path()),
            pedlex.DistanceConfig(),
            pedlex.load_manner_table(defaults.default_manner_table_path()),
            pedlex.phonetic_difference,
        )
        self.workload = workload
        if workload == "cell1000":
            a, b = (sorted(generated.vocab[(lang, "NOUN")]) for lang in ("aa", "bb"))
            self.value = reference.cell("aa", a, "bb", b, "NOUN", phones)[3].hex()
            self.ops = 1
            return
        lists = reference.converted_lists(generated.vocab, inputs.LANGUAGES, tables)
        if workload == "corpus":
            self.value = reference.corpus_report(lists, phones)
            self.ops = len(self.value.splitlines()) - 1
        else:
            from worker import list_digest

            rows = reference.ingest_rows(lists, phones)
            self.value = {key: list_digest(r) for key, r in rows.items()}
            self.ops = len(self.value)

    def failures(self, output) -> tuple[int, int]:
        """(operations, failed operations) of one repetition's output."""
        if self.workload == "cell1000":
            return 1, int(output != self.value)
        if self.workload == "ingest":
            keys = set(self.value) | set(output)
            return len(keys), sum(self.value.get(k) != output.get(k) for k in keys)
        want, got = self.value.splitlines(), output.splitlines()
        if len(want) != len(got) or want[0] != got[0]:
            return self.ops, self.ops
        return self.ops, sum(w != g for w, g in zip(want[1:], got[1:]))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def end_to_end(reps, setup_times, peak_rss_mb) -> dict[str, tuple[float, str]]:
    wall = [r["wall"] for r in reps]
    q1, q3 = quartiles(wall)
    return {
        "wall_s": (statistics.median(wall), f"median of {len(wall)} reps, q1 {q1:.4f} q3 {q3:.4f}"),
        "setup_s": (statistics.median(setup_times), f"median of {len(setup_times)} fresh interpreters"),
        "cpu_s": (statistics.median(r["cpu"] for r in reps), "user+sys per rep, pool workers included"),
        "peak_rss_mb": (peak_rss_mb, "largest process of the worker tree"),
        "work_per_s": (statistics.median(r["work"] for r in reps), ""),
    }


def describe_work(workload: str, reps) -> list[str]:
    """work_per_s under the workload's own name: pairs/s or lemmas/s."""
    work = statistics.median(r["work"] for r in reps)
    if workload == "ingest":
        return [f"{'lemmas_per_s':<30} {work:16.6g} lemmas/s       = work_per_s here",
                f"{'pairs_per_s':<30} {'n/a':>16}"]
    return [f"{'pairs_per_s':<30} {work:16.6g} pairs/s        = work_per_s here",
            f"{'lemmas_per_s':<30} {'n/a':>16}"]


def pruning_lines(result) -> list[str]:
    """scripts/benchmark_pruning.py's report, from the cell1000 traced run."""
    pruned = statistics.median(r["wall"] for r in result["traced"])
    dp = result["dp_per_rep"][0]
    unpruned_cells = result["layers"]["ped.dp_cells_unpruned"]
    same = result["check"]["output"] == result["traced"][0]["output"]
    mu = float.fromhex(result["traced"][0]["output"])
    return [
        f"pruned:   {pruned:6.2f}s  {dp['cells']:>12,} cells  "
        f"{dp['abandoned']:,} abandoned, {dp['prefiltered']:,} prefiltered  (traced)",
        f"unpruned: {result['check']['wall']:6.2f}s  {unpruned_cells:>12,} cells  (traced)",
        f"cells saved: {1 - dp['cells'] / unpruned_cells:.1%}",
        f"mu identical: {same} (mu={mu:.4f})",
    ]


def evaluate(expected: Expected, result: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) over every output the run produced."""
    attempted = failed = 0
    notes = []
    reps = result.get("reps", []) + result.get("traced", [])
    if result.get("check"):
        reps = reps + [result["check"]]
    for rep in reps:
        ops, bad = expected.failures(rep["output"])
        attempted += ops
        failed += bad
    if failed:
        notes.append(f"{failed} of {attempted} outputs differ from the reference")
    if "traced" in result:
        identical = {
            "corpus": "--jobs 1 report byte-identical to --jobs nproc",
            "cell1000": "prune=False mu_psi bit-identical to pruned",
        }
        if expected.workload in identical:
            attempted += 1
            if result["check"]["output"] != result["traced"][0]["output"]:
                failed += 1
                notes.append("failed: " + identical[expected.workload])
        attempted += 1
        if any(dp != result["dp_per_rep"][0] for dp in result["dp_per_rep"]):
            failed += 1
            notes.append("failed: DpStats counts differ between traced repetitions")
    return attempted, failed, notes


def emit(metrics: dict, notes: dict, spec_metrics: list[dict], correct, attempted, failed):
    """Print each declared metric with its unit, then the JSON result line."""
    missing = [m["name"] for m in spec_metrics if m["name"] not in metrics]
    if missing:
        raise CannotRun(f"metrics not produced: {', '.join(missing)}")
    for m in spec_metrics:
        value = metrics[m["name"]]
        text = f"{value:,}" if isinstance(value, int) else f"{value:.6g}"
        print(f"{m['name']:<30} {text:>16} {m['unit']:<14} {notes.get(m['name'], '')}".rstrip())
    out = {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec_metrics
    }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}, ensure_ascii=False))


def run(args) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise CannotRun(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    pedlex = import_pedlex()
    info = machine(args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        expected = Expected(args.workload, args.seed, work / "inputs", pedlex)
        setup_times = measure_setup(work / "setup.log")
        result = run_worker(
            args.workload, work, args.seconds, bool(args.trace), info["nproc"]
        )
        if "error" in result:
            sys.stderr.write(result["error"])
            attempted = failed = expected.ops
            notes = ["the workload raised; see the traceback on stderr"]
        else:
            attempted, failed, notes = evaluate(expected, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = failed == 0
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(info, ensure_ascii=False))
    for note in notes:
        print(note)
    print(f"{'failed_frac':<30} {failed / attempted:16.6g} ratio          "
          f"{failed} of {attempted} operations failed")
    if "error" in result:
        emit({}, {}, [], False, attempted, failed)
        return 1
    if args.trace:
        metrics = result["layers"]
        if args.workload == "cell1000":
            print("\n".join(pruning_lines(result)))
        notes = {"similarity.pool_bytes_per_cell": "computed: pickled task size, not measured"}
        emit(metrics, notes, spec["per_layer"], correct, attempted, failed)
    else:
        reps = result["reps"]
        stages = {k: statistics.median(r["stages"][k] for r in reps) for k in reps[0]["stages"]}
        print("stage medians: " + ", ".join(f"{k} {v:.4f} s" for k, v in stages.items()))
        print("\n".join(describe_work(args.workload, reps)))
        rows = end_to_end(reps, setup_times, result["peak_rss_mb"])
        emit({k: v for k, (v, _) in rows.items()}, {k: n for k, (_, n) in rows.items()},
             spec["end_to_end"], correct, attempted, failed)
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except CannotRun as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
