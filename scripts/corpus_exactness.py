#!/usr/bin/env python3
"""μΨ bits at corpus scale, pinned in a golden file.

    PYTHONPATH=src python3 scripts/corpus_exactness.py          # check
    PYTHONPATH=src python3 scripts/corpus_exactness.py --write  # rewrite

``corpus_lists`` writes the seeded treebanks of one of the benchmark's
workloads (``perfbench/inputs.py``; corpus by default) and turns them into
word lists with ``pedlex extract`` and ``pedlex g2p``. ``report_bits`` runs
``build_matrix`` over the lists and returns the sha256 of the CSV report and
every cell's μΨ as ``float.hex`` (None for a skipped cell).
``tests/test_corpus_golden.py`` compares a ``jobs=1`` run with
``tests/fixtures/corpus_seed1.json``.

Without flags this script checks, on the same lists and against the same
file, the variants that the test leaves out for time:
- every cell unpruned (``align_lists(prune=False)``);
- every plan interpreted, and every plan compiled, wide ones too
  (``pedlex.ped``'s width cap, patched in this process only);
- ``jobs=2`` under each start method the platform offers.
It prints one line per variant and exits 1 when any bit differs. ``--write``
rewrites the golden file from this checkout's code, naming the seed and the
commit. A change that moves μΨ on purpose says so and rewrites the file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import multiprocessing
import subprocess
import sys
import tempfile
from itertools import combinations
from pathlib import Path

import pedlex
from pedlex import cli, defaults, similarity

# the package re-exports a function named ``ped``, so import the module by path
kernel = importlib.import_module("pedlex.ped")

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "fixtures" / "corpus_seed1.json"
SEED = 1


def _inputs_module():
    """``perfbench/inputs.py``, loaded by path: ``perfbench`` is no package."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up
    spec.loader.exec_module(module)
    return module


def corpus_lists(out: Path, seed: int = SEED, workload: str = "corpus") -> list:
    """The word lists of ``workload`` (corpus or ingest) for ``seed``, as
    ``pedlex matrix`` reads them after ``extract`` and ``g2p`` wrote them
    under ``out / "lists"``; each keeps its file as ``path``."""
    inputs = _inputs_module()
    scripts = sorted(set(inputs.LANGUAGES.values()))
    tables = {s: pedlex.load_g2p_table(defaults.default_g2p_table_path(s)) for s in scripts}
    generated = inputs.generate(workload, seed, out / "treebanks", tables)
    lists = out / "lists"

    def pedlex_cli(*argv):
        # pedlex reports each list it writes on stderr; show that only on failure
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"pedlex {' '.join(argv)} exited {code}\n{err.getvalue()}")

    for lang, info in generated.manifest["languages"].items():
        pedlex_cli("extract", "--input", str(generated.directory / info["conllu"]),
                   "--lang", lang, "--out-dir", str(lists))
    paths = sorted(lists.glob("*.tsv"))
    for path in paths:
        script = inputs.LANGUAGES[path.name.split("_")[0]]
        pedlex_cli("g2p", "--script", script, "--in", str(path), "--out", str(path))
    return [pedlex.read_wordlist(path) for path in paths]


def _key(cell) -> str:
    return f"{cell.lang_a},{cell.lang_b},{cell.pos}"


def _hex(mu_psi) -> str | None:
    return None if mu_psi is None else mu_psi.hex()


def report_bits(lists, jobs: int = 1) -> tuple[str, dict[str, str | None]]:
    """(sha256 of the CSV report, {"lang_a,lang_b,pos": μΨ hex}) of the
    matrix over ``lists`` with the default tables, as ``pedlex matrix``
    computes it."""
    report = similarity.build_matrix(lists, pedlex.default_inventory(), jobs=jobs)
    text = similarity.format_report(report)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digest, {_key(cell): _hex(cell.mu_psi) for cell in report.cells}


def unpruned_bits(lists) -> dict[str, str | None]:
    """Every cell of the matrix over ``lists``, each aligned on its own
    without pruning."""
    inventory = pedlex.default_inventory()
    bits = {}
    for l1, l2 in combinations(lists, 2):
        if l1.pos == l2.pos:
            cell = similarity.align_lists(l1, l2, inventory, prune=False)
            bits[_key(cell)] = _hex(cell.mu_psi)
    return bits


@contextlib.contextmanager
def _compile_rule(narrow):
    """Compile plans up to ``narrow`` cells wide (-1: none, inf: all) from an
    empty cache; the default and an empty cache are back on exit."""
    saved = kernel._NARROW
    kernel._compiled.clear()
    kernel._NARROW = narrow
    try:
        yield
    finally:
        kernel._NARROW = saved
        kernel._compiled.clear()


def _commit() -> str:
    def git(*argv):
        return subprocess.run(["git", "-C", str(ROOT), *argv], capture_output=True,
                              text=True).stdout.strip()

    dirty = git("status", "--porcelain", "--untracked-files=no", "--", "src")
    return (git("rev-parse", "--short", "HEAD") or "unknown") + (" (modified)" if dirty else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite the golden file")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        lists = corpus_lists(Path(tmp))
    if args.write:
        digest, bits = report_bits(lists)
        golden = {"generator": "perfbench/inputs.py, workload corpus", "seed": SEED,
                  "commit": _commit(), "report_sha256": digest, "mu_psi_hex": bits}
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN}: {len(bits)} cells, report sha256 {digest}")
        return 0
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    runs = [("jobs=1", *report_bits(lists)), ("unpruned", None, unpruned_bits(lists))]
    with _compile_rule(-1):
        runs.append(("every plan interpreted", *report_bits(lists)))
    with _compile_rule(math.inf):
        digest, bits = report_bits(lists)
        runs.append((f"every plan compiled ({len(kernel._compiled)} scans)", digest, bits))
    for method in multiprocessing.get_all_start_methods():
        multiprocessing.set_start_method(method, force=True)
        runs.append((f"jobs=2 {method}", *report_bits(lists, jobs=2)))
    failed = 0
    for name, digest, bits in runs:
        moved = sorted(k for k in golden["mu_psi_hex"].keys() | bits.keys()
                       if golden["mu_psi_hex"].get(k, "absent") != bits.get(k, "absent"))
        same = not moved and digest in (None, golden["report_sha256"])
        failed += not same
        print(f"{name}: {'same bits' if same else 'DIFFERS'} ({len(bits)} cells"
              + (f"; moved: {', '.join(moved)}" if moved else "")
              + (f"; report sha256 {digest}" if digest and not same else "") + ")")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
