"""The DP kernel's work on the benchmark's cell1000 workload, seed 1: one
pruned ``align_lists`` over its two 1000-word lists, built by
``perfbench/inputs.py`` (loaded through ``scripts/corpus_exactness.py``).
The four ``DpStats`` counters and μΨ are pinned, so a change that moves how
many cells the kernel computes, or which candidates it starts, abandons or
rules out, shows here. A change that moves them on
purpose rewrites these numbers and says so in CHANGES.md."""

import importlib.util
from pathlib import Path

from pedlex import DpStats, SubstitutionCosts, align_lists, default_inventory, read_wordlist

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("corpus_exactness",
                                              ROOT / "scripts" / "corpus_exactness.py")
corpus_exactness = importlib.util.module_from_spec(spec)
spec.loader.exec_module(corpus_exactness)
inputs = corpus_exactness._inputs_module()


def test_cell1000_seed1_dp_counters_and_mu_psi(tmp_path):
    generated = inputs.generate("cell1000", 1, tmp_path, {})
    a, b = (read_wordlist(tmp_path / generated.manifest["lists"][lang]) for lang in ("aa", "bb"))
    stats = DpStats()
    cell = align_lists(a, b, default_inventory(), costs=SubstitutionCosts(), stats=stats)
    assert (stats.cells, stats.dps, stats.abandoned, stats.prefiltered) == (
        2_708_333, 338_761, 334_239, 161_739)
    assert cell.mu_psi.hex() == "0x1.5ad04a1ec3d70p-2"
