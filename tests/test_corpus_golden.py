"""μΨ bits at corpus scale: seed 1 of the benchmark's corpus workload, run
through extract, g2p and ``build_matrix(jobs=1)``, against the golden file
that ``scripts/corpus_exactness.py --write`` wrote. That script also checks
the variants this test leaves out for time: unpruned, every plan
interpreted or compiled, and two jobs under each start method."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("corpus_exactness",
                                              ROOT / "scripts" / "corpus_exactness.py")
corpus_exactness = importlib.util.module_from_spec(spec)
spec.loader.exec_module(corpus_exactness)


def test_corpus_seed1_mu_psi_bits_and_report_match_the_golden_file(tmp_path):
    golden = json.loads(corpus_exactness.GOLDEN.read_text(encoding="utf-8"))
    assert golden["seed"] == 1 and golden["commit"]
    lists = corpus_exactness.corpus_lists(tmp_path, golden["seed"])
    digest, bits = corpus_exactness.report_bits(lists, jobs=1)
    assert len(bits) == 150
    assert bits == golden["mu_psi_hex"]
    assert digest == golden["report_sha256"]
    assert digest.startswith("575bb3151acd9852")
