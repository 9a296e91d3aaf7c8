import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("check_bench", ROOT / "scripts" / "check_bench.py")
check_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_bench)


def test_committed_records_are_complete():
    assert sorted(ROOT.glob("BENCH_*.json"))
    assert check_bench.main([]) == 0


def test_a_record_without_a_median_or_machine_is_refused(tmp_path):
    record = json.loads(sorted(ROOT.glob("BENCH_*.json"))[0].read_text(encoding="utf-8"))
    entry = record["entries"][0]
    del entry["sides"]["change"]["wall_s"]["median"]
    del entry["runs"][0]["machine"]["nproc"]
    found = list(check_bench.problems(record, ["wall_s"]))
    assert any("no change median of wall_s" in p for p in found)
    assert any("machine.nproc" in p for p in found)
    path = tmp_path / "BENCH_broken.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    assert check_bench.main([str(path)]) == 1
