"""Self-test of the benchmark harness: python3 -m pytest perfbench/tests -q"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
# mu_psi of cell1000 at seed 1, the cell of scripts/benchmark_pruning.py
CELL1000_SEED1 = 0.338685186507937


@pytest.fixture(scope="module")
def tables():
    pedlex = run.import_pedlex()
    from pedlex import defaults

    return {
        s: pedlex.load_g2p_table(defaults.default_g2p_table_path(s))
        for s in ("perso-arabic", "devanagari")
    }


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", ["corpus", "cell1000", "ingest"])
def test_generator_is_deterministic_per_seed(workload, tables, tmp_path):
    first = _files(inputs.generate(workload, 3, tmp_path / "a", tables).directory)
    again = _files(inputs.generate(workload, 3, tmp_path / "b", tables).directory)
    other = _files(inputs.generate(workload, 4, tmp_path / "c", tables).directory)
    assert first == again
    assert first.keys() == other.keys()
    data = [name for name in first if name != "manifest.json"]
    assert all(first[name] != other[name] for name in data)


def test_metric_names_and_units_are_valid():
    spec = json.loads(run.SPEC.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[kind]]
        for metric in spec[kind]:
            assert UNIT.fullmatch(metric["unit"]), metric
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_emitted_metrics_are_the_declared_ones():
    spec = json.loads(run.SPEC.read_text(encoding="utf-8"))
    rep = {"wall": 1.0, "cpu": 1.0, "work": 1.0}
    assert set(run.end_to_end([rep], [0.1], 10.0)) == {m["name"] for m in spec["end_to_end"]}
    empty = {"busy": {}, "calls": {}, "cells": [], "g2p_kept": 0, "g2p_attempted": 0,
             "dp": dict.fromkeys(("dps", "cells", "abandoned", "prefiltered"), 0)}
    set_by_traced_run = {"similarity.pool_efficiency", "similarity.pool_bytes_per_cell",
                         "ped.dp_cells_unpruned", "trace.overhead_s"}
    layers = set(worker.layer_values(empty, 0)) | set_by_traced_run
    assert layers == {m["name"] for m in spec["per_layer"]}


def _fake_worker(mu_psi):
    def run_worker(workload, work, seconds, trace, jobs):
        rep = {"wall": 1.0, "cpu": 1.0, "work": 1.0, "stages": {"align": 1.0},
               "output": mu_psi.hex()}
        return {"reps": [rep], "peak_rss_mb": 10.0}

    return run_worker


@pytest.mark.parametrize("mu_psi, code", [(CELL1000_SEED1, 0), (0.5, 1)])
def test_output_check_decides_the_exit_code(mu_psi, code, monkeypatch, capsys):
    monkeypatch.setattr(run, "measure_setup", lambda log: [0.1])
    monkeypatch.setattr(run, "run_worker", _fake_worker(mu_psi))
    assert run.main(["--workload", "cell1000", "--seed", "1", "--seconds", "1"]) == code
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is (code == 0)
    assert result["failed"] == code


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.SPEC, tmp_path / run.SPEC.name)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
