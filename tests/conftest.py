import multiprocessing
from pathlib import Path

import pytest

from pedlex import DistanceConfig, SubstitutionCosts, default_inventory, default_manner_table

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def inv():
    return default_inventory()


@pytest.fixture(scope="session")
def xi():
    return default_manner_table()


@pytest.fixture(scope="session")
def cfg():
    return DistanceConfig()


@pytest.fixture()
def costs(cfg, xi):
    return SubstitutionCosts(cfg, xi)


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def forked_workers():
    """Pool workers fork from the test's process, so a monkeypatch reaches
    them, whatever the default start method; it is restored afterwards.
    Skipped where the platform cannot fork."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("pool workers cannot fork on this platform")
    saved = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("fork", force=True)
    yield
    multiprocessing.set_start_method(saved, force=True)


CRITERIA = {
    1: "vowel pair distances match the published values",
    2: "consonant pair distances match or deviate within documented bounds",
    3: "whole-word distances match or deviate within documented bounds",
    4: "DP distance equals the exhaustive-recursion oracle (1000 pairs, <10s)",
    5: "10000-pair property sweep (symmetry, bounds, pruning exactness)",
    6: "self-similarity zero, min-size skip, matrix determinism across jobs",
    7: "Urdu-Hindi pronouns closer than Urdu-Arabic on desk fixtures",
    8: "1000x1000 similarity cell under 30s with pruning; pruning saves work",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid:
                num = int(nodeid.split("test_criterion_")[1].split("_")[0])
                ok = outcome == "passed" and results.get(num, True)
                results[num] = ok
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(results):
        status = "PASS" if results[num] else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {status} - {CRITERIA[num]}")
