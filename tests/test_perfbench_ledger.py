"""The benchmark ledger's targets resolve against the library.

``perfbench/ledger.py`` wraps library functions and methods by name.
A target that no longer resolves (a deleted engine, a renamed service
method) would otherwise only show up as a failed benchmark run. The
ledger file is loaded read-only, as the benchmark driver loads it, and
without writing a bytecode cache next to it.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from conftest import measured_rows

LEDGER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / \
    "ledger.py"


@pytest.fixture(scope="module")
def ledger_module():
    spec = importlib.util.spec_from_file_location("perfbench_ledger",
                                                  LEDGER_PATH)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_target_resolves_and_none_is_wrapped(ledger_module):
    assert len(ledger_module.TARGETS) == 25
    assert ledger_module.installed() == []


@pytest.mark.parametrize("method", ["submit", "diagnose_posterior"])
def test_one_service_request_books_its_rows_once(ledger_module,
                                                 warm_service, method):
    rows = measured_rows(warm_service, "rc_lowpass", 3, seed=5)
    # Any tier build stays outside the ledger.
    getattr(warm_service, method)("rc_lowpass", rows)
    ledger = ledger_module.Ledger()
    ledger.install()
    try:
        ledger.active = True
        # Looked up after install(), which wraps the class's method.
        answers = getattr(warm_service, method)("rc_lowpass", rows)
        ledger.active = False
    finally:
        ledger.remove()
    assert ledger_module.installed() == []
    assert len(answers) == 3
    assert ledger.counts["runtime.rows_classified"] == 3
    assert [span[0] for span in ledger.spans].count("runtime.submit") == 1
