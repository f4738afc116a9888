"""The package names the benchmark's tracer patches and its driver reads still resolve.

``perfbench/tracing.py`` wraps functions by module and attribute name, and
``perfbench/run.py`` clears the oracle cache and swaps the replication pool
on every op; a rename in the package would otherwise break only the traced
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


@pytest.mark.parametrize("module, attr", [(module, attr) for module, attr, _ in load_wrapped()])
def test_traced_name_resolves_to_a_function(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_names_the_driver_reads_exist():
    import first.cli
    import first.report
    import first.synthetic

    assert callable(first.synthetic._cached_restricted.cache_clear)
    assert callable(first.report.ProcessPoolExecutor)
    assert callable(first.report.kendall_tau_b)
    assert callable(first.cli.main)
