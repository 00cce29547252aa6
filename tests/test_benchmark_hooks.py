"""Every name the benchmark's tracer wraps still resolves in degpoly.

``perfbench/tracing.py`` replaces module attributes that callers look up
(``degpoly.cli.from_edge_list`` and the like) for the length of a traced
run.  A rename or an inlined call would make ``perfbench/run.py
--self-check`` fail; this test fails first.  The tracer's source is read and
executed here, never imported, so no bytecode is written beside it.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


_tracing = _load_tracing()
# The benchmark also calls the public enumerator directly, outside the spans.
HOOKS = [(module, attr) for module, attr, _ in _tracing.SPANNED + _tracing.COUNTED]
HOOKS.append(("degpoly.realizability", "iter_labeled_graphs"))


@pytest.mark.parametrize("module_name, attr", HOOKS, ids=[".".join(h) for h in HOOKS])
def test_hook_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr))
