"""The benchmark's trace hooks name callables that exist.

`perfbench/spans.py` wraps hopfbrick functions by module and attribute name;
a rename in the library would leave `perfbench/run.py --trace 1` without
them.  The file is read and executed here without importing it as a module,
so no bytecode is written next to it.
"""

import inspect
import runpy
from importlib import import_module
from pathlib import Path

import hopfbrick.cli  # noqa: F401  (loads every layer module)
from hopfbrick import mpo

SPANS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"),
                       run_name="perfbench_spans")["SPANS"]


def test_every_span_resolves_on_hopfbrick():
    assert SPANS
    for mod_name, attr, name in SPANS:
        obj = import_module(f"hopfbrick.{mod_name}")
        for part in attr.split("."):
            assert hasattr(obj, part), (mod_name, attr, name)
            obj = getattr(obj, part)
        assert callable(obj), (mod_name, attr, name)


def test_trace_channel_hook_reads_the_window():
    # the "mpo.trace_channel" hook reads the window as the second argument
    assert list(inspect.signature(mpo._st_value).parameters)[:2] == ["ts", "window"]
