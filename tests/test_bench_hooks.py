"""The benchmark's span hooks still find the names they wrap.

``perfbench/spans.py`` replaces program functions by attribute name at
the import sites the program calls through.  A refactor that moves one
of those names breaks the traced benchmark run, so these tests check
every wrapped name and one traced natural-system build.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from spans import WRAPPED, Tracer  # noqa: E402

from ditop.cli import main  # noqa: E402


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for owner, attr, _ in WRAPPED],
    ids=[name for _, _, name in WRAPPED],
)
def test_wrapped_name_is_defined_at_its_site(owner, attr):
    assert attr in owner.__dict__


def test_traced_natsys_records_map_spans(capsys):
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.run_op(0, lambda: main(["natsys", "FIX-A", "--val", "hom:1"]))
    finally:
        tracer.uninstall()
    assert code == 0 and capsys.readouterr().out
    counts = tracer.span_counts({0})
    assert counts["values.map"] > 0
    assert counts["pathspace.extend_map"] > 0
