"""The benchmark's spans (perfbench/spans.py) still find every function
they wrap. A target that no longer resolves would read 0 in each of its
per-layer metrics rather than fail, so a refactor that moves a spanned
function fails here instead."""

import importlib.util
import pathlib
import sys

SPANS = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"


def test_every_span_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file runs
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
