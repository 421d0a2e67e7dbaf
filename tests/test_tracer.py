import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_wraps_every_target_and_puts_the_originals_back(monkeypatch):
    # the benchmark wraps ssrlab functions by name, in their home module and
    # in each module that imported them, so a src/ change that renames one
    # or drops such an import breaks the benchmark; this fails first
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are built
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    targets = [(mod, attr, getattr(home, attr))
               for _, home, attr, others, _, _ in tracer.TARGETS
               for mod in (home, *others)]
    spans = tracer.Tracer("tier-1")
    try:
        spans.install()
        wrapped = [getattr(mod, attr) for mod, attr, _ in targets]
    finally:
        spans.uninstall()
    assert len(targets) == 46
    assert all(fn is not original and fn.__wrapped__ is original
               for fn, (_, _, original) in zip(wrapped, targets))
    assert all(getattr(mod, attr) is original
               for mod, attr, original in targets)
