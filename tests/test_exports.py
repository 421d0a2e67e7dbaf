import ast
from pathlib import Path

import ssrlab


def test_all_names_resolve_once():
    # a stale entry would make `from ssrlab import *` raise AttributeError
    names = ssrlab.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(ssrlab, n)] == []
    namespace = {}
    exec("from ssrlab import *", namespace)
    assert set(names) <= set(namespace)


def unused_imports(path):
    """(line, name) of each name ``path`` imports and never uses. A name in
    ``__all__`` counts as used; ``from __future__`` and lines marked
    ``# noqa: F401`` are skipped."""
    source = path.read_text()
    lines = source.splitlines()
    imported, used = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
        elif (isinstance(node, (ast.Import, ast.ImportFrom))
              and getattr(node, "module", None) != "__future__"
              and "# noqa: F401" not in lines[node.lineno - 1]):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    return [(line, name) for name, line in imported.items() if name not in used]


def test_every_import_in_src_is_used():
    src = Path(ssrlab.__file__).parent
    unused = {p.name: unused_imports(p) for p in sorted(src.glob("*.py"))}
    assert {name: found for name, found in unused.items() if found} == {}
