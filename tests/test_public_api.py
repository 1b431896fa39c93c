"""Every module-level function and class in ``src/heckealg`` has a caller
outside ``tests/``.

The walk reads ``src/heckealg/*.py`` (not ``__init__.py``, whose
re-exports call nothing), ``bench/*.py`` and ``demos/*.py``.  A name is
used when a ``Name``, an ``Attribute`` or an import alias spells it
outside the body that defines it.  A name only tests reach belongs in
``tests/oracle_helpers.py``, or nowhere if its callers could call the
library directly.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _names(node):
    """How often each name is spelt under ``node``."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.name.rpartition(".")[2]] += 1
    return found


def test_every_src_definition_has_a_non_test_caller():
    sources = [p for p in sorted((ROOT / "src" / "heckealg").glob("*.py"))
               if p.name != "__init__.py"]
    paths = sources + sorted((ROOT / "bench").glob("*.py")) + \
        sorted((ROOT / "demos").glob("*.py"))
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in paths]
    spelt = sum(map(_names, trees), Counter())
    unused = ["%s.%s" % (path.stem, node.name)
              for path, tree in zip(sources, trees)
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and spelt[node.name] == _names(node)[node.name]]
    assert unused == []
