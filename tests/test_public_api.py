"""Every module-level function and class in ``src/heckealg``, and every
field of its ``@dataclass`` and ``NamedTuple`` classes, has a caller
outside ``tests/``.

The walk reads ``src/heckealg/*.py`` (not ``__init__.py``, whose
re-exports call nothing), ``bench/*.py`` and ``demos/*.py``.  A name is
used when a ``Name``, an ``Attribute``, an import alias or a keyword
spells it outside the body that defines it, and a field when one spells
its name anywhere but in the fields that declare it (a ``Name`` reads
the fields of an unpacked ``NamedTuple``).  A name only tests reach
belongs in ``tests/oracle_helpers.py``, or nowhere if its callers could
call the library directly; a field only tests read goes.
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
        elif isinstance(n, ast.keyword) and n.arg:
            found[n.arg] += 1
    return found


def _is_record(node):
    """``node`` is a ``@dataclass`` (maybe called) or a ``NamedTuple``."""
    marks = [getattr(d, "func", d) for d in node.decorator_list] + node.bases
    return any(isinstance(m, ast.Name) and m.id in ("dataclass", "NamedTuple")
               for m in marks)


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
    fields = [("%s.%s.%s" % (path.stem, node.name, f.target.id), f.target.id)
              for path, tree in zip(sources, trees)
              for node in tree.body
              if isinstance(node, ast.ClassDef) and _is_record(node)
              for f in node.body if isinstance(f, ast.AnnAssign)]
    defined = Counter(name for _, name in fields)
    unused += [label for label, name in fields if spelt[name] == defined[name]]
    assert unused == []
