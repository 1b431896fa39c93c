"""Every module-level function and class in ``src/heckealg``, every
field of its ``@dataclass`` and ``NamedTuple`` classes, and every method
and property of its classes has a caller outside ``tests/``.

The walk reads ``src/heckealg/*.py`` (not ``__init__.py``, whose
re-exports call nothing), ``bench/*.py`` and ``demos/*.py``.  A name is
used when a ``Name``, an ``Attribute``, an import alias or a keyword
spells it outside the body that defines it, and a field when one spells
its name anywhere but in the fields that declare it (a ``Name`` reads
the fields of an unpacked ``NamedTuple``).  A name only tests reach
belongs in ``tests/oracle_helpers.py``, or nowhere if its callers could
call the library directly; a field only tests read goes.  A method
(dunders aside, which Python calls) follows the rule of a name, and a
string constant in ``bench/*.py`` counts as a spelling of it too, since
``bench/tracing.py`` names the methods it wraps by string.

The last test is a ratchet: ``src/heckealg/*.py`` does not grow past the
line count recorded in ``tests/data/src_lines.json``.
"""

import ast
import json
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


def _parsed():
    """The source paths, then (path, tree) of every file the walk reads."""
    sources = [p for p in sorted((ROOT / "src" / "heckealg").glob("*.py"))
               if p.name != "__init__.py"]
    paths = sources + sorted((ROOT / "bench").glob("*.py")) + \
        sorted((ROOT / "demos").glob("*.py"))
    return sources, [(p, ast.parse(p.read_text(), filename=str(p)))
                     for p in paths]


def test_every_src_definition_has_a_non_test_caller():
    sources, parsed = _parsed()
    trees = [tree for _, tree in parsed]
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


def test_every_src_method_has_a_non_test_caller():
    sources, parsed = _parsed()
    spelt = sum((_names(tree) for _, tree in parsed), Counter())
    spelt.update(n.value for path, tree in parsed
                 if path.parent.name == "bench" for n in ast.walk(tree)
                 if isinstance(n, ast.Constant) and isinstance(n.value, str))
    unused = ["%s.%s" % (node.name, f.name)
              for _, tree in parsed[:len(sources)]
              for node in tree.body if isinstance(node, ast.ClassDef)
              for f in node.body if isinstance(f, ast.FunctionDef)
              and not (f.name.startswith("__") and f.name.endswith("__"))
              and spelt[f.name] == _names(f)[f.name]]
    assert unused == []


def test_src_stays_within_its_recorded_line_count():
    """``src/heckealg/*.py`` holds at most the lines recorded in
    ``tests/data/src_lines.json``; a change that raises the record says
    why in ``CHANGES.md``."""
    (pattern, limit), = json.loads(
        (ROOT / "tests" / "data" / "src_lines.json").read_text()).items()
    lines = sum(len(p.read_text().splitlines()) for p in ROOT.glob(pattern))
    assert lines <= limit, "%s has %d lines, %d recorded" % (
        pattern, lines, limit)
