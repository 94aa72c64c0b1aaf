"""No module under ``src/repro`` imports a name at module level that it
never uses.

The check reads each module's syntax tree with the standard library's
``ast`` only: a name bound by a top-level ``import`` or ``from ... import``
is used when it appears as a name anywhere in the module or is listed in
``__all__``. Package ``__init__.py`` files re-export names on purpose and
are exempt, as are ``from __future__`` imports.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "repro")


def _modules():
    paths = []
    for dirpath, _, files in os.walk(SRC):
        paths += [os.path.join(dirpath, name) for name in files
                  if name.endswith(".py") and name != "__init__.py"]
    return sorted(os.path.relpath(path, SRC) for path in paths)


def unused_imports(source):
    """``(line, name)`` of every module-level import ``source`` never
    uses."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(node.lineno, (alias.asname or alias.name).split(".")[0])
                      for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in used]


def test_the_check_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import List, Optional\n"
              "from json import dumps as render\n"
              "__all__ = ['render']\n"
              "def f(x: List[int]):\n"
              "    return os.path.join(x)\n")
    assert unused_imports(source) == [(3, "Optional")]


def test_no_unused_module_level_imports():
    found = []
    for module in _modules():
        with open(os.path.join(SRC, module)) as handle:
            found += ["%s:%d %s" % (module, line, name)
                      for line, name in unused_imports(handle.read())]
    assert found == []
