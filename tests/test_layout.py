"""``src/relcap`` holds no code that only tests call: each module-level
function and class is referenced, as a name or an attribute, by the program
itself (``src/relcap``, ``scripts/`` and the ``perfbench/`` harness, its
tests left out). Test oracles and fixture writers live in ``conftest.py``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "relcap"


def test_every_module_level_definition_has_a_program_caller():
    program = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
               *(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))]
    referenced = {node.id if isinstance(node, ast.Name) else node.attr
                  for path in program for node in ast.walk(ast.parse(path.read_text("utf-8")))
                  if isinstance(node, (ast.Name, ast.Attribute))}
    unused = [f"{path.name}: {node.name}" for path in sorted(PACKAGE.glob("*.py"))
              for node in ast.parse(path.read_text("utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name not in referenced]
    assert not unused, f"defined in src/relcap but called only by tests: {unused}"
