"""Every module of the package uses each name it imports, and numpy is its one dependency."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import smallwav

PACKAGE = Path(smallwav.__file__).parent


def unused_imports(path: Path) -> list:
    """"line name" for each name an import statement binds and the module never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line} {name}" for name, line in sorted(bound.items()) if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    found = [
        f"{path.name}:{entry}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for entry in unused_imports(path)
    ]
    assert found == []


def test_the_package_and_its_command_line_never_import_scipy():
    probe = (
        "import sys, smallwav, smallwav.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
