import ast
import sys
import types
from pathlib import Path

import rtrees


def test_all_lists_public_objects_not_modules():
    assert len(set(rtrees.__all__)) == len(rtrees.__all__)
    for name in rtrees.__all__:
        obj = getattr(rtrees, name)
        assert not isinstance(obj, types.ModuleType), name


def test_package_imports_only_the_standard_library():
    paths = sorted(Path(rtrees.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
