"""The package layer: each public name has one import path, its module,
each module's __all__ names what the module defines, once, and the package
imports only the standard library and numpy."""

import ast
import importlib
import sys
import types
from pathlib import Path

import afmpc

MODULES = {"plant", "dense_linalg", "fuzzy", "nlp_optimizer", "mpc", "harness"}


def test_package_re_exports_no_name():
    public = {name for name in vars(afmpc) if not name.startswith("_")}
    # an imported afmpc.cli adds itself as an attribute, so any module passes
    for name in public:
        value = getattr(afmpc, name)
        assert isinstance(value, types.ModuleType) and value.__name__ == f"afmpc.{name}", name
    assert MODULES <= public
    assert isinstance(afmpc.__version__, str)


def test_package_imports_only_the_standard_library_and_numpy():
    sources = sorted(Path(afmpc.__file__).parent.glob("*.py"))
    assert {path.stem for path in sources} >= MODULES
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "numpy", f"{path.name} imports {name}"


def test_every_module_defines_each_name_of_its_all_once():
    for name in sorted(MODULES):
        module = importlib.import_module(f"afmpc.{name}")
        names = module.__all__
        assert len(set(names)) == len(names), f"afmpc.{name}.__all__ repeats a name"
        for public in names:
            assert hasattr(module, public), f"afmpc.{name}.__all__ names {public}, which it does not define"
