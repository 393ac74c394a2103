"""The package layer: each public name has one import path, its module."""

import types

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
