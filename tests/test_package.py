"""The package namespace: lazily resolved exports of the module names."""

import importlib

import sincstab

MODULES = ("bounds", "framekit", "grids", "reconstruct", "specfun")


def test_all_lists_version_then_each_module_in_order():
    expected = ["__version__"]
    for name in MODULES:
        expected += importlib.import_module(f"sincstab.{name}").__all__
    assert sincstab.__all__ == expected


def test_exports_are_the_module_objects():
    for name in MODULES:
        module = importlib.import_module(f"sincstab.{name}")
        assert getattr(sincstab, name) is module
        for export in module.__all__:
            assert getattr(sincstab, export) is getattr(module, export), export


def test_star_import_binds_every_export():
    namespace = {}
    exec("from sincstab import *", namespace)
    assert set(sincstab.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(sincstab, name) for name in sincstab.__all__)
    assert set(sincstab.__all__) <= set(dir(sincstab))


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(sincstab, "no_such_name")
