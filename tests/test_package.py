"""The package surface: every module's public names, re-exported once."""

import morsekit
from morsekit import coherent, errors, specfun, spectrum, states


def test_all_names_resolve_once():
    assert len(morsekit.__all__) == len(set(morsekit.__all__))
    for name in morsekit.__all__:
        assert getattr(morsekit, name) is not None, name


def test_all_is_the_union_of_the_module_lists():
    modules = (errors, specfun, spectrum, states, coherent)
    expected = {name for module in modules for name in module.__all__} | {"__version__"}
    assert set(morsekit.__all__) == expected
    assert "ModeTables" in morsekit.__all__
    for module in modules:
        for name in module.__all__:
            assert getattr(morsekit, name) is getattr(module, name)
