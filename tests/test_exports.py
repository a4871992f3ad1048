"""The package's export list against the names the package binds."""

import types

import polydecomp


def test_every_exported_name_resolves():
    missing = [name for name in polydecomp.__all__ if not hasattr(polydecomp, name)]
    assert missing == []


def test_every_public_name_is_exported_once():
    # submodules and the dunder __version__ are bound but not exported
    public = {
        name
        for name, value in vars(polydecomp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(polydecomp.__all__)) == len(polydecomp.__all__)
    assert set(polydecomp.__all__) == public
