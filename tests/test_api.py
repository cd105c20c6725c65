"""The package's public list matches what the package binds."""

import types

import chibound


def test_all_lists_every_public_name_once():
    listed = chibound.__all__
    assert len(listed) == len(set(listed))
    bound = {
        name
        for name, value in vars(chibound).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(listed) == bound
