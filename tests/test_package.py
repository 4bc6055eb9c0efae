import types

import circletau


def test_all_names_resolve_to_public_objects():
    assert len(set(circletau.__all__)) == len(circletau.__all__)
    for name in circletau.__all__:
        obj = getattr(circletau, name)
        assert not isinstance(obj, types.ModuleType), name

