import types

import rtrees


def test_all_lists_public_objects_not_modules():
    assert len(set(rtrees.__all__)) == len(rtrees.__all__)
    for name in rtrees.__all__:
        obj = getattr(rtrees, name)
        assert not isinstance(obj, types.ModuleType), name
