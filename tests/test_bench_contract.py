"""The names bench/layers.py wraps from outside must exist on the package.

The benchmark's traced run patches these attributes by path; a rename in
the package would otherwise surface only as a failing benchmark.
"""

import importlib.util
import inspect
from pathlib import Path

import dclwe

LAYERS_PATH = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_path_resolves():
    layers = _layers()
    for path, name in layers.TARGETS:
        module_name, attr_path = path.split(".", 1)
        assert name.split(".", 1)[0] in layers.LAYERS, name
        owner = getattr(dclwe, module_name)
        owner_name, _, attr = attr_path.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name)
            assert attr in vars(owner), path
        else:
            assert callable(getattr(owner, attr)), path


def test_callback_arguments_keep_their_position():
    for path, (index, name) in _layers().CALLBACK_ARGS.items():
        module_name, attr = path.split(".", 1)
        params = list(inspect.signature(getattr(getattr(dclwe, module_name), attr)).parameters)
        assert params[index] == name, path
