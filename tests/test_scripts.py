"""The timing script's bindings resolve: it binds private library names
(census and coefficient tables) that no other test pins."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_layer_timings_bindings_resolve():
    path = ROOT / "scripts" / "layer_timings.py"
    spec = importlib.util.spec_from_file_location("layer_timings", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.CACHES
    for cache in module.CACHES:
        assert hasattr(cache, "cache_clear"), cache
    for name, (fn, what) in module.LAYERS.items():
        assert callable(fn) and what, name
    assert set(module.WARM) <= set(module.LAYERS)
    assert all(callable(build) for build in module.INPUTS)
