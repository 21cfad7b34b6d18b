"""Import adapter for the rfdna package.

On Python >= 3.11, ``import rfdna`` can fail while the harness module
builds ``ExperimentConfig``: its ``channel_profile`` default is a shared
``ChannelProfile`` instance, and a non-frozen dataclass is unhashable, so
the dataclass machinery rejects it as a mutable default.  Only when that
exact error occurs, the adapter loads ``rfdna.channel`` on its own, gives
``ChannelProfile`` identity hashing (no code path hashes a profile) and
imports the unmodified package again.  When the plain import succeeds the
adapter does nothing.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
import types

_MUTABLE_PROFILE_DEFAULT = "mutable default <class '{package}.channel.ChannelProfile'>"


def _forget(package: str) -> None:
    for name in [n for n in sys.modules if n == package or n.startswith(package + ".")]:
        del sys.modules[name]


def import_package(package: str = "rfdna"):
    """Import ``package``; returns (module, adapter_engaged)."""
    try:
        return importlib.import_module(package), False
    except ValueError as exc:
        if _MUTABLE_PROFILE_DEFAULT.format(package=package) not in str(exc):
            raise
    _forget(package)
    spec = importlib.util.find_spec(package)
    # a bare package object lets rfdna.channel load without running __init__
    stub = types.ModuleType(package)
    stub.__path__ = list(spec.submodule_search_locations)
    sys.modules[package] = stub
    try:
        channel = importlib.import_module(package + ".channel")
    finally:
        del sys.modules[package]
    channel.ChannelProfile.__hash__ = object.__hash__
    module = importlib.import_module(package)
    # submodules found already loaded are not bound on the new package object
    for name, submodule in list(sys.modules.items()):
        parent, _, child = name.rpartition(".")
        if parent == package:
            setattr(module, child, submodule)
    return module, True
