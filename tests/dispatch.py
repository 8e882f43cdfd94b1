"""Frozen output hashes keyed by the numpy kernels that made them.

numpy picks a kernel for each ufunc at import from the CPU's features (its
dispatch target). The float64 tan, log1p, expm1 and exp kernels of
different targets can differ in the last bit of a result, so a hash of
bytes that pass through them holds for one target only. Tests keep one
hash per target and check theirs here.
"""

import hashlib

import pytest
from numpy.lib.introspect import opt_func_info


def assert_frozen(blob: bytes, hashes: dict, *ufuncs: str) -> None:
    """blob's sha256 is the one in ``hashes`` under the float64 dispatch
    target of each named ufunc here, a key like 'tan:X86_V4'; a target
    with no hash fails, naming it."""
    info = opt_func_info(func_name="|".join(f"^{name}$" for name in ufuncs))
    key = " ".join(f"{name}:{info[name]['dd']['current']}" for name in ufuncs)
    digest = hashlib.sha256(blob).hexdigest()
    if key not in hashes:
        pytest.fail(f"no frozen hash for dispatch target {key!r} (here {digest}); known: {sorted(hashes)}")
    assert digest == hashes[key], key
