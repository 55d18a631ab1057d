"""Helpers for parameter trees: small dataclasses holding numpy arrays.

Three things need to see every trainable array exactly once: the tape (as
leaves), the optimizer (flat name -> array dicts), and the checkpoint
serializer. These walkers keep that logic in one place instead of three
hand-maintained copies per parameter type.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .autodiff import Tape, Tensor


def _is_dataclass_instance(obj) -> bool:
    return dataclasses.is_dataclass(obj) and not isinstance(obj, type)


def _entries(value, name, parent, key):
    """Yield (name, parent, key, leaf) for every array leaf under ``value``."""
    if isinstance(value, (np.ndarray, Tensor)):
        yield name, parent, key, value
    elif _is_dataclass_instance(value):
        for f in dataclasses.fields(value):
            child = f"{name}.{f.name}" if name else f.name
            yield from _entries(getattr(value, f.name), child, value, f.name)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _entries(v, f"{name}.{i}", value, i)
    # None and plain scalars carry no trainable state


def lift_params(obj, tape: Tape | None):
    """Rebuild a parameter tree with arrays wrapped as tensors.

    With a tape, arrays become leaves registered on it (one node per
    parameter, shared by every later use in the forward pass). Without one,
    arrays become constants and existing tensors pass through, so the same
    forward code runs in no-gradient mode.
    """
    if isinstance(obj, np.ndarray):
        return tape.leaf(obj) if tape is not None else Tensor(obj)
    if isinstance(obj, Tensor):
        return tape.leaf(obj.values) if tape is not None else obj
    if _is_dataclass_instance(obj):
        kwargs = {
            f.name: lift_params(getattr(obj, f.name), tape)
            for f in dataclasses.fields(obj)
        }
        return type(obj)(**kwargs)
    if isinstance(obj, list):
        return [lift_params(v, tape) for v in obj]
    return obj


def named_arrays(params, prefix: str = "") -> dict[str, np.ndarray]:
    """Flatten a parameter tree to an ordered ``name -> ndarray`` dict."""
    out: dict[str, np.ndarray] = {}
    for name, _, _, leaf in _entries(params, prefix, None, None):
        out[name] = leaf.values if isinstance(leaf, Tensor) else leaf
    return out


def named_leaves(params, prefix: str = "") -> dict[str, Tensor]:
    """Like :func:`named_arrays` but for a lifted (tensor-valued) tree."""
    out: dict[str, Tensor] = {}
    for name, _, _, leaf in _entries(params, prefix, None, None):
        if not isinstance(leaf, Tensor):
            raise ValueError(f"parameter {name} is not lifted")
        out[name] = leaf
    return out


def assign_arrays(params, arrays: dict[str, np.ndarray]) -> None:
    """Write flat arrays back into a parameter tree, validating shapes.

    Every leaf must be covered and no extra names may remain; a mismatch in
    either direction or in any shape raises ``ValueError``.
    """
    remaining = dict(arrays)
    for name, parent, key, leaf in _entries(params, "", None, None):
        if name not in remaining:
            raise ValueError(f"missing parameter {name}")
        new = np.asarray(remaining.pop(name), dtype=np.float64)
        old_shape = leaf.shape if isinstance(leaf, np.ndarray) else leaf.values.shape
        if new.shape != old_shape:
            raise ValueError(
                f"shape mismatch for {name}: checkpoint {new.shape} vs model {old_shape}"
            )
        if isinstance(parent, list):
            parent[key] = new
        else:
            setattr(parent, key, new)
    if remaining:
        raise ValueError(f"unexpected parameters: {sorted(remaining)[:5]}")
