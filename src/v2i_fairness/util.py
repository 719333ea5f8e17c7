"""Small shared helpers."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write text via a sibling temp file + rename so readers never see a
    half-written artifact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
    return path


def as_rng(seed: np.random.Generator | int | None) -> np.random.Generator:
    """Coerce a seed or generator into a numpy Generator.

    Passing an existing Generator returns it unchanged so callers can share
    one RNG stream; anything else is fed to ``np.random.default_rng``.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
