"""Test-only: how the bundled ``assets/synthetic_2000.csv`` was made.

``make_synthetic(rows=2000, seed=7)`` reproduces the asset byte for byte
(``tests/test_data.py``); the tests also draw smaller series from it.
"""

from __future__ import annotations

import numpy as np


def make_synthetic(rows: int = 2000, seed: int = 7) -> str:
    """Deterministic synthetic multivariate series as CSV text.

    The target mixes two periodic components and a slow drift plus mild noise,
    so a short window carries enough signal for single-step forecasting.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(rows, dtype=np.float64)
    daily = np.sin(2 * np.pi * t / 48.0)
    weekly = np.cos(2 * np.pi * t / 336.0)
    drift = 0.0005 * t
    noise = rng.normal(0, 0.05, size=rows)
    target = 10.0 + 3.0 * daily + 1.5 * weekly + drift + noise
    f0 = daily + rng.normal(0, 0.02, size=rows)
    f1 = weekly + rng.normal(0, 0.02, size=rows)
    lines = ["f0,f1,target"]
    for i in range(rows):
        lines.append(f"{f0[i]:.6f},{f1[i]:.6f},{target[i]:.6f}")
    return "\n".join(lines) + "\n"
