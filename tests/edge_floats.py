"""A seeded set of about 300,000 finite float64 values that are hard to
write with 17 significant digits, for ``tests/test_serialize.py`` and the
``edges`` line of ``tools/bitcheck.py``.

It needs numpy only, so ``tools/bitcheck.py`` takes it from its own tree
when the tree it checks has no such module, and prints the same ``edges``
line for any commit."""

import numpy as np


def edge_floats(seed: int = 5) -> np.ndarray:
    """Random finite bit patterns (with subnormals and huge values),
    normal values across 10^+-30, 10^k and its +-1-ulp neighbours for
    k = -300..300, whole numbers around 2^53, 1e16 and 1e17 and exact ties
    m/16 with odd 15-digit m, all with random signs, and +-0, +-5e-324 and
    +-max."""
    rng = np.random.default_rng(seed)
    patterns = rng.integers(-2 ** 63, 2 ** 63, 240_000, dtype=np.int64).view(float)
    # an exponent field of 0 (subnormal) and of 2046 (the largest finite)
    mantissas = rng.integers(0, 2 ** 52, 4000, dtype=np.int64)
    mantissas[2000:] |= 2046 << 52
    normal = rng.uniform(1, 10, 50_000) * 10.0 ** rng.integers(-30, 31, 50_000)
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    steps = np.arange(-300, 300)
    around = [2.0 ** 53 + steps, 1e16 + 2 * steps, 1e17 + 16 * steps]
    # m/16 = 625 m / 10^4 with 625 m >= 10^17 odd has 18 significant
    # digits, the last a 5: a tie at 17 digits
    ties = (rng.integers(16 * 10 ** 13, 10 ** 15, 5000) | 1) / 16
    extremes = [0.0, 5e-324, np.finfo(float).max]
    values = np.concatenate([
        patterns[np.isfinite(patterns)], mantissas.view(float), normal,
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), *around, ties,
    ])
    signs = np.where(rng.random(values.size) < 0.5, -1.0, 1.0)
    return np.concatenate([values * signs, extremes, np.negative(extremes)])
