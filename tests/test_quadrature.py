"""Composite graded quadrature: exactness, symmetry, spike resolution."""

import math

import numpy as np
import pytest

from fresnet.quadrature import (
    DEFAULT_QUAD,
    MIN_PANEL_WIDTH,
    QuadratureConfig,
    build_rule,
    nodes_weights,
)


def integrate(f, cfg=DEFAULT_QUAD):
    x, w = nodes_weights(cfg)
    return w @ f(x)


def test_polynomial_exactness():
    assert integrate(lambda x: np.ones_like(x)) == pytest.approx(2.0, abs=1e-14)
    assert integrate(lambda x: x) == pytest.approx(0.0, abs=1e-15)
    assert integrate(lambda x: x**2) == pytest.approx(2 / 3, rel=1e-14)
    assert integrate(lambda x: x**9) == pytest.approx(0.0, abs=1e-15)


def test_oscillatory_integrand():
    # closed form: int_{-1}^{1} cos(50 x) dx = 2 sin(50) / 50
    got = integrate(lambda x: np.cos(50 * x))
    assert got == pytest.approx(2 * math.sin(50.0) / 50.0, abs=1e-13)


def test_high_mode_orthogonality():
    # int e^{-i 64 pi x} dx over [-1,1] is exactly 0
    x, w = nodes_weights(DEFAULT_QUAD)
    val = w @ np.exp(-1j * 64 * np.pi * x)
    assert abs(val) < 1e-12


@pytest.mark.parametrize("half, panels", [(0, 1), (1, 1), (3, 1), (4, 2), (512, 160), (1024, 320)])
def test_build_rule_sized_from_modes(half, panels):
    # 5K nodes per side: 10 per wavelength of mode K, in uniform 16-node panels
    assert build_rule(half) == QuadratureConfig(panels, 16, 1.0)
    x, w = nodes_weights(build_rule(half))
    assert x.size == 2 * 16 * panels
    assert np.all(np.diff(x) > 0) and np.sum(w) == pytest.approx(2.0, rel=1e-14)


def test_resolves_exponentially_narrow_spike():
    # Gaussian of width 1e-8 at the split point; exact integral sqrt(pi)*1e-8
    s = 1e-8
    got = integrate(lambda x: np.exp(-((x / s) ** 2)))
    assert got == pytest.approx(math.sqrt(math.pi) * s, rel=1e-6)


def test_nodes_symmetric_positive_weights_avoid_zero():
    x, w = nodes_weights(DEFAULT_QUAD)
    assert np.all(w > 0)
    assert np.all(x != 0.0)
    assert x == pytest.approx(-x[::-1])
    assert w == pytest.approx(w[::-1])
    assert w.sum() == pytest.approx(2.0, rel=1e-14)
    assert np.all(np.abs(x) <= 1.0)


def test_grading_reaches_minimum_width():
    x, _ = nodes_weights(DEFAULT_QUAD)
    assert np.min(np.abs(x)) < 10 * MIN_PANEL_WIDTH


def test_no_grading_config():
    cfg = QuadratureConfig(16, 8, 1.0)
    x, w = nodes_weights(cfg)
    assert len(x) == 2 * 16 * 8
    assert w.sum() == pytest.approx(2.0)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(0, 12, 0.7)
    with pytest.raises(ValueError):
        QuadratureConfig(8, 1, 0.7)
    with pytest.raises(ValueError):
        QuadratureConfig(8, 12, 0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(8, 12, 1.5)


@pytest.mark.parametrize("args", [
    (2.5, 12, 0.7), (64, 12.5, 0.7), (64.0, 12, 0.7), ("64", 12, 0.7),
    (True, 12, 0.7), (64, True, 0.7), (64, 12, True), (64, 12, False),
])
def test_config_refuses_non_integer_counts_by_name(args):
    with pytest.raises(ValueError, match="panels_per_side|nodes_per_panel|grading_ratio"):
        QuadratureConfig(*args)


def test_config_keeps_numpy_integers_as_int():
    cfg = QuadratureConfig(np.int64(16), np.int32(8), 0.5)
    assert type(cfg.panels_per_side) is int and type(cfg.nodes_per_panel) is int
    assert cfg == QuadratureConfig(16, 8, 0.5)
    assert nodes_weights(cfg) is nodes_weights(QuadratureConfig(16, 8, 0.5))
