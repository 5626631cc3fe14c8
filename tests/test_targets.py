"""Target registry: pointwise values and jet derivatives vs finite differences."""

import math

import numpy as np
import pytest

from fresnet.jets import MAX_ORDER
from fresnet.targets import (
    PiecewiseTarget,
    UnknownTargetError,
    UnsupportedOrderError,
    register_target,
    registered_names,
    target_lookup,
)


def richardson_deriv(f, x, s, h=1e-2):
    """One-sided-safe central-difference oracle with Richardson step halving."""

    def central(h):
        stencils = {
            0: ([0], [1.0]),
            1: ([-2, -1, 1, 2], [1 / 12, -8 / 12, 8 / 12, -1 / 12]),
            2: ([-2, -1, 0, 1, 2], [-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12]),
            3: ([-2, -1, 1, 2], [-1 / 2, 1, -1, 1 / 2]),
            4: ([-2, -1, 0, 1, 2], [1.0, -4.0, 6.0, -4.0, 1.0]),
        }
        offs, coefs = stencils[s]
        return sum(c * f(x + o * h) for o, c in zip(offs, coefs)) / h**s

    order = 4 if s < 3 else 2
    return (2**order * central(h / 2) - central(h)) / (2**order - 1)


def test_registered_names():
    assert registered_names() == ["hat", "pw_smooth", "sgn", "smooth_nonper"]


def test_frozen_point_values():
    pw = target_lookup("pw_smooth")
    assert pw.eval(-0.5) == pytest.approx(0.5)
    assert pw.eval(0.5) == pytest.approx(1.0)  # 1 + cos(pi/2)
    assert pw.eval(0.0) == 1.0
    hat = target_lookup("hat")
    assert hat.eval(0.3) == pytest.approx(0.7)
    assert hat.eval(-0.3) == pytest.approx(0.7)
    sgn = target_lookup("sgn")
    assert sgn.eval(0.0) == 0.0
    assert list(sgn.eval(np.array([-0.2, 0.2]))) == [-1.0, 1.0]
    sm = target_lookup("smooth_nonper")
    assert sm.eval(0.0) == pytest.approx(1.0)


def test_hat_jump_derivative_vectors():
    hat = target_lookup("hat")
    assert hat.one_sided_derivs(0.0, "left", 3) == pytest.approx([1.0, 1.0, 0.0, 0.0])
    assert hat.one_sided_derivs(0.0, "right", 3) == pytest.approx([1.0, -1.0, 0.0, 0.0])


def test_pw_smooth_right_derivs_at_zero():
    # d^s/dx^s (1 + cos(pi x)) at 0+: [2, 0, -pi^2, 0]
    pw = target_lookup("pw_smooth")
    assert pw.one_sided_derivs(0.0, "right", 3) == pytest.approx(
        [2.0, 0.0, -math.pi**2, 0.0]
    )


def test_jet_derivs_match_finite_differences():
    for name in registered_names():
        t = target_lookup(name)
        for point, side in ((-0.6, "left"), (0.4, "right")):
            d = t.one_sided_derivs(point, side, 4)
            for s in range(5):
                fd = richardson_deriv(t.eval, point, s, h=5e-3)
                assert d[s] == pytest.approx(fd, rel=5e-4, abs=5e-4), (name, point, s)


def test_one_sided_derivs_select_correct_piece_at_zero():
    sgn = target_lookup("sgn")
    assert sgn.one_sided_derivs(0.0, "left", 2)[0] == -1.0
    assert sgn.one_sided_derivs(0.0, "right", 2)[0] == 1.0


def test_is_smooth_flag():
    assert target_lookup("smooth_nonper").is_smooth
    assert not target_lookup("pw_smooth").is_smooth


def test_domain_and_argument_errors():
    t = target_lookup("hat")
    with pytest.raises(ValueError):
        t.eval(1.5)
    with pytest.raises(ValueError):
        t.one_sided_derivs(2.0, "left", 1)
    with pytest.raises(ValueError):
        t.one_sided_derivs(0.0, "up", 1)
    with pytest.raises(UnsupportedOrderError):
        t.one_sided_derivs(0.0, "left", MAX_ORDER + 1)


def test_unknown_target_lists_registry():
    with pytest.raises(UnknownTargetError, match="pw_smooth"):
        target_lookup("nope")


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError):
        register_target(
            PiecewiseTarget("hat", lambda u: u, lambda u: u, 0.0)
        )


def test_custom_registration_roundtrip():
    name = "_test_linear"
    if name not in registered_names():
        register_target(PiecewiseTarget(name, lambda u: 2.0 * u, lambda u: 2.0 * u, 0.0))
    t = target_lookup(name)
    assert t.eval(0.5) == pytest.approx(1.0)
    assert t.one_sided_derivs(0.25, "left", 1) == pytest.approx([0.5, 2.0])
