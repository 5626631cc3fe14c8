"""Acceptance suite: the 13 primary criteria, one test (pass/fail line) each.

Run with ``pytest -v tests/test_acceptance.py``; the verbose test lines are
the per-criterion pass/fail report.  Each test also prints its measured
quantities, visible with ``-s`` or in the captured output of a failure.

Criteria 7 and 8 (fixed-depth spectral rate at L = 20) are implemented
faithfully and measured honestly with the breakpoint-resolving quadrature.
The construction's own depth term floors the L^2 error near
2^{-L/2} ~ 1e-3 at L = 20 (verified to track 2^{-L/2} over L = 20..40), so
the stated slope thresholds for m >= 2 are unattainable at these sizes and
those assertions fail; see the decisions ledger for the full analysis.  The
measured rates, including the faster pre-floor rates, are written on every
run to test_artifacts/spectral_rates_<target>.csv, a git-ignored directory,
so a test run leaves the tracked tree unchanged.  The same sweep at L = 60,
where the depth term is negligible, passes the stated thresholds; its
rates go to test_artifacts/width_rates_L60_<target>.csv.
"""

import math
import pathlib
import time

import numpy as np
import pytest
import sympy

from fresnet import network
from fresnet.builder import BuildSpec, build_piecewise_net, component_views
from fresnet.hermite import deriv_rows, hermite_endpoint
from fresnet.jump import build_jump_H, chain_rule_matrix, q_derivs_at
from fresnet.metrics import fit_rate, gibbs_support_width, lp_error, max_overshoot
from fresnet.network import _branch_modes
from fresnet.sign import build_sign_net, truncated_sign_series
from fresnet.smooth import fourier_coeffs
from fresnet.targets import target_lookup
from oracles import frequency_multiset

ARTIFACT_DIR = pathlib.Path(__file__).resolve().parent.parent / "test_artifacts"

SGN = target_lookup("sgn")
PW = target_lookup("pw_smooth")
HAT = target_lookup("hat")


def derivs_at(poly, y, m):
    """[poly(y), poly'(y), ..., poly^(m)(y)] by the rows helper."""
    freqs, amps = _branch_modes(poly)
    return (deriv_rows(freqs, y, m) @ amps).real


#: float64 rounds the sign iterates to exactly +-1 well before ell = 25;
#: at saturated points consecutive grid values may tie (or jitter by 1 ulp),
#: so strict monotonicity is only checkable away from saturation.
SATURATION = 1.0 - 1e-12


def test_criterion_01_sign_exponential_convergence():
    t0 = time.perf_counter()
    net = build_sign_net(20)
    errs = []
    for ell in range(1, 21):
        e = lp_error(SGN.eval, lambda x: network.eval_prefix(net, x, ell), 1.0)
        errs.append(e)
        assert e <= 4 * 2.0 ** (-ell), f"depth {ell}: L1 error {e:.3e} > 4*2^-{ell}"
    fit = fit_rate([2.0**ell for ell in range(1, 21)], errs)
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: slope {fit.slope:.3f}, {elapsed:.2f}s")
    assert fit.slope <= -0.9
    assert elapsed < 2.0


def test_criterion_02_sign_monotone_odd_bounded():
    t0 = time.perf_counter()
    grid = np.linspace(-1.0, 1.0, 10**4)
    grid = 0.5 * (grid - grid[::-1])  # exact +-x pairs, else the 1-ulp grid
    # asymmetry is amplified ~2^ell by the iteration and masks the check
    net = build_sign_net(25)
    for ell in range(1, 26):
        v = network.eval_prefix(net, grid, ell)
        d = np.diff(v)
        saturated = (np.abs(v[:-1]) >= SATURATION) & (np.abs(v[1:]) >= SATURATION)
        flat = d <= 0
        # non-increases may only be float rounding noise inside saturation
        assert np.all(saturated[flat]), f"depth {ell}: not strictly increasing"
        assert np.all(np.abs(d[flat]) <= 2 ** -51), f"depth {ell}: saturation jitter"
        assert np.max(np.abs(v + v[::-1])) <= 1e-12, f"depth {ell}: odd-symmetry defect"
        assert v.min() >= -1 - 1e-12 and v.max() <= 1 + 1e-12
        over = max_overshoot(lambda x: network.eval_prefix(net, x, ell), -1.0, 1.0)
        assert over <= 1e-12, f"depth {ell}: overshoot {over:.2e}"
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: {elapsed:.2f}s")
    assert elapsed < 2.0


def test_criterion_03_pointwise_superexponential_bound():
    net = build_sign_net(12)
    xs = np.linspace(0.0, 1.0, 2001)[1:]
    s1 = network.eval_prefix(net, xs, 1)
    for ell in range(1, 13):
        s = network.eval_prefix(net, xs, ell)
        bound = (1.0 - s1) ** (2.0 ** (ell - 1))
        mask = bound > 1e-300
        bad = np.abs(1.0 - s)[mask] > bound[mask] + 1e-12
        assert not np.any(bad), f"depth {ell}: bound violated at {np.sum(bad)} points"
    print("criterion 3: bound holds for ell <= 12")


def test_criterion_04_hermite_interpolation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    worst_res, worst_sym = 0.0, 0.0
    for m in range(7):
        for _ in range(100):
            a, b = rng.normal(size=m + 1), rng.normal(size=m + 1)
            poly = hermite_endpoint(a, b)
            scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
            worst_res = max(
                worst_res,
                float(np.max(np.abs(derivs_at(poly, -1.0, m) - a))) / scale,
                float(np.max(np.abs(derivs_at(poly, 1.0, m) - b))) / scale,
            )
            # |c_k - conj(c_{-k-1})|: entry j holds mode k = j - (m+1) and
            # its mirror 2(m+1) - 1 - j mode -k-1, folded by conjugation
            sa, ca = np.asarray(poly.sin_amps), np.asarray(poly.cos_amps)
            worst_sym = max(worst_sym, float(np.max(np.hypot(sa - sa[::-1], ca - ca[::-1]))))
    elapsed = time.perf_counter() - t0
    print(f"criterion 4: residual {worst_res:.2e}, symmetry {worst_sym:.2e}, {elapsed:.2f}s")
    assert worst_res <= 1e-8
    assert worst_sym <= 1e-10
    assert elapsed < 1.0


def test_criterion_05_jump_matching():
    for name in ("sgn", "pw_smooth", "hat"):
        t = target_lookup(name)
        for m in range(1, 5):
            alphas = t.one_sided_derivs(0.0, "left", m)
            betas = t.one_sided_derivs(0.0, "right", m)
            poly = build_jump_H(alphas, betas)
            got_l = q_derivs_at(0.0, "left", poly, m)
            got_r = q_derivs_at(0.0, "right", poly, m)
            assert np.max(np.abs(got_l - alphas)) <= 1e-8, (name, m)
            assert np.max(np.abs(got_r - betas)) <= 1e-8, (name, m)
    # chain-rule coefficients vs the symbolic partial Bell polynomials
    rng = np.random.default_rng(7)
    for m in range(1, 7):
        derivs = tuple(rng.normal(size=m))
        a = chain_rule_matrix(derivs)
        syms = sympy.symbols(f"x1:{m + 1}")
        subs = dict(zip(syms, derivs))
        for n in range(1, m + 1):
            for k in range(1, n + 1):
                expect = float(sympy.bell(n, k, syms[: n - k + 1]).subs(subs))
                assert abs(a[n, k] - expect) <= 1e-10 * max(1.0, abs(expect)), (m, n, k)
    print("criterion 5: jump derivatives match; Bell oracle agrees")


def test_criterion_06_residual_periodization_and_decay():
    t0 = time.perf_counter()
    for name in ("pw_smooth", "hat"):
        t = target_lookup(name)
        for m in (2, 3, 4):
            views = component_views(BuildSpec(t, m, 64, 20))
            h_minus = t.one_sided_derivs(-1.0, "right", m) - q_derivs_at(
                -1.0, "right", views.jump_poly, m
            )
            h_plus = t.one_sided_derivs(1.0, "left", m) - q_derivs_at(
                1.0, "left", views.jump_poly, m
            )
            hp = hermite_endpoint(h_minus, h_plus)

            def g(x):
                return views.r(x) - hp(x)

            # endpoint mismatch of the periodized residual, s <= m
            gms = h_minus - derivs_at(hp, -1.0, m)
            gps = h_plus - derivs_at(hp, 1.0, m)
            for s, (gm, gp) in enumerate(zip(gms, gps)):
                assert abs(gm) <= 1e-8 and abs(gp) <= 1e-8, (name, m, s)
            ghat = fourier_coeffs(g, 64)
            ks = np.arange(4, 65)
            mags = np.maximum(np.abs(ghat[64 + 4 : 64 + 65]), 1e-300)
            fit = fit_rate(ks.astype(float), mags)
            print(f"criterion 6: {name} m={m} coefficient slope {fit.slope:.2f}")
            assert fit.slope <= -m + 0.5, (name, m, fit.slope)
    elapsed = time.perf_counter() - t0
    print(f"criterion 6: {elapsed:.2f}s")
    assert elapsed < 10.0


def _spectral_rate_sweep(target, csv_name, depth=20):
    """Width sweep at fixed depth; records measured rates, returns slopes."""
    ARTIFACT_DIR.mkdir(exist_ok=True)
    lines = ["target,m,W,L,error_l2,fitted_slope"]
    slopes = {}
    for m in (1, 2, 3, 4):
        ws, errs = [], []
        for j in range(5):
            half = 5 * 2**j  # W = 10 * 2^j
            net = build_piecewise_net(BuildSpec(target, m, half, depth))
            e = lp_error(target.eval, lambda x: network.eval_grid(net, x), 2.0)
            ws.append(2 * half)
            errs.append(e)
        fit = fit_rate(ws, errs)
        slopes[m] = fit.slope
        for w, e in zip(ws, errs):
            lines.append(f"{target.name},{m},{w},{depth},{e:.17g},{fit.slope:.17g}")
    (ARTIFACT_DIR / csv_name).write_text("\n".join(lines) + "\n")
    return slopes


def _assert_spectral_slopes(target, csv_name, criterion):
    t0 = time.perf_counter()
    slopes = _spectral_rate_sweep(target, csv_name)
    elapsed = time.perf_counter() - t0
    for m, slope in slopes.items():
        print(f"criterion {criterion}: {target.name} m={m} L2 slope {slope:.3f} "
              f"(threshold {-(m - 0.5) + 0.3:.1f})")
    print(f"criterion {criterion}: {elapsed:.1f}s; rates recorded in "
          f"test_artifacts/{csv_name}")
    assert elapsed < 60.0
    failures = {m: s for m, s in slopes.items() if s > -(m - 0.5) + 0.3}
    assert not failures, (
        f"{target.name}: fitted L2 slopes {failures} miss the stated thresholds. "
        "The depth term of the construction floors the true L2 error near "
        "2^{-L/2} ~ 1e-3 at L = 20 (the error concentrates on the width-2^{-20} "
        "transition spike, which the graded quadrature resolves), so no width "
        "can reach the asserted rates; see notes ledger for the analysis."
    )


def test_criterion_07_spectral_rate_pw_smooth():
    _assert_spectral_slopes(PW, "spectral_rates_pw_smooth.csv", 7)


def test_criterion_08_spectral_rate_hat():
    _assert_spectral_slopes(HAT, "spectral_rates_hat.csv", 8)


@pytest.mark.parametrize("target", [PW, HAT], ids=lambda t: t.name)
def test_width_rate_where_the_depth_term_is_negligible(target):
    # Criteria 7/8's sweep at L = 60, where the depth term (~2^{-30}) sits
    # below every width term of the sweep: the paper's W^{-(m - 1/2)} rate
    # then holds, with the same slack.  The measured slopes are about
    # -(m + 3/2); README "Width rate" gives the reason.
    csv_name = f"width_rates_L60_{target.name}.csv"
    slopes = _spectral_rate_sweep(target, csv_name, depth=60)
    for m, slope in slopes.items():
        print(f"width rate: {target.name} m={m} L=60 L2 slope {slope:.3f} "
              f"(threshold {-(m - 0.5) + 0.3:.1f}); recorded in test_artifacts/{csv_name}")
    failures = {m: s for m, s in slopes.items() if s > -(m - 0.5) + 0.3}
    assert not failures, f"{target.name}: L = 60 L2 slopes {failures} miss the paper's rate"


def test_criterion_09_depth_rate_fixed_width():
    depths = list(range(2, 21, 2))
    errs = []
    for depth in depths:
        net = build_piecewise_net(BuildSpec(PW, 2, 32, depth))
        errs.append(lp_error(PW.eval, lambda x: network.eval_grid(net, x), 2.0))
    floor = min(errs)
    assert all(b <= a * 1.0000001 for a, b in zip(errs, errs[1:])), "error not decreasing"
    pre = [(2.0 ** (d / 2), e) for d, e in zip(depths, errs) if e > 3 * floor]
    assert len(pre) >= 3, "not enough pre-floor points to fit"
    fit = fit_rate([x for x, _ in pre], [e for _, e in pre])
    print(f"criterion 9: pre-floor slope {fit.slope:.3f} over {len(pre)} points")
    assert fit.slope <= -0.8


def test_criterion_10_gibbs_support_contraction():
    widths = []
    for depth in range(3, 8):
        net = build_piecewise_net(BuildSpec(PW, 1, 5, depth))
        widths.append(
            gibbs_support_width(PW.eval, lambda x: network.eval_grid(net, x), 0.02)
        )
    print(f"criterion 10: support widths {['%.4f' % w for w in widths]}")
    assert all(b <= a for a, b in zip(widths, widths[1:])), widths
    assert widths[-1] <= 0.5 * widths[0]


def test_criterion_11_baseline_contrast():
    terms = np.arange(1, 41, dtype=float)
    errs = [
        lp_error(SGN.eval, truncated_sign_series(int(n)), 1.0) for n in terms
    ]
    fit = fit_rate(terms, errs)
    print(f"criterion 11: series L1 slope {fit.slope:.3f}")
    assert -1.3 <= fit.slope <= -0.7
    for n in range(5, 41):
        over = max_overshoot(truncated_sign_series(n), -1.0, 1.0)
        assert over > 0.05, f"series overshoot {over:.3f} at {n} terms"
    for depth in (5, 10, 20):
        net = build_sign_net(depth)
        over = max_overshoot(lambda x: network.eval_grid(net, x), -1.0, 1.0)
        assert over <= 1e-12, f"resnet overshoot {over:.2e} at depth {depth}"


def test_criterion_12_structural_universality():
    for m, half, depth in ((1, 8, 6), (2, 16, 10), (3, 32, 20)):
        f_pw = frequency_multiset(build_piecewise_net(BuildSpec(PW, m, half, depth)))
        f_hat = frequency_multiset(build_piecewise_net(BuildSpec(HAT, m, half, depth)))
        assert f_pw == f_hat, (m, half, depth)

    def max_amplitude(net):
        worst = 0.0
        for layer in net.layers:
            branches = [layer.g_branch] + ([layer.h_branch] if layer.h_branch else [])
            for br in branches:
                for a, b in zip(br.sin_amps, br.cos_amps):
                    worst = max(worst, math.hypot(a, b))
        return worst

    for target in (PW, HAT):
        amps = [
            max_amplitude(build_piecewise_net(BuildSpec(target, 2, half, 10)))
            for half in range(3, 65)
        ]
        spread = (max(amps) - min(amps)) / min(amps)
        print(f"criterion 12: {target.name} amplitude variation {spread:.2%}")
        assert spread < 0.10


def test_criterion_13_counting_and_serialization():
    # neuron count for every build spec exercised by criteria 7-10
    specs = []
    for target in (PW, HAT):
        specs += [BuildSpec(target, m, 5 * 2**j, 20) for m in (1, 2, 3, 4) for j in range(5)]
    specs += [BuildSpec(PW, 2, 32, depth) for depth in range(2, 21, 2)]
    specs += [BuildSpec(PW, 1, 5, depth) for depth in range(3, 8)]
    for spec in specs:
        net = build_piecewise_net(spec)
        expect = spec.depth + 2 * spec.half_modes + 1 + 4 * (spec.m + 1)
        assert network.neuron_count(net) == expect, spec
    # round-trip changes nothing, to the last ulp
    rng = np.random.default_rng(13)
    net = build_piecewise_net(BuildSpec(PW, 3, 20, 12))
    again = network.deserialize(network.serialize(net))
    xs = rng.uniform(-1.0, 1.0, 1000)
    v1, v2 = network.eval_grid(net, xs), network.eval_grid(again, xs)
    ulps = np.abs(v1.view(np.int64) - v2.view(np.int64))
    print(f"criterion 13: {len(specs)} specs counted; max round-trip ulp {ulps.max()}")
    assert np.all(ulps == 0)
