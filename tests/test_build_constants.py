"""Constants a build computes once: per-order systems, the build rule's per-K
tables, the sin(x) neuron, and the call budget of one ``convergence`` cell,
counted rather than timed."""

import warnings

import numpy as np
import pytest

from fresnet import builder, cli, hermite, jets, jump, network, quadrature, smooth
from fresnet.builder import BuildSpec, build_piecewise_net
from fresnet.hermite import HermiteSolveError, hermite_endpoint, scaled_residual
from fresnet.targets import target_lookup


def test_one_build_creates_each_orders_hermite_system_once():
    hermite._hermite_system.cache_clear()
    build_piecewise_net(BuildSpec(target_lookup("hat"), 3, 8, 6))
    info = hermite._hermite_system.cache_info()
    # H (jump) and H_r (smooth part) are both order-3 solves, and each
    # solve's verdict (scaled_residual) reads the system once more
    assert (info.misses, info.hits) == (1, 3)
    build_piecewise_net(BuildSpec(target_lookup("pw_smooth"), 3, 16, 6))
    build_piecewise_net(BuildSpec(target_lookup("hat"), 2, 8, 6))
    info = hermite._hermite_system.cache_info()
    assert (info.misses, info.hits) == (2, 10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_is_refused(bad):
    for m in (0, 4, 12):
        alphas = np.ones(m + 1)
        alphas[-1] = bad
        with pytest.raises(HermiteSolveError, match="scaled residual"):
            hermite_endpoint(alphas, np.zeros(m + 1))


@pytest.mark.parametrize("alphas", [[np.inf, 1.0, 2.0], [-np.inf, 1.0, 2.0],
                                    [1.0, 1e308, 1e308]])
def test_non_finite_or_overflowing_jump_data_is_refused_quietly(alphas):
    # the Bell substitution turns such data into inf or NaN; the Hermite
    # solve refuses it, and neither step warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HermiteSolveError, match="scaled residual"):
            jump.build_jump_H(alphas, np.zeros(3))


def test_overflowing_scale_is_refused_quietly():
    # the solve's coefficients are finite, but M c and |M| |c| overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HermiteSolveError, match="scaled residual"):
            hermite_endpoint([1e308, 0.0, 0.0], [0.0, 0.0, 0.0])


def test_singular_solve_is_refused(monkeypatch):
    def singular(matrix, rhs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(HermiteSolveError, match="singular order-3"):
        hermite_endpoint(np.ones(4), np.ones(4))


def test_zero_data_gives_the_zero_polynomial():
    for m in (0, 9, 12):
        poly = hermite_endpoint(np.zeros(m + 1), np.zeros(m + 1))
        assert poly.width == 2 * (m + 1)
        assert not any(poly.sin_amps + poly.cos_amps)


#: The message every scaled-residual refusal of an order-2 solve gives.
REFUSED_2 = "^order-2 interpolation solve leaves a scaled residual above 1e-08$"


@pytest.fixture
def verdicts(monkeypatch):
    """Every value scaled_residual returns to hermite_endpoint."""
    seen = []
    real = hermite.scaled_residual

    def spy(branch, alphas, betas):
        seen.append(real(branch, alphas, betas))
        return seen[-1]

    monkeypatch.setattr(hermite, "scaled_residual", spy)
    return seen


def test_overflowing_data_is_refused_by_an_infinite_verdict(verdicts):
    with pytest.raises(HermiteSolveError, match=REFUSED_2):
        hermite_endpoint([1e308, 0.0, 0.0], [0.0, 0.0, 0.0])
    assert verdicts == [np.inf]
    # the same verdict on that solve's polynomial, built directly
    matrix, omegas = hermite._hermite_system(2)
    coeffs = np.linalg.solve(matrix, [1e308, 0.0, 0.0, 0.0, 0.0, 0.0])
    poly = network.branch_from_modes(coeffs, omegas)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert scaled_residual(poly, [1e308, 0.0, 0.0], [0.0, 0.0, 0.0]) == np.inf


def test_nan_data_is_refused_with_the_same_message(verdicts):
    # NaN coefficients make no Branch, so the verdict is not asked for
    with pytest.raises(HermiteSolveError, match=REFUSED_2):
        hermite_endpoint([np.nan, 0.0, 0.0], [0.0, 0.0, 0.0])
    assert verdicts == []
    poly = hermite_endpoint(np.ones(3), np.ones(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(scaled_residual(poly, [np.nan, 1.0, 1.0], np.ones(3)))


def test_singular_solve_is_refused_before_the_verdict(monkeypatch, verdicts):
    def singular(matrix, rhs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(HermiteSolveError, match="^singular order-3 interpolation system$"):
        hermite_endpoint(np.ones(4), np.ones(4))
    assert verdicts == []


def test_zero_data_has_a_zero_verdict(verdicts):
    for m in (0, 9, 12):
        poly = hermite_endpoint(np.zeros(m + 1), np.zeros(m + 1))
        assert not any(poly.sin_amps + poly.cos_amps)
        assert scaled_residual(poly, np.zeros(m + 1), np.zeros(m + 1)) == 0.0
    assert verdicts == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("alphas, betas", [
    ([1.0], [1.0, 2.0]), ([], []), ([[1.0, 2.0]], [[1.0, 2.0]]), (1.0, 1.0),
    (np.zeros(jets.MAX_ORDER + 2), np.zeros(jets.MAX_ORDER + 2)),
], ids=["unequal", "empty", "2-d", "scalar", "order-13"])
def test_the_verdict_refuses_what_the_solve_refuses(alphas, betas):
    with pytest.raises(ValueError) as solve:
        hermite_endpoint(alphas, betas)
    with pytest.raises(ValueError) as verdict:
        scaled_residual(hermite_endpoint([0.0], [0.0]), alphas, betas)
    assert str(verdict.value) == str(solve.value)


def test_the_verdict_refuses_a_branch_of_another_order():
    poly = hermite_endpoint(np.ones(3), np.ones(3))
    for m in (1, 3):
        with pytest.raises(ValueError, match=f"not an order-{m} endpoint polynomial"):
            scaled_residual(poly, np.ones(m + 1), np.ones(m + 1))
    # the width of an order-2 polynomial, at other frequencies
    other = network.Branch(tuple(2.0 * f for f in poly.freqs), poly.sin_amps, poly.cos_amps)
    with pytest.raises(ValueError, match="not an order-2 endpoint polynomial"):
        scaled_residual(other, np.ones(3), np.ones(3))


def test_one_build_rule_table_per_modes_count():
    smooth._rule_tables.cache_clear()
    for name in ("hat", "pw_smooth"):
        for m in (1, 3):
            for k in (0, 7, 20):
                build_piecewise_net(BuildSpec(target_lookup(name), m, k, 6))
    info = smooth._rule_tables.cache_info()
    assert (info.misses, info.hits) == (3, 9)


def test_a_convergence_sweeps_modes_counts_keep_their_tables():
    # a sweep over K 5..80 and the baselines' K + 20: 9 keys, none evicted
    smooth._rule_tables.cache_clear()
    keys = (5, 10, 20, 40, 80, 25, 30, 60, 100)
    for _ in range(3):
        for k in keys:
            smooth.fourier_coeffs(np.cos, k)
    info = smooth._rule_tables.cache_info()
    assert (info.misses, info.hits) == (len(keys), 2 * len(keys))


@pytest.mark.parametrize("half", [0, 1, 7, 80, 1024])
def test_cold_and_warm_builds_write_the_same_bytes(half):
    spec = BuildSpec(target_lookup("pw_smooth"), 4, half, 20)
    smooth._rule_tables.cache_clear()
    quadrature.nodes_weights.cache_clear()
    cold = network.serialize(build_piecewise_net(spec))
    warm = network.serialize(build_piecewise_net(spec))
    info = smooth._rule_tables.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert cold == warm


def test_only_modes_counts_up_to_the_cap_are_cached():
    smooth._rule_tables.cache_clear()
    spec = BuildSpec(target_lookup("pw_smooth"), 2, 2 * smooth._CACHED_MODES, 4)
    first = network.serialize(build_piecewise_net(spec))
    assert smooth._rule_tables.cache_info().currsize == 0
    assert network.serialize(build_piecewise_net(spec)) == first
    assert smooth._rule_tables.cache_info().currsize == 0
    smooth.fourier_coeffs(np.cos, smooth._CACHED_MODES)
    assert smooth._rule_tables.cache_info().currsize == 1


def test_cached_constants_refuse_writes():
    matrix, omegas = hermite._hermite_system(2)
    zs, bell = jump._chain_rule_system(0.0, "left", 2)
    # every build and every lp_error reads the same cached nodes and weights
    x, w = quadrature.nodes_weights()
    # and every build at one K the same per-K tables
    half_w, rows, phase = smooth._rule_tables(7)
    for array in (matrix, omegas, zs, bell, x, w, half_w, rows, phase):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_builds_share_the_sin_neuron_and_its_plan(monkeypatch):
    neuron = builder._SIN_NEURON
    neuron.__dict__.pop("_plan", None)  # drop the plan a former call built
    plans = []
    real_modes = network._branch_modes

    def counting_modes(branch):
        # a branch's plan is built from its modes
        plans.append(branch)
        return real_modes(branch)

    monkeypatch.setattr(network, "_branch_modes", counting_modes)
    xs = np.linspace(-1, 1, 101)
    nets = [build_piecewise_net(BuildSpec(target_lookup(name), 2, k, 8))
            for name, k in (("hat", 8), ("pw_smooth", 20))]
    for net in nets:
        assert net.layers[7].g_branch is neuron
        network.eval_grid(net, xs)
    assert sum(b is neuron for b in plans) == 1


@pytest.fixture
def counters(monkeypatch):
    """Counts of irfft calls, Taylor tables and chain-rule matrices, with
    every per-process cache they could hide behind emptied; Hermite systems
    and the build rule's per-K tables are counted by their caches' misses."""
    counts = {"irfft": 0, "tables": 0, "bell": []}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.fft, "irfft", counting("irfft", np.fft.irfft))
    monkeypatch.setattr(network, "_taylor_table",
                        counting("tables", network._taylor_table))
    real_bell = jump.chain_rule_matrix

    def counting_bell(derivs):
        counts["bell"].append(tuple(derivs))
        return real_bell(derivs)

    monkeypatch.setattr(jump, "chain_rule_matrix", counting_bell)
    hermite._hermite_system.cache_clear()
    jump._chain_rule_system.cache_clear()
    smooth._rule_tables.cache_clear()
    return counts


def test_convergence_cell_call_budget(counters, tmp_path):
    out = str(tmp_path / "cell.csv")

    def cell(m):
        argv = ["convergence", "--target", "hat", "--m", str(m), "--modes-list", "20",
                "--depth", "20", "--out", out]
        assert cli.main(argv) == 0

    cell(2)
    # the 20-term spectral layer and the 40-term baseline series are tables
    assert counters["tables"] >= 2
    assert counters["irfft"] == counters["tables"]
    assert hermite._hermite_system.cache_info().misses == 1
    # z's profile at 0 from both sides and at the two endpoints
    assert len(counters["bell"]) == 4
    # the build at K = 20 and the baseline series at K = 40
    assert smooth._rule_tables.cache_info().misses == 2
    cell(2)
    assert counters["irfft"] == counters["tables"]
    assert hermite._hermite_system.cache_info().misses == 1
    assert len(counters["bell"]) == 4
    assert smooth._rule_tables.cache_info().misses == 2
    cell(3)
    assert counters["irfft"] == counters["tables"]
    assert hermite._hermite_system.cache_info().misses == 2
    assert len(counters["bell"]) == 8
    assert smooth._rule_tables.cache_info().misses == 2
