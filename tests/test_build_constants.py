"""Constants a build computes once: per-order systems, the sin(x) neuron, and
the call budget of one ``convergence`` cell, counted rather than timed."""

import numpy as np
import pytest

from fresnet import builder, cli, hermite, jump, network
from fresnet.builder import BuildSpec, build_piecewise_net
from fresnet.hermite import hermite_endpoint
from fresnet.targets import target_lookup


def test_one_build_creates_each_orders_hermite_system_once():
    hermite._hermite_system.cache_clear()
    build_piecewise_net(BuildSpec(target_lookup("hat"), 3, 8, 6))
    info = hermite._hermite_system.cache_info()
    # H (jump) and H_r (smooth part) are both order-3 solves
    assert (info.misses, info.hits) == (1, 1)
    build_piecewise_net(BuildSpec(target_lookup("pw_smooth"), 3, 16, 6))
    build_piecewise_net(BuildSpec(target_lookup("hat"), 2, 8, 6))
    info = hermite._hermite_system.cache_info()
    assert (info.misses, info.hits) == (2, 4)


def test_badly_conditioned_solve_warns_on_every_call():
    for _ in range(2):
        with pytest.warns(RuntimeWarning, match="badly conditioned"):
            hermite_endpoint(np.zeros(10), np.ones(10))
    # the second warning comes from the cached order-9 system
    assert hermite._hermite_system.cache_info().hits >= 1


def test_cached_constants_refuse_writes():
    matrix, omegas, _ = hermite._hermite_system(2)
    zs, bell = jump._chain_rule_system(0.0, "left", 2)
    for array in (matrix, omegas, zs, bell):
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
    """Counts of irfft calls, Taylor tables, cond calls and chain-rule
    matrices, with every per-process cache they could hide behind emptied."""
    counts = {"irfft": 0, "tables": 0, "cond": 0, "bell": []}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.fft, "irfft", counting("irfft", np.fft.irfft))
    monkeypatch.setattr(np.linalg, "cond", counting("cond", np.linalg.cond))
    monkeypatch.setattr(network, "_taylor_table",
                        counting("tables", network._taylor_table))
    real_bell = jump.chain_rule_matrix

    def counting_bell(derivs):
        counts["bell"].append(tuple(derivs))
        return real_bell(derivs)

    monkeypatch.setattr(jump, "chain_rule_matrix", counting_bell)
    hermite._hermite_system.cache_clear()
    jump._chain_rule_system.cache_clear()
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
    assert counters["cond"] == 1
    # z's profile at 0 from both sides and at the two endpoints
    assert len(counters["bell"]) == 4
    cell(2)
    assert counters["irfft"] == counters["tables"]
    assert counters["cond"] == 1
    assert len(counters["bell"]) == 4
    cell(3)
    assert counters["irfft"] == counters["tables"]
    assert counters["cond"] == 2
    assert len(counters["bell"]) == 8
