"""Constants a build computes once: per-order systems, each endpoint solve,
the build rule's per-K tables, the sin(x) neuron, and the call budget of one
``convergence`` cell, counted rather than timed."""

import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fresnet import builder, cli, hermite, jets, jump, network, quadrature, smooth
from fresnet.builder import BuildSpec, build_piecewise_net
from fresnet.hermite import HermiteSolveError, hermite_endpoint, scaled_residual
from fresnet.targets import target_lookup
from oracles import forget_solves


def test_one_build_creates_each_orders_hermite_system_once():
    hermite._hermite_system.cache_clear()
    forget_solves()
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
    """Every value scaled_residual returns to hermite_endpoint, with the
    memo of solves emptied, so every solve is judged."""
    forget_solves()
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
    every per-process cache they could hide behind emptied; Hermite systems,
    endpoint solves and the build rule's per-K tables are counted by their
    caches' misses."""
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
    forget_solves()
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
    # H and H_r: two endpoint solves for each new (target, m), none repeated
    assert hermite._solve.cache_info().misses == 2
    # z's profile at 0 from both sides and at the two endpoints
    assert len(counters["bell"]) == 4
    # the build at K = 20 and the baseline series at K = 40
    assert smooth._rule_tables.cache_info().misses == 2
    cell(2)
    assert counters["irfft"] == counters["tables"]
    assert hermite._hermite_system.cache_info().misses == 1
    assert hermite._solve.cache_info().misses == 2
    assert len(counters["bell"]) == 4
    assert smooth._rule_tables.cache_info().misses == 2
    cell(3)
    assert counters["irfft"] == counters["tables"]
    assert hermite._hermite_system.cache_info().misses == 2
    assert hermite._solve.cache_info().misses == 4
    assert len(counters["bell"]) == 8
    assert smooth._rule_tables.cache_info().misses == 2


# -- the memo of endpoint solves ---------------------------------------------
#
# Each check compares with a solve made after forget_solves(), which the memo
# cannot answer.

def fresh_solve(alphas, betas):
    forget_solves()
    return hermite_endpoint(alphas, betas)


def test_the_same_data_gives_the_same_branch():
    alphas, betas = [0.5, -1.25, 3.0], [1.0, 0.0, -2.0]
    fresh = fresh_solve(alphas, betas)
    first = hermite_endpoint(alphas, betas)
    # the key is the data's complex bits, whatever sequence held them
    assert first is fresh
    assert hermite_endpoint(np.array(alphas), np.array(betas, dtype=complex)) is first
    info = hermite._solve.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    again = fresh_solve(alphas, betas)
    assert again is not first and again.entries.tobytes() == first.entries.tobytes()


@pytest.mark.parametrize("variant", ["negative zero", "last bit", "imaginary negative zero"])
def test_data_one_bit_apart_is_solved_apart(variant):
    alphas, betas = np.array([0.5, -1.25, 0.0], dtype=complex), np.array([1.0, 0.0, 2.0])
    other_alphas, other_betas = alphas.copy(), betas.copy()
    if variant == "negative zero":
        other_alphas[2] = -0.0
    elif variant == "last bit":
        other_betas[0] = np.nextafter(1.0, 2.0)
    else:
        other_alphas[0] = complex(0.5, -0.0)
    forget_solves()
    base = hermite_endpoint(alphas, betas)
    other = hermite_endpoint(other_alphas, other_betas)
    assert other is not base and hermite._solve.cache_info().misses == 2
    # each key keeps its own branch, also where the data compare equal
    assert hermite_endpoint(alphas, betas) is base
    assert hermite_endpoint(other_alphas, other_betas) is other
    for branch, data in ((base, (alphas, betas)), (other, (other_alphas, other_betas))):
        assert branch.entries.tobytes() == fresh_solve(*data).entries.tobytes()


def test_threads_sharing_the_memo_build_the_single_thread_nets():
    target, ks = target_lookup("pw_smooth"), (8, 16, 32, 64)

    def text(k):
        return network.serialize(build_piecewise_net(BuildSpec(target, 4, k, 20)))

    expected = {}
    for k in ks:
        forget_solves()
        expected[k] = text(k)
    forget_solves()
    start = threading.Barrier(8)

    def job(k):
        start.wait(timeout=60)
        return k, text(k)

    with ThreadPoolExecutor(8) as pool:
        results = list(pool.map(job, ks * 2))
    assert len(results) == 8
    for k, got in results:
        assert got == expected[k], k


def count_solves(monkeypatch):
    """The calls np.linalg.solve has taken since, as a list."""
    calls, real = [], np.linalg.solve

    def counting(matrix, rhs):
        calls.append(rhs)
        return real(matrix, rhs)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return calls


def test_an_overflowing_refusal_is_judged_on_every_call(monkeypatch, verdicts):
    solves = count_solves(monkeypatch)
    for _ in range(3):
        with pytest.raises(HermiteSolveError, match=REFUSED_2):
            hermite_endpoint([1e308, 0.0, 0.0], [0.0, 0.0, 0.0])
    assert len(solves) == 3 and verdicts == [np.inf] * 3
    assert hermite._solve.cache_info().currsize == 0


def test_a_nan_refusal_is_solved_on_every_call(monkeypatch, verdicts):
    solves = count_solves(monkeypatch)
    for _ in range(3):
        with pytest.raises(HermiteSolveError, match=REFUSED_2):
            hermite_endpoint([np.nan, 0.0, 0.0], [0.0, 0.0, 0.0])
    # NaN coefficients make no Branch, so no verdict is asked for
    assert len(solves) == 3 and verdicts == []
    assert hermite._solve.cache_info().currsize == 0


def test_a_singular_refusal_is_not_kept(monkeypatch, verdicts):
    calls, real = [], np.linalg.solve

    def singular(matrix, rhs):
        calls.append(rhs)
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    for _ in range(3):
        with pytest.raises(HermiteSolveError, match="^singular order-3 interpolation system$"):
            hermite_endpoint(np.ones(4), np.ones(4))
    assert len(calls) == 3 and verdicts == []
    monkeypatch.setattr(np.linalg, "solve", real)
    # the same data, solved once the system is regular, gets its own verdict
    poly = hermite_endpoint(np.ones(4), np.ones(4))
    assert len(verdicts) == 1 and verdicts[0] <= hermite.RESIDUAL_BOUND
    assert poly.entries.tobytes() == fresh_solve(np.ones(4), np.ones(4)).entries.tobytes()


def test_the_memo_holds_at_most_maxsize_solves():
    forget_solves()
    size = hermite._solve.cache_info().maxsize
    assert size == 64
    for i in range(size + 36):
        hermite_endpoint([float(i)], [0.0])
    info = hermite._solve.cache_info()
    assert (info.currsize, info.misses) == (size, size + 36)
    # the oldest data was dropped and is solved again
    hermite_endpoint([0.0], [0.0])
    assert hermite._solve.cache_info().misses == size + 37


def test_the_readme_sweep_writes_the_csv_of_fresh_solves(monkeypatch, tmp_path):
    """The README's convergence sweep, whose 20 builds make 40 solves of 8
    distinct data, one H and one H_r per m, writes the CSV it writes with
    the memo emptied before every build, but for the wall_ms column."""
    argv = ["convergence", "--target", "hat", "--m", "1,2,3,4", "--modes-list",
            "5,10,20,40,80"]

    def text(name):
        out = tmp_path / name
        assert cli.main(argv + ["--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        return "\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n"

    forget_solves()
    kept = text("kept.csv")
    info = hermite._solve.cache_info()
    assert (info.misses, info.hits) == (8, 32)
    real = cli.build_piecewise_net

    def fresh_build(spec):
        forget_solves()
        return real(spec)

    monkeypatch.setattr(cli, "build_piecewise_net", fresh_build)
    assert text("fresh.csv") == kept
