"""Constants a build computes once: each endpoint solve and the endpoint
results around it (a target's jets, H by its jump data, q's endpoint
derivatives), the build rule's per-K tables, the sin(x) neuron, and the
call budget of one ``convergence`` cell, counted rather than timed."""

import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fresnet import builder, cli, hermite, jets, jump, network, quadrature, smooth, targets
from fresnet.builder import BuildSpec, build_piecewise_net
from fresnet.hermite import HermiteSolveError, hermite_endpoint, scaled_residual
from fresnet.targets import target_lookup
from oracles import forget_solves


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
    # every build and every lp_error reads the same cached nodes and weights
    x, w = quadrature.nodes_weights()
    # and every build at one K the same per-K tables
    half_w, rows, phase = smooth._rule_tables(7)
    for array in (x, w, half_w, rows, phase):
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
    every per-process cache they could hide behind emptied; endpoint solves
    and the build rule's per-K tables are counted by their caches'
    misses."""
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
    forget_solves()
    smooth._rule_tables.cache_clear()
    return counts


def endpoint_misses():
    """Misses of the memos of a target's jets, H and q's endpoint
    derivatives."""
    return tuple(memo.cache_info().misses
                 for memo in (targets._jets, jump._jump_H, jump._q_derivs))


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
    # H and H_r: two endpoint solves for each new (target, m), none repeated
    assert hermite._solve.cache_info().misses == 2
    # z's profile at 0 from both sides and at the two endpoints
    assert len(counters["bell"]) == 4
    # the build at K = 20 and the baseline series at K = 40
    assert smooth._rule_tables.cache_info().misses == 2
    # four jets, one H and q's derivatives at -1 and +1
    assert endpoint_misses() == (4, 1, 2)
    cell(2)
    assert counters["irfft"] == counters["tables"]
    assert hermite._solve.cache_info().misses == 2
    assert len(counters["bell"]) == 4
    assert smooth._rule_tables.cache_info().misses == 2
    assert endpoint_misses() == (4, 1, 2)
    cell(3)
    assert counters["irfft"] == counters["tables"]
    assert hermite._solve.cache_info().misses == 4
    assert len(counters["bell"]) == 8
    assert smooth._rule_tables.cache_info().misses == 2
    assert endpoint_misses() == (8, 2, 4)


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

    # switch threads often, so lookups and fills of the shared memos interleave
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(8) as pool:
            results = list(pool.map(job, ks * 2, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 8
    for k, got in results:
        assert got == expected[k], k
    # the endpoint results of one (target, m): four jets, one H, q's
    # derivatives at -1 and +1, and the solves of H and H_r, whichever
    # thread computed them
    sizes = [memo.cache_info().currsize
             for memo in (targets._jets, jump._jump_H, jump._q_derivs, hermite._solve)]
    assert sizes == [4, 1, 2, 2]


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
    """The README's convergence sweep, whose 20 builds look up 20 H and
    solve the 4 new ones, and solve H_r 20 times, 8 distinct data in all,
    one H and one H_r per m, writes the CSV it writes with the memos
    emptied before every build, but for the wall_ms column."""
    argv = ["convergence", "--target", "hat", "--m", "1,2,3,4", "--modes-list",
            "5,10,20,40,80"]

    def text(name):
        out = tmp_path / name
        assert cli.main(argv + ["--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        return "\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n"

    forget_solves()
    kept = text("kept.csv")
    counts = [(memo.cache_info().misses, memo.cache_info().hits)
              for memo in (hermite._solve, jump._jump_H, targets._jets, jump._q_derivs)]
    assert counts == [(8, 16), (4, 16), (16, 64), (8, 32)]
    real = cli.build_piecewise_net

    def fresh_build(spec):
        forget_solves()
        return real(spec)

    monkeypatch.setattr(cli, "build_piecewise_net", fresh_build)
    assert text("fresh.csv") == kept


# -- the memos of the endpoint results ---------------------------------------
#
# A target's jets, H and q's endpoint derivatives are kept by the bits of
# their arguments.  Each check compares with a result computed after
# forget_solves(), which the memos cannot answer.

LINE = targets.PiecewiseTarget("_line", lambda u: 2.0 * u, lambda u: 1.0 - 3.0 * u, 0.0)
ALPHAS, BETAS = [1.0, 1.0, 0.0, 0.0], [2.0, 0.0, -np.pi ** 2, 0.0]


def h_poly():
    return jump.build_jump_H(ALPHAS, BETAS)


#: name -> (memo, a call through it)
ENDPOINT_CALLS = {
    "jets": (targets._jets, lambda: LINE.one_sided_derivs(0.5, "right", 3)),
    "q derivatives": (jump._q_derivs, lambda: jump.q_derivs_at(1.0, "left", h_poly(), 3)),
}


def fresh(call):
    forget_solves()
    return call()


@pytest.mark.parametrize("name", ENDPOINT_CALLS)
def test_a_repeated_call_gives_the_kept_bits_in_a_fresh_array(name):
    memo, call = ENDPOINT_CALLS[name]
    expected = fresh(call)
    first = call()
    assert (memo.cache_info().misses, memo.cache_info().hits) == (1, 1)
    assert first is not expected and first.tobytes() == expected.tobytes()
    first[...] = 7.0  # the caller's own array
    again = call()
    assert again is not first and again.flags.writeable
    assert again.tobytes() == expected.tobytes()


def test_the_same_jump_data_gives_the_same_H():
    first = fresh(h_poly)
    assert h_poly() is first
    # the key is the data's float64 bits, whatever sequence held them
    assert jump.build_jump_H(np.array(ALPHAS), tuple(BETAS)) is first
    info = jump._jump_H.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    again = fresh(h_poly)
    assert again is not first and again.entries.tobytes() == first.entries.tobytes()


def test_the_points_minus_zero_and_zero_get_their_own_jets():
    # the left piece 2u is -0.0 at -0.0, so a value-keyed memo would hand one
    # zero's jets to the other; the right piece 1 - 3u is 1.0 at both
    for side in ("left", "right"):
        plus = fresh(lambda: LINE.one_sided_derivs(0.0, side, 3))
        minus = fresh(lambda: LINE.one_sided_derivs(-0.0, side, 3))
        assert (plus.tobytes() != minus.tobytes()) == (side == "left")
        forget_solves()
        for point, expected in ((0.0, plus), (-0.0, minus), (0.0, plus), (-0.0, minus)):
            assert LINE.one_sided_derivs(point, side, 3).tobytes() == expected.tobytes()
        assert targets._jets.cache_info().misses == 2


def test_the_points_minus_zero_and_zero_get_their_own_q_derivatives():
    h = h_poly()
    for side in ("left", "right"):
        expected = {p: fresh(lambda: jump.q_derivs_at(p, side, h, 3)).tobytes()
                    for p in (0.0, -0.0)}
        forget_solves()
        for point in (0.0, -0.0, 0.0, -0.0):
            assert jump.q_derivs_at(point, side, h, 3).tobytes() == expected[point]
        assert jump._q_derivs.cache_info().misses == 2


def nan_with_payload(payload):
    return np.array([0x7FF8000000000000 | payload], dtype=np.int64).view(float)[0]


def jump_outcome(alphas, betas):
    """H's entry bytes for the jump data, or the message it is refused with."""
    try:
        return jump.build_jump_H(alphas, betas).entries.tobytes()
    except HermiteSolveError as exc:
        return str(exc)


@pytest.mark.parametrize("variant", ["negative zero", "last bit", "nan payload"])
def test_jump_data_one_bit_apart_is_substituted_apart(variant):
    """Each jump data's H is substituted and solved under its own bits; NaN
    data makes no H and is refused on every call, each payload alike."""
    alphas, betas = np.array(ALPHAS), np.array(BETAS)
    other_alphas, other_betas = alphas.copy(), betas.copy()
    if variant == "negative zero":
        other_alphas[2] = -0.0
    elif variant == "last bit":
        other_betas[2] = np.nextafter(betas[2], 0.0)
    else:
        alphas[3], other_alphas[3] = nan_with_payload(1), nan_with_payload(2)
    data = ((alphas, betas), (other_alphas, other_betas))
    expected = [fresh(lambda: jump_outcome(*d)) for d in data]
    forget_solves()
    for _ in range(2):
        for d, outcome in zip(data, expected):
            assert jump_outcome(*d) == outcome
    kept = variant != "nan payload"
    info = jump._jump_H.cache_info()
    assert (info.currsize, info.misses) == ((2, 2) if kept else (0, 4))


@pytest.mark.parametrize("variant", ["negative zero", "last bit"])
def test_h_branches_one_bit_apart_get_their_own_q_derivatives(variant):
    freqs, sin_amps, cos_amps = (list(row) for row in h_poly().entries)
    if variant == "negative zero":
        base = network.Branch(freqs, [0.0] + sin_amps[1:], cos_amps)
        other = network.Branch(freqs, [-0.0] + sin_amps[1:], cos_amps)
        assert base == other  # equal as numbers, two keys as bits
    else:
        base = network.Branch(freqs, sin_amps, cos_amps)
        other = network.Branch(freqs, sin_amps, [np.nextafter(cos_amps[0], 1.0)] + cos_amps[1:])
    expected = [fresh(lambda: jump.q_derivs_at(-1.0, "right", h, 3)).tobytes()
                for h in (base, other)]
    forget_solves()
    for _ in range(2):
        for h, bits in zip((base, other), expected):
            assert jump.q_derivs_at(-1.0, "right", h, 3).tobytes() == bits
    assert jump._q_derivs.cache_info().misses == 2


#: name -> (memo, refused calls, each with the message it is refused with)
REFUSALS = {
    "jets": (targets._jets, [
        (lambda: LINE.one_sided_derivs(2.0, "left", 1), "point outside"),
        (lambda: LINE.one_sided_derivs(np.nan, "left", 1), "point outside"),
        (lambda: LINE.one_sided_derivs(0.0, "up", 1), "side must be"),
        (lambda: LINE.one_sided_derivs(0.0, "left", jets.MAX_ORDER + 1), "exceeds maximum"),
    ]),
    "jump data": (jump._jump_H, [
        (lambda: jump.build_jump_H([1.0], [1.0, 2.0]), "equal-length"),
        (lambda: jump.build_jump_H([], []), "equal-length"),
        (lambda: jump.build_jump_H([[1.0, 2.0]], [[1.0, 2.0]]), "equal-length"),
        (lambda: jump.build_jump_H(1.0, 1.0), "equal-length"),
        (lambda: jump.build_jump_H(np.zeros(jets.MAX_ORDER + 2),
                                   np.zeros(jets.MAX_ORDER + 2)), "exceeds maximum"),
    ]),
    "q derivatives": (jump._q_derivs, [
        (lambda: jump.q_derivs_at(1.5, "left", h_poly(), 3), "point outside"),
        (lambda: jump.q_derivs_at(np.nan, "left", h_poly(), 3), "point outside"),
        (lambda: jump.q_derivs_at(1.0, "up", h_poly(), 3), "side must be"),
        (lambda: jump.q_derivs_at(1.0, "left", h_poly(), -1), "must be nonnegative"),
        (lambda: jump.q_derivs_at(1.0, "left", h_poly(), jets.MAX_ORDER + 1), "exceeds maximum"),
        (lambda: jump.q_derivs_at(1.0, "left", h_poly(), 40), "exceeds maximum"),
    ]),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_a_refusal_is_raised_before_the_lookup_on_every_call(name):
    memo, refused = REFUSALS[name]
    before = memo.cache_info()
    for call, message in refused:
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                call()
    assert memo.cache_info() == before


def test_targets_with_one_name_and_other_pieces_keep_their_own_jets():
    twin = targets.PiecewiseTarget("_line", lambda u: u * u, lambda u: 1.0 - 3.0 * u, 0.0)
    forget_solves()
    for _ in range(2):
        for target in (LINE, twin):
            got = target.one_sided_derivs(-0.5, "left", 2)
            direct = jets.derivatives(target.left_piece(jets.jet_var(-0.5, 2)))
            assert got.tobytes() == direct.tobytes()
    assert targets._jets.cache_info().misses == 2
    assert LINE.one_sided_derivs(-0.5, "left", 2).tolist() == [-1.0, 2.0, 0.0]
    assert twin.one_sided_derivs(-0.5, "left", 2).tolist() == [0.25, -1.0, 2.0]


#: name -> (memo, the call with the i-th distinct key)
KEYED_CALLS = {
    "jets": (targets._jets, lambda i: LINE.one_sided_derivs(i / 128, "left", 2)),
    "jump data": (jump._jump_H, lambda i: jump.build_jump_H([float(i)], [0.0])),
    "q derivatives": (jump._q_derivs, lambda i: jump.q_derivs_at(i / 128, "left", h_poly(), 3)),
}


@pytest.mark.parametrize("name", KEYED_CALLS)
def test_each_endpoint_memo_holds_at_most_64_entries(name):
    memo, call = KEYED_CALLS[name]
    forget_solves()
    size = memo.cache_info().maxsize
    assert size == 64
    for i in range(size + 36):
        call(i)
    info = memo.cache_info()
    assert (info.currsize, info.misses) == (size, size + 36)
    # the oldest key was dropped and is computed again
    call(0)
    assert memo.cache_info().misses == size + 37
