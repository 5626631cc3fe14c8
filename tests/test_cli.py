"""CLI: in-process invocation, CSV shape, exit codes, determinism."""

import numpy as np
import pytest

from fresnet.builder import BuildSpec, build_piecewise_net
from fresnet import cli
from fresnet.cli import EXIT_ASSERTION, EXIT_IO, EXIT_USAGE, main
from fresnet.targets import target_lookup
from oracles import serialize_plain


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_sign_curves(tmp_path):
    out = tmp_path / "curves.csv"
    svg = tmp_path / "curves.svg"
    rc = main(
        ["sign-curves", "--depths", "3,7", "--grid", "101", "--out", str(out), "--svg", str(svg)]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["x", "sgn", "resnet_L3", "resnet_L7", "series_L3", "series_L7"]
    assert len(rows) == 101
    assert float(rows[0][0]) == -1.0
    assert svg.read_text().startswith("<svg")


def test_sign_convergence_bound_column(tmp_path):
    out = tmp_path / "conv.csv"
    assert main(["sign-convergence", "--max-depth", "10", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["ell", "resnet_error", "series_error", "bound"]
    assert len(rows) == 10
    for row in rows:
        assert float(row[1]) <= float(row[3])


def test_build_then_eval(tmp_path, capsys):
    net_path = tmp_path / "net.fnet.json"
    rc = main(
        ["build", "--target", "hat", "--m", "1", "--modes", "4", "--depth", "5",
         "--out", str(net_path)]
    )
    assert rc == 0
    captured = capsys.readouterr().out
    assert "neurons: 22" in captured  # 5 + 8 + 1 + 8
    out = tmp_path / "vals.csv"
    assert main(["eval", "--net", str(net_path), "--grid", "51", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["x", "value"]
    assert len(rows) == 51


def test_unknown_target_exit_code(tmp_path):
    rc = main(
        ["build", "--target", "bogus", "--m", "1", "--modes", "4", "--depth", "5",
         "--out", str(tmp_path / "x.json")]
    )
    assert rc == EXIT_USAGE


def test_eval_missing_file_exit_code(tmp_path):
    rc = main(["eval", "--net", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o.csv")])
    assert rc == EXIT_IO


def test_out_under_missing_directory_exit_code(tmp_path, capsys):
    # build writes through network.save, eval through the CSV writer
    build = ["build", "--target", "hat", "--m", "1", "--modes", "4", "--depth", "5", "--out"]
    net_path = tmp_path / "net.fnet.json"
    assert main(build + [str(net_path)]) == 0
    missing = tmp_path / "missing"
    for argv in (build + [str(missing / "net.json")],
                 ["eval", "--net", str(net_path), "--out", str(missing / "vals.csv")]):
        capsys.readouterr()
        assert main(argv) == EXIT_IO
        assert capsys.readouterr().err.startswith("I/O error:")
    assert not missing.exists()


def test_convergence_rows_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["convergence", "--target", "hat", "--m", "1", "--modes-list", "4,8",
            "--depth", "6"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    header, rows = read_csv(out1)
    assert header == ["experiment", "target", "m", "W", "L", "neurons",
                      "error_l1", "error_l2", "bound", "wall_ms"]
    kinds = [r[0] for r in rows]
    assert kinds == ["resnet", "resnet", "fourier_baseline", "fourier_baseline"]
    # baseline parameter budget: 41 + W terms
    assert int(rows[2][5]) == 41 + 8
    # byte-identical except for the wall-clock column
    _, rows2 = read_csv(out2)
    for r1, r2 in zip(rows, rows2):
        assert r1[:-1] == r2[:-1]


def test_parser_built_once_carries_nothing_between_calls(tmp_path, capsys):
    """main reuses one parser per process: repeated calls write the same
    bytes (bar the wall-clock column), a measuring rule given to one call
    does not reach the next, and a bad flag is still a usage error."""
    args = ["convergence", "--target", "hat", "--m", "2", "--modes-list", "8", "--depth", "6"]
    fine = ["--panels", "128", "--nodes", "16"]
    outs = [tmp_path / f"{i}.csv" for i in range(4)]
    assert main(args + ["--out", str(outs[0])]) == 0
    assert main(args + fine + ["--out", str(outs[1])]) == 0
    with pytest.raises(SystemExit) as exc:
        main(args + ["--out", str(outs[2]), "--bogus"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert main(args + ["--out", str(outs[2])]) == 0
    assert main(args + fine + ["--out", str(outs[3])]) == 0

    def without_wall_ms(path):
        return b"\n".join(line.rsplit(b",", 1)[0] for line in path.read_bytes().split(b"\n"))

    assert without_wall_ms(outs[0]) == without_wall_ms(outs[2])
    assert without_wall_ms(outs[1]) == without_wall_ms(outs[3])
    assert without_wall_ms(outs[0]) != without_wall_ms(outs[1])
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli._parser()


def test_gibbs_command(tmp_path):
    out = tmp_path / "gibbs.csv"
    rc = main(
        ["gibbs", "--target", "pw_smooth", "--m", "1", "--modes", "5",
         "--depths", "3,5,7", "--threshold", "0.02", "--out", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["L", "support_width", "max_overshoot"]
    widths = [float(r[1]) for r in rows]
    assert widths == sorted(widths, reverse=True)


def test_gibbs_evaluates_each_net_and_the_target_once(tmp_path, monkeypatch):
    from fresnet import network
    from fresnet.metrics import DEFAULT_GRID_N, gibbs_support_width, max_overshoot
    from fresnet.targets import PiecewiseTarget

    target = target_lookup("pw_smooth")
    # the CSV, from the one-quantity diagnostics on the same nets
    lo, hi = (f(target.eval(np.linspace(-1, 1, 4001))) for f in (np.min, np.max))
    want = ["L,support_width,max_overshoot"]
    for depth in (4, 8):
        net = build_piecewise_net(BuildSpec(target, 1, 20, depth))
        approx = lambda x: network.eval_grid(net, x)  # noqa: E731
        want.append(f"{depth},{gibbs_support_width(target.eval, approx, 0.02):.17g},"
                    f"{max_overshoot(approx, float(lo), float(hi)):.17g}")
    # the build evaluates the target too, so count the diagnostic grid's calls
    grid_n = DEFAULT_GRID_N - 1
    calls = {"net": 0, "target": 0}
    eval_grid, target_eval = network.eval_grid, PiecewiseTarget.eval

    def counting_eval_grid(net, xs):
        calls["net"] += np.size(xs) == grid_n
        return eval_grid(net, xs)

    def counting_target_eval(self, x):
        calls["target"] += np.size(x) == grid_n
        return target_eval(self, x)

    monkeypatch.setattr(network, "eval_grid", counting_eval_grid)
    monkeypatch.setattr(PiecewiseTarget, "eval", counting_target_eval)
    out = tmp_path / "gibbs.csv"
    rc = main(["gibbs", "--target", "pw_smooth", "--m", "1", "--modes", "20",
               "--depths", "4,8", "--threshold", "0.02", "--out", str(out)])
    assert rc == 0
    assert calls == {"net": 2, "target": 1}
    assert out.read_text() == "\n".join(want) + "\n"


def test_gibbs_unsorted_depths_rejected(tmp_path):
    rc = main(
        ["gibbs", "--target", "pw_smooth", "--m", "1", "--modes", "5",
         "--depths", "7,3", "--threshold", "0.02", "--out", str(tmp_path / "g.csv")]
    )
    assert rc == EXIT_ASSERTION


def test_float_formatting_round_trips(tmp_path):
    out = tmp_path / "vals.csv"
    net_path = tmp_path / "net.json"
    main(["build", "--target", "pw_smooth", "--m", "2", "--modes", "6", "--depth", "5",
          "--out", str(net_path)])
    main(["eval", "--net", str(net_path), "--grid", "11", "--out", str(out)])
    _, rows = read_csv(out)
    from fresnet import network

    net = network.load(net_path)
    xs = np.array([float(row[0]) for row in rows])
    vals = network.eval_grid(net, xs)
    for row, v in zip(rows, vals):
        assert float(row[1]) == v  # 17 digits: exact round trip


def test_built_file_matches_per_value_serializer(tmp_path):
    net_path = tmp_path / "net.fnet.json"
    assert main(["build", "--target", "pw_smooth", "--m", "4", "--modes", "512",
                 "--depth", "60", "--out", str(net_path)]) == 0
    net = build_piecewise_net(BuildSpec(target_lookup("pw_smooth"), 4, 512, 60))
    assert net_path.read_bytes() == serialize_plain(net).encode("utf-8")


def test_usage_error_on_bad_int_list(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sign-curves", "--depths", "3,x", "--out", "o.csv"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["convergence", "--target", "hat", "--m", ",", "--modes-list", "8"],
    ["convergence", "--target", "hat", "--m", "1", "--modes-list", ","],
    ["gibbs", "--target", "hat", "--m", "1", "--modes", "4", "--depths", ",",
     "--threshold", "0.02"],
    ["sign-curves", "--depths", ""],
])
def test_usage_error_on_empty_int_list(argv, tmp_path, capsys):
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    assert "expected at least one integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["build", "--target", "hat", "--m", "1", "--modes", "4", "--depth", "5"],
    ["gibbs", "--target", "hat", "--m", "1", "--modes", "4", "--depths", "3",
     "--threshold", "0.02"],
])
def test_build_rule_flags_are_gone(argv, tmp_path, capsys):
    # the build rule follows from --modes; only measuring commands take a rule
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "o"), "--panels", "8"])
    assert exc.value.code == 2


def test_convergence_flags_set_only_the_measurement_rule(tmp_path):
    from fresnet import network
    from fresnet.builder import BuildSpec, build_piecewise_net
    from fresnet.metrics import lp_error
    from fresnet.quadrature import QuadratureConfig
    from fresnet.targets import target_lookup

    out = tmp_path / "conv.csv"
    assert main(["convergence", "--target", "hat", "--m", "2", "--modes-list", "8",
                 "--depth", "6", "--panels", "128", "--nodes", "16", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    # the network built without any rule, measured by the rule of the flags
    t = target_lookup("hat")
    net = build_piecewise_net(BuildSpec(t, 2, 8, 6))
    want = lp_error(t.eval, lambda x: network.eval_grid(net, x), (1.0, 2.0),
                    QuadratureConfig(128, 16, 0.7))
    assert (float(rows[0][6]), float(rows[0][7])) == want


def test_sign_curves_gibbs_contrast(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["sign-curves", "--depths", "5,20", "--grid", "2001", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    cols = {name: [float(r[i]) for r in rows] for i, name in enumerate(header)}
    zero_idx = cols["x"].index(0.0)
    assert cols["resnet_L5"][zero_idx] == 0.0
    assert cols["resnet_L20"][zero_idx] == 0.0
    assert max(cols["resnet_L20"]) <= 1.0
    assert max(cols["series_L20"]) > 1.0


def test_sign_convergence_rates_from_emitted_csv(tmp_path):
    from fresnet.metrics import fit_rate

    out = tmp_path / "sc.csv"
    assert main(["sign-convergence", "--max-depth", "20", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert float(rows[4][1]) <= 0.125  # ell = 5
    ells = [float(r[0]) for r in rows]
    resnet = fit_rate([2.0**e for e in ells], [float(r[1]) for r in rows])
    assert resnet.slope <= -0.9
    series = fit_rate(ells, [float(r[2]) for r in rows])
    assert -1.3 <= series.slope <= -0.7


def test_build_prints_published_neuron_count(tmp_path, capsys):
    rc = main(["build", "--target", "pw_smooth", "--m", "1", "--modes", "3",
               "--depth", "5", "--out", str(tmp_path / "n.json")])
    assert rc == 0
    assert "neurons: 20" in capsys.readouterr().out


def test_build_order_too_large_names_max_order(tmp_path, capsys):
    rc = main(["build", "--target", "hat", "--m", "13", "--modes", "4",
               "--depth", "5", "--out", str(tmp_path / "n.json")])
    assert rc == EXIT_USAGE
    assert "max_order" in capsys.readouterr().err


def test_convergence_baseline_rate(tmp_path):
    from fresnet.metrics import fit_rate

    out = tmp_path / "conv.csv"
    assert main(["convergence", "--target", "pw_smooth", "--m", "1",
                 "--modes-list", "5,10,20,40", "--depth", "6", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    base = [(float(r[5]), float(r[6])) for r in rows if r[0] == "fourier_baseline"]
    fit = fit_rate([n for n, _ in base], [e for _, e in base])
    assert -1.6 <= fit.slope <= -0.4  # jump-limited algebraic baseline rate


def test_gibbs_large_threshold_and_singleton(tmp_path):
    out = tmp_path / "g.csv"
    rc = main(["gibbs", "--target", "pw_smooth", "--m", "1", "--modes", "5",
               "--depths", "4,5", "--threshold", "50.0", "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    assert all(float(r[1]) == 0.0 for r in rows)
    rc = main(["gibbs", "--target", "pw_smooth", "--m", "1", "--modes", "5",
               "--depths", "4", "--threshold", "0.02", "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    assert len(rows) == 1
