"""Command-line driver for building networks and running the experiments.

Commands
--------
sign-curves       sample the deep sign approximation vs the truncated series
sign-convergence  L^p error vs depth, with the theoretical bound column
build             construct a piecewise network and write it as .fnet.json
eval              evaluate a serialized network on a uniform grid
convergence       L^2 error vs width for a target, plus series baseline rows
gibbs             oscillation support width vs depth

The build's quadrature rule follows from the mode count alone.  The
``--panels``/``--nodes``/``--grading`` flags of ``sign-convergence`` and
``convergence`` set the graded rule by which errors are measured.

All experiment output is CSV (comma separated, header row, LF endings).
Every float written to 17 digits is written as "%.17g" writes it, by
:mod:`fresnet.numtext`: the columns of ``sign-curves`` and ``eval`` by
:func:`~fresnet.numtext.write_csv`, formatted and written in blocks of
:data:`~fresnet.numtext.CSV_BLOCK` numbers; the few numbers of each
``sign-convergence``, ``convergence`` and ``gibbs`` row by
:func:`~fresnet.numtext.texts`, one "%.17g" each.  The ``wall_ms`` column
(".1f") and the SVG coordinates (".2f") are written outside it.  Optional
SVG charts are minimal polyline plots; the CSV is the contract.

Exit codes: 0 success, 2 usage / unknown name, 3 experiment assertion
failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import lru_cache, partial

import numpy as np

from . import network, numtext
from .builder import BuildSpec, build_piecewise_net
from .metrics import gibbs_profile, lp_error
from .quadrature import DEFAULT_QUAD, QuadratureConfig
from .sign import build_sign_net, sign_error_bound, truncated_sign_series
from .smooth import fourier_coeffs
from .targets import UnknownTargetError, target_lookup

EXIT_USAGE = 2
EXIT_ASSERTION = 3
EXIT_IO = 4

EXPERIMENT_HEADER = (
    "experiment,target,m,W,L,neurons,error_l1,error_l2,bound,wall_ms"
)


def _int_list(text: str):
    try:
        values = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one integer, got {text!r}")
    return values


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _write_csv(path: str, header, columns) -> None:
    """The CSV of equal-length float columns under their header."""
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        numtext.write_csv(fh, columns)


class _AssertionFailure(Exception):
    pass


def _quad_from_args(args) -> QuadratureConfig:
    return QuadratureConfig(args.panels, args.nodes, args.grading)


def _add_quad_flags(parser) -> None:
    """Flags of the measurement rule (the build rule follows from K)."""
    parser.add_argument("--panels", type=int, default=DEFAULT_QUAD.panels_per_side,
                        help="measurement quadrature panels per side")
    parser.add_argument("--nodes", type=int, default=DEFAULT_QUAD.nodes_per_panel,
                        help="measurement Gauss nodes per panel")
    parser.add_argument("--grading", type=float, default=DEFAULT_QUAD.grading_ratio,
                        help="measurement geometric grading ratio")


def _write_svg(path: str, xs, series: dict) -> None:
    """Minimal fixed-viewbox polyline chart."""
    width, height, margin = 800, 500, 50
    tx = np.asarray(xs, dtype=float)
    all_y = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    x_lo, x_hi = float(tx.min()), float(tx.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i, (label, ys) in enumerate(series.items()):
        ty = np.asarray(ys, dtype=float)
        px = margin + (tx - x_lo) / x_span * (width - 2 * margin)
        py = height - margin - (ty - y_lo) / y_span * (height - 2 * margin)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        color = colors[i % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        parts.append(
            f'<text x="{margin}" y="{margin + 16 * i}" fill="{color}" font-size="13">{label}</text>'
        )
    parts.append("</svg>")
    _write_lines(path, parts)


# -- commands -------------------------------------------------------------

def _grid(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("grid must be >= 1")
    return np.linspace(-1.0, 1.0, n)


def cmd_sign_curves(args) -> int:
    grid = _grid(args.grid)
    sgn = target_lookup("sgn")
    columns = {"x": grid, "sgn": sgn.eval(grid)}
    for d in args.depths:
        columns[f"resnet_L{d}"] = network.eval_grid(build_sign_net(d), grid)
    for d in args.depths:
        columns[f"series_L{d}"] = truncated_sign_series(d)(grid)
    _write_csv(args.out, columns, columns.values())
    if args.svg:
        _write_svg(
            args.svg, grid, {k: v for k, v in columns.items() if k != "x"}
        )
    return 0


def cmd_sign_convergence(args) -> int:
    if args.max_depth < 2:
        raise ValueError("max depth must be >= 2")
    quad = _quad_from_args(args)
    sgn = target_lookup("sgn")
    lines = ["ell,resnet_error,series_error,bound"]
    net = build_sign_net(args.max_depth)
    for ell in range(1, args.max_depth + 1):
        resnet_err = lp_error(
            sgn.eval, lambda x: network.eval_prefix(net, x, ell), args.p, quad
        )
        series_err = lp_error(sgn.eval, truncated_sign_series(ell), args.p, quad)
        bound = sign_error_bound(ell, args.p)
        if resnet_err > bound:
            raise _AssertionFailure(
                f"depth {ell}: measured error {resnet_err:.3e} exceeds bound {bound:.3e}"
            )
        lines.append(f"{ell}," + ",".join(numtext.texts((resnet_err, series_err, bound))))
    _write_lines(args.out, lines)
    return 0


def cmd_build(args) -> int:
    target = target_lookup(args.target)
    spec = BuildSpec(target, args.m, args.modes, args.depth)
    net = build_piecewise_net(spec)
    network.save(net, args.out)
    widths = [
        layer.g_branch.width + (layer.h_branch.width if layer.h_branch else 0)
        for layer in net.layers
    ]
    print(f"neurons: {network.neuron_count(net)}")
    print("layer widths: " + ",".join(str(w) for w in widths))
    return 0


def cmd_eval(args) -> int:
    grid = _grid(args.grid)
    net = network.load(args.net)
    _write_csv(args.out, ("x", "value"), (grid, network.eval_grid(net, grid)))
    return 0


def cmd_convergence(args) -> int:
    target = target_lookup(args.target)
    quad = _quad_from_args(args)
    lines = [EXPERIMENT_HEADER]
    for m in args.m:
        for half_modes in args.modes_list:
            w = 2 * half_modes
            t0 = time.perf_counter()
            spec = BuildSpec(target, m, half_modes, args.depth)
            net = build_piecewise_net(spec)
            err1, err2 = lp_error(
                target.eval, lambda x: network.eval_grid(net, x), (1.0, 2.0), quad
            )
            wall = (time.perf_counter() - t0) * 1e3
            errors = ",".join(numtext.texts((err1, err2)))
            lines.append(
                f"resnet,{target.name},{m},{w},{args.depth},"
                f"{network.neuron_count(net)},{errors},,{wall:.1f}"
            )
    for half_modes in args.modes_list:
        w = 2 * half_modes
        n_terms = 41 + w  # parameter count matched to the m = 4 deep network
        t0 = time.perf_counter()
        half = (n_terms - 1) // 2
        series = network.branch_from_modes(
            fourier_coeffs(target.eval, half), np.pi * np.arange(-half, half + 1)
        )
        err1, err2 = lp_error(target.eval, series, (1.0, 2.0), quad)
        wall = (time.perf_counter() - t0) * 1e3
        errors = ",".join(numtext.texts((err1, err2)))
        lines.append(f"fourier_baseline,{target.name},0,{w},0,{n_terms},{errors},,{wall:.1f}")
    _write_lines(args.out, lines)
    return 0


def cmd_gibbs(args) -> int:
    if sorted(args.depths) != args.depths:
        raise _AssertionFailure("depths must be sorted ascending")
    target = target_lookup(args.target)
    lines = ["L,support_width,max_overshoot"]
    target_vals = target.eval(np.linspace(-1, 1, 4001))
    lo, hi = float(np.min(target_vals)), float(np.max(target_vals))
    # each net is built only when the profile asks for it, and named by its
    # depth in an error
    approxes = ((f"L={depth}", partial(network.eval_grid, build_piecewise_net(
        BuildSpec(target, args.m, args.modes, depth)))) for depth in args.depths)
    profile = gibbs_profile(target.eval, approxes, args.threshold, lo, hi)
    widths = []
    for depth, (width, over) in zip(args.depths, profile):
        widths.append(width)
        lines.append(f"{depth}," + ",".join(numtext.texts((width, over))))
    _write_lines(args.out, lines)
    if len(widths) > 1 and any(b > a for a, b in zip(widths, widths[1:])):
        raise _AssertionFailure(f"support widths not non-increasing: {widths}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fresnet",
        description="Fourier residual network construction and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sign-curves", help="sample sign approximations")
    p.add_argument("--depths", type=_int_list, required=True)
    p.add_argument("--grid", type=int, default=2001)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_sign_curves)

    p = sub.add_parser("sign-convergence", help="L^p error vs depth")
    p.add_argument("--max-depth", type=int, required=True)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--out", required=True)
    _add_quad_flags(p)
    p.set_defaults(func=cmd_sign_convergence)

    p = sub.add_parser("build", help="build a piecewise network")
    p.add_argument("--target", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--modes", type=int, required=True, help="half mode count K (W = 2K)")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("eval", help="evaluate a serialized network")
    p.add_argument("--net", required=True)
    p.add_argument("--grid", type=int, default=2001)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("convergence", help="error vs width experiment")
    p.add_argument("--target", required=True)
    p.add_argument("--m", type=_int_list, required=True)
    p.add_argument("--modes-list", type=_int_list, required=True, help="half mode counts K")
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--out", required=True)
    _add_quad_flags(p)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("gibbs", help="oscillation support vs depth")
    p.add_argument("--target", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--depths", type=_int_list, required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gibbs)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # building the parser takes about 2 ms, a fifth of a small convergence
    # cell, and parsing leaves it unchanged, so a process builds it once
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UnknownTargetError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _AssertionFailure as exc:
        print(f"experiment failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
