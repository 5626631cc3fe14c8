"""Print sha256 hashes of the bits fresnet builds, evaluates and writes.

    python3 tools/bitcheck.py [ROOT]

ROOT is a fresnet source tree (default: the one holding this script); its
``src`` and ``tests`` directories go first on the import path, so the same
script checks any commit: two trees whose five lines agree build
byte-identical nets, evaluate them to the same bits, write the same
text for any number and load back the same nets.

* ``serialize``: the text of every registered target's net at m 1..12 and
  K in {0, 1, 5, 11, 12, 13, 64, 512}, L = 60.
* ``eval``: ``eval_grid`` on those nets at m 1, 4, 12 over about 31,000
  finite points (``tests/test_forward.py``'s tricky points, uniform points
  near and far, huge values, subnormals, signed zeros) in both orders; the
  first and last layers' branches alone; a pw_smooth net on
  3 TRIG_CHUNK + 17 points; sign nets of depth 1, 2 and 20.  A non-finite
  input must give NaN, with no floating-point warning.
* ``extra``: ``eval_prefix`` at every depth of sign stacks whose amplitudes
  are 2^-950, 2^-1000, 2^-1070 (rescaled plans) and 1, fed +-0, +-5e-324,
  +-2^-1..2^-1074 and tricky points, in both orders; and the sign-stack run
  ``network._iterate`` called directly on unsorted input.
* ``edges``: ``serialize`` of a one-layer net whose branch holds the
  302,479 values of ``tests/edge_floats.py`` in each of its three arrays,
  the second in reverse order: random bit patterns, subnormals, huge
  values, powers of ten and their neighbours, whole numbers near 2^53,
  1e16 and 1e17, exact ties at 17 digits, signed zeros, +-5e-324 and
  +-max.  That module comes from this script's own tree when ROOT has
  none, so this line needs only the public API.
* ``loaded``: each ``serialize`` net after a ``serialize`` ->
  ``deserialize`` round trip: its text again, and ``eval_grid`` on the
  ``eval`` points.  Public API only, like ``edges``.
* ``csv``: the CSV text of the README's CLI examples (``sign-curves``,
  ``sign-convergence``, ``build`` then ``eval``, ``convergence`` and
  ``gibbs``), run in process by ``fresnet.cli.main``, with ``convergence``
  run on every registered target and its ``wall_ms`` column dropped.

Takes about ten seconds; prints one line per hash.
"""

import contextlib
import hashlib
import io
import math
import pathlib
import sys
import tempfile
import warnings

import numpy as np

ROOT = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else pathlib.Path(__file__).parent.parent)
sys.path[:0] = [str(ROOT.resolve() / "src"), str(ROOT.resolve() / "tests")]
sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

from fresnet import cli, network  # noqa: E402
from fresnet.builder import BuildSpec, build_piecewise_net  # noqa: E402
from fresnet.network import Branch, FourierResNet, Layer  # noqa: E402
from fresnet.sign import build_sign_net  # noqa: E402
from fresnet.targets import registered_names, target_lookup  # noqa: E402
from edge_floats import edge_floats  # noqa: E402
from test_forward import tricky_points  # noqa: E402

KS = (0, 1, 5, 11, 12, 13, 64, 512)

#: The README's CLI examples, each with the CSV it writes; "{}" is the
#: output directory.
CLI_EXAMPLES = [
    (["sign-curves", "--depths", "3,7", "--out", "{}/curves.csv", "--svg", "{}/curves.svg"],
     "curves.csv"),
    (["sign-convergence", "--max-depth", "20", "--p", "1", "--out", "{}/conv.csv"], "conv.csv"),
    (["build", "--target", "pw_smooth", "--m", "2", "--modes", "32", "--depth", "20",
      "--out", "{}/net.fnet.json"], None),
    (["eval", "--net", "{}/net.fnet.json", "--grid", "2001", "--out", "{}/vals.csv"], "vals.csv"),
    *((["convergence", "--target", name, "--m", "1,2,3,4", "--modes-list", "5,10,20,40,80",
        "--out", "{}/rates.csv"], "rates.csv") for name in registered_names()),
    (["gibbs", "--target", "pw_smooth", "--m", "1", "--modes", "5", "--depths", "3,4,5,6,7",
      "--threshold", "0.02", "--out", "{}/gibbs.csv"], "gibbs.csv"),
]


def csv_hash() -> str:
    """The sha256 of the CSV text of :data:`CLI_EXAMPLES`, with the
    ``wall_ms`` column, the last of the experiment header, dropped."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for argv, csv in CLI_EXAMPLES:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([arg.replace("{}", tmp) for arg in argv])
            assert code == 0, (argv, code)
            if csv is None:
                continue
            lines = pathlib.Path(tmp, csv).read_text(encoding="utf-8").splitlines()
            if lines[0] == cli.EXPERIMENT_HEADER:
                lines = [line.rsplit(",", 1)[0] for line in lines]
            digest.update(("\n".join(lines) + "\n").encode())
    return digest.hexdigest()


def main():
    ser = hashlib.sha256()
    ev = hashlib.sha256()
    loaded = hashlib.sha256()
    rng = np.random.default_rng(123)
    pts = np.concatenate([tricky_points(), tricky_points(500, seed=7),
                          rng.uniform(-1, 1, 20000), rng.uniform(-1e6, 1e6, 2000),
                          rng.uniform(-40, 40, 2000),
                          [1e300, -1e300, 2.0**53, 5e-324, -0.0, 0.0]])
    nonfin = np.array([np.inf, -np.inf, np.nan, -np.nan, 0.5])
    for name in registered_names():
        for m in range(1, 13):
            for K in KS:
                net = build_piecewise_net(BuildSpec(target_lookup(name), m, K, 60))
                text = network.serialize(net)
                ser.update(text.encode())
                again = network.deserialize(text)
                loaded.update(network.serialize(again).encode())
                loaded.update(network.eval_grid(again, pts).tobytes())
                if m not in (1, 4, 12):
                    continue
                ev.update(network.eval_grid(net, pts).tobytes())
                ev.update(network.eval_grid(net, pts[::-1].copy()).tobytes())
                brs = [net.layers[0].g_branch, net.layers[-1].g_branch]
                brs += [lay.h_branch for lay in net.layers[1:2] + net.layers[-1:] if lay.h_branch]
                for br in brs:
                    ev.update(np.asarray(br(pts[:3000])).tobytes())
                    ev.update(np.asarray(br(pts[5])).tobytes())
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    out = network.eval_grid(net, nonfin)
                assert np.isnan(out[:4]).all() and np.isfinite(out[4]), (name, m, K, out)
    net = build_piecewise_net(BuildSpec(target_lookup("pw_smooth"), 4, 512, 60))
    big = rng.uniform(-1, 1, 3 * network.TRIG_CHUNK + 17)
    ev.update(network.eval_grid(net, big).tobytes())
    ev.update(net.layers[-1].g_branch(big).tobytes())
    ev.update(net.layers[-1].h_branch(big.reshape(-1, 1)).tobytes())
    for d in (1, 2, 20):
        ev.update(network.eval_grid(build_sign_net(d), pts).tobytes())
    print("serialize", ser.hexdigest())
    print("eval     ", ev.hexdigest())

    extra = hashlib.sha256()
    powers = 2.0 ** -np.arange(1, 1075)
    small = np.concatenate([[0.0, -0.0, 5e-324, -5e-324], powers, -powers, pts[:2000]])
    for scale in (2.0 ** -950, 2.0 ** -1000, 2.0 ** -1070, 1.0):
        first = Layer(Branch((math.pi / 2,), (scale,), (0.0,)))
        h = Branch((math.pi,), (scale / math.pi,), (0.0,))
        stack = FourierResNet((first, *[Layer(Branch((), (), ()), h)] * 40))
        for ell in range(1, stack.depth + 1):
            extra.update(network.eval_prefix(stack, small, ell).tobytes())
            extra.update(network.eval_prefix(stack, small[::-1].copy(), ell).tobytes())
    h = build_sign_net(60).layers[1].h_branch
    for seed in range(5):
        f = np.random.default_rng(seed).uniform(-1.5, 1.5, 5000)
        f[::97] = -0.0
        extra.update(network._iterate(h, f, 59).tobytes())
    print("extra    ", extra.hexdigest())

    values = tuple(edge_floats().tolist())
    net = FourierResNet((Layer(Branch(values, values[::-1], values)),))
    print("edges    ", hashlib.sha256(network.serialize(net).encode()).hexdigest())
    print("loaded   ", loaded.hexdigest())
    print("csv      ", csv_hash())


if __name__ == "__main__":
    main()
