"""Top-level API: exactly the documented names, and a README quick start that runs."""

import re
from pathlib import Path

import fresnet

README = Path(__file__).resolve().parents[1] / "README.md"

DOCUMENTED = {
    "BuildSpec",
    "build_piecewise_net",
    "component_views",
    "PiecewiseTarget",
    "target_lookup",
    "register_target",
    "registered_names",
    "FourierResNet",
    "eval_grid",
    "lp_error",
    "neuron_count",
    "serialize",
    "deserialize",
    "save",
    "load",
    "NetworkFormatError",
}


def quick_start_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]


def test_all_is_the_documented_surface():
    assert sorted(fresnet.__all__) == sorted(DOCUMENTED)
    namespace = {}
    exec("from fresnet import *", namespace)
    for name in fresnet.__all__:
        assert namespace[name] is getattr(fresnet, name)
    section = quick_start_section()
    for name in DOCUMENTED:
        assert f"`{name}`" in section, name


def test_readme_quick_start_runs_from_the_top_level():
    code = re.search(r"```python\n(.*?)```", quick_start_section(), re.S).group(1)
    imports = [line for line in code.splitlines() if re.match(r"(import|from)\s", line)]
    assert imports and all(line.startswith("from fresnet import ") for line in imports)
    namespace = {}
    exec(code, namespace)
    assert 0 < namespace["err"] < 2e-3
