"""What ``import recgraph`` offers, and the README's library and CLI examples against it."""

import re
import shlex

import recgraph
from recgraph.cli import build_parser, resolve_config

from conftest import REPO_ROOT
from oracles import random_ratings, write_movielens_tab

PUBLIC = [
    "ConfigError",
    "DegenerateModelError",
    "EmptyDatasetError",
    "FitError",
    "GraphMismatchError",
    "InvalidDistributionError",
    "ParseError",
    "RecgraphError",
    "RecommenderGraph",
    "SynthConfig",
    "UndefinedMetricError",
    "UnknownNodeError",
    "__version__",
    "apply_jump",
    "generate_power_law_bipartite",
    "generate_wreath",
    "joint_degree_distribution",
    "load_ratings",
    "measure_l_pp",
    "measure_l_r_l_pm",
    "predict_l_r",
    "rewire",
]


def readme_examples() -> list:
    """The Python code blocks of README.md, in order."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def test_all_lists_the_readme_names_and_errors():
    assert sorted(recgraph.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(recgraph, name, None) is not None, name


def test_readme_library_examples_run(tmp_path, capsys):
    path = tmp_path / "u.data"
    write_movielens_tab(random_ratings(8, max_people=30, max_movies=20), path)
    first, second = readme_examples()
    assert '"data/ml-100k/u.data"' in first
    scope = {}
    exec(first.replace("data/ml-100k/u.data", str(path)), scope)
    assert scope["gr"].social.edge_count > 0
    measured, predicted = capsys.readouterr().out.split()
    assert float(measured) == scope["measured"].l_r
    assert float(predicted) == scope["predicted"] > 0
    exec(second, {})


def readme_commands() -> list:
    """The ``recgraph ...`` lines of README.md's sh blocks, split into argv lists."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", text, flags=re.DOTALL)
    lines = [line for block in blocks for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("recgraph ")]


def test_readme_cli_examples_parse_and_resolve():
    # the examples read a data file a checkout lacks, so each is resolved, not run
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["stats", "sweep", "synth-study", "ws", "cdf"]
    for argv in commands:
        cfg = resolve_config(build_parser().parse_args(argv))
        assert cfg.command == argv[0]
