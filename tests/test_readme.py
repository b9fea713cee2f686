import json
import re
import shlex
from pathlib import Path

import pytest

from urncount.cli import build_parser
from urncount.harness import load_experiment_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(capsys):
    # the README's python block imports only from the package root, so a name
    # dropped from urncount/__init__ fails here
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    result = namespace["result"]
    assert result.c_seen <= result.c_hat <= 10_000
    assert capsys.readouterr().out.count("\n") == 2


def _config_example() -> str:
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_config_example_loads():
    # a change to the config keys that leaves the README's example stale fails here
    cfg = load_experiment_config(_config_example())
    assert cfg.urn_source[0] == "uniform"


@pytest.mark.parametrize("key", ["urn", "n_grid", "trials"])
def test_config_example_needs_each_required_key(key):
    obj = json.loads(_config_example())
    del obj[key]
    with pytest.raises(ValueError, match=rf"^config: missing key '{key}'$"):
        load_experiment_config(json.dumps(obj))


def test_cli_examples_parse():
    # a flag renamed or removed without the README's examples following fails here
    lines = [line for line in README.read_text().splitlines() if line.startswith("urncount ")]
    assert len(lines) == 9
    for line in lines:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])
