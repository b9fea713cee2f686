import re
from pathlib import Path

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
