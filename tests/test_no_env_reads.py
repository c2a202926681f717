"""The simulation layers read no environment variables.

A result may not depend on process-global state, and an environment
variable read inside the engine, the network, TCP or congestion
control is exactly that: two runs of the same cell could differ by
what the shell exported.  Knobs belong in explicit arguments or module
constants.  This scans the source of those packages for any access to
``os.environ``/``os.environb``/``os.getenv`` (however ``os`` or the
name is imported).
"""

import ast
import pathlib

import pytest

import repro

LAYERS = ("sim", "net", "tcp", "core")
_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _env_reads(path: pathlib.Path):
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _ENV_NAMES:
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in _ENV_NAMES for alias in node.names):
                yield node.lineno


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_reads_no_environment(layer):
    package = pathlib.Path(repro.__file__).parent / layer
    sources = sorted(package.rglob("*.py"))
    assert sources, f"no sources found under {package}"
    found = [f"{path.relative_to(package.parent)}:{line}"
             for path in sources for line in _env_reads(path)]
    assert found == []
