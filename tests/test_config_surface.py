"""Constructor arguments and CLI flags are the only configuration route.

No module under ``src/repro`` may touch the process environment: an
environment variable is a second, untested way to set a value that an
argument or a module constant already sets.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: ``os`` members that read or write the process environment.
ENV_MEMBERS = frozenset(
    {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}
)


def env_uses(source: str) -> list[tuple[int, str]]:
    """(line, construct) for every environment access in ``source``."""
    tree = ast.parse(source)
    os_names = {"os"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            os_names.update(
                alias.asname or alias.name
                for alias in node.names
                if alias.name == "os"
            )
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ENV_MEMBERS
            and isinstance(node.value, ast.Name)
            and node.value.id in os_names
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend(
                (node.lineno, f"from os import {alias.name}")
                for alias in node.names
                if alias.name in ENV_MEMBERS or alias.name == "*"
            )
    return found


def test_detector_flags_every_form():
    source = "\n".join(
        (
            "import os",
            "import os as _os",
            "from os import environ",
            "from os import getenv as g",
            "os.environ.get('X')",
            "os.getenv('X')",
            "os.putenv('X', '1')",
            "_os.environ['X']",
            "os.getpid()",
        )
    )
    assert sorted(line for line, _ in env_uses(source)) == [3, 4, 5, 6, 7, 8]


def test_src_never_touches_the_environment():
    files = sorted(SRC.rglob("*.py"))
    assert files, f"no sources under {SRC}"
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}: {construct}"
        for path in files
        for line, construct in env_uses(path.read_text(encoding="utf-8"))
    ]
    assert not offenders, "environment access in src:\n" + "\n".join(
        offenders
    )
