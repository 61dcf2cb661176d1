"""Each entry point loads only the modules it runs.

A fresh interpreter imports the entry module, then reports which of a
list of heavy or unrelated modules landed in ``sys.modules``.  The
package ``__init__`` files import nothing, so the re-export hubs that
once pulled the whole package into every process cannot grow back.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

WHATIF_UNUSED = (
    "scipy.signal",
    "scipy.stats",
    "networkx",
    "repro.telemetry",
    "repro.bvt",
    "repro.engine",
    "repro.core",
)

#: the controller runs are plain loops: no event kernel, no sources
CONTROLLER_RUN_UNUSED = ("repro.engine.kernel", "repro.engine.sources")


def loaded(entry: str, candidates: tuple[str, ...]) -> list[str]:
    """The ``candidates`` a fresh ``import entry`` puts in sys.modules."""
    probe = (
        "import json, sys\n"
        f"import {entry}\n"
        f"print(json.dumps([m for m in {list(candidates)!r} if m in sys.modules]))\n"
    )
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "entry, unused",
    [
        ("repro.sim.whatif", WHATIF_UNUSED),
        ("repro.sim.network_availability", WHATIF_UNUSED),
        ("repro.core.controller", ("scipy.signal", "networkx", "repro.sim")),
        ("repro.sim.replay", CONTROLLER_RUN_UNUSED),
        ("repro.sim.reactive", CONTROLLER_RUN_UNUSED),
    ],
)
def test_fresh_process_imports_only_what_it_runs(entry, unused):
    assert loaded(entry, unused) == []


@pytest.mark.parametrize(
    "init",
    sorted((SRC / "repro").rglob("__init__.py")),
    ids=lambda p: str(p.parent.relative_to(SRC)),
)
def test_package_init_imports_no_repro_module(init):
    tree = ast.parse(init.read_text(encoding="utf-8"))
    imported = [
        node.module or "." * node.level
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "repro")
    ] + [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] == "repro"
    ]
    assert imported == [], f"{init} imports {imported}; import from the defining module"
