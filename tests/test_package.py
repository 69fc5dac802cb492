"""The package's surface: what `import actrsim` exports, and the README's use of it."""

from __future__ import annotations

import importlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import actrsim
from actrsim.experiment import builtin_model_text

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PUBLISHED = ROOT / "bench" / "published"

EXPORTS = [
    "Engine", "Program", "compile_model", "TraceEntry", "Instantiation", "Chunk",
    "format_trace_entry",
    "parse_model", "validate_model", "format_model", "ModelAST", "Production",
    "BufferTest", "Annotation", "ChunkType",
    "RandomCostUtility", "ReinforcementUtility", "SuccessCostUtility", "EngineError",
]

# names the package no longer re-exports, each still importable from its module
MODULE_NAMES = [
    ("buffers", "BufferSystem"),
    ("chunks", "ChunkStore"),
    ("scheduler", "Event"),
    ("scheduler", "EventQueue"),
    ("strategies", "draw_random_cost"),
    ("strategies", "refraction_prune"),
    ("strategies", "reinforcement_update"),
    ("strategies", "sc_recompute"),
    ("strategies", "select_winner"),
]


def run_python(code, cwd):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_the_package_exports_the_library_and_only_it():
    assert sorted(actrsim.__all__) == sorted(EXPORTS)
    for name in actrsim.__all__:
        assert getattr(actrsim, name) is not None


@pytest.mark.parametrize("module, name", MODULE_NAMES)
def test_a_name_the_package_dropped_still_imports_from_its_module(module, name):
    assert hasattr(importlib.import_module(f"actrsim.{module}"), name)
    assert name not in actrsim.__all__ and not hasattr(actrsim, name)


def test_importing_the_package_leaves_the_buffer_system_unloaded(tmp_path):
    result = run_python("import sys, actrsim; print('actrsim.buffers' in sys.modules)",
                        tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_the_readme_library_examples_run(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", library, re.S)
    assert len(blocks) == 2
    (tmp_path / "my.model").write_text(builtin_model_text(), encoding="utf-8")
    result = run_python("\n".join(blocks), tmp_path)  # the second reuses the first's names
    assert result.returncode == 0, result.stderr
    assert "play-paper" in result.stdout


def test_the_cli_imports_no_stdlib_it_does_not_use(tmp_path):
    # -S: without site, which on some hosts preloads modules of its own
    result = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, actrsim.cli; print(*sorted(sys.modules))"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "actrsim.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "importlib.resources", "json"}


def test_the_bundled_data_is_found_beside_the_package(tmp_path):
    # a copy of the package, run from another directory: the data is found
    # relative to the package, not to the checkout or the working directory
    shutil.copytree(SRC / "actrsim", tmp_path / "lib" / "actrsim",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "elsewhere").mkdir()
    result = subprocess.run(
        [sys.executable, "-S", "-m", "actrsim.cli", "run", "--player", "2"],
        cwd=tmp_path / "elsewhere", env={**os.environ, "PYTHONPATH": str(tmp_path / "lib")},
        capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == (PUBLISHED / "reinforcement-player2.csv").read_text(encoding="utf-8")
