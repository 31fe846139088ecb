"""Import boundary of the reference oracle.

:mod:`repro.reference` is a test oracle, not a runtime alternative: no
production module may import it.  Only ``repro.benchmark`` (the
``bench data`` equality gate) does.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
ORACLE = "repro.reference"
ALLOWED = {"repro.benchmark", ORACLE}


def _module_name(path: Path) -> str:
    parts = ["repro", *path.relative_to(SRC).with_suffix("").parts]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_modules(path: Path, module: str) -> set[str]:
    """Absolute names of every module ``path`` imports, with relative
    imports resolved and ``from pkg import name`` counted as both
    ``pkg`` and ``pkg.name``."""
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[: len(base) - (node.level - 1)]
                prefix = ".".join(base + ([node.module] if node.module else []))
            else:
                prefix = node.module or ""
            found.add(prefix)
            found.update(f"{prefix}.{alias.name}" for alias in node.names)
    return found


def _importers() -> list[str]:
    importers = []
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        imported = _imported_modules(path, module)
        if any(name == ORACLE or name.startswith(ORACLE + ".") for name in imported):
            importers.append(module)
    return importers


def test_only_the_benchmark_imports_the_oracle():
    offenders = [module for module in _importers() if module not in ALLOWED]
    assert offenders == []


def test_boundary_check_sees_relative_and_absolute_imports(tmp_path):
    # The walker itself: every spelling of the import must be caught.
    spellings = [
        "from .. import reference\n",
        "from ..reference import Collection\n",
        "import repro.reference\n",
        "from repro import reference\n",
        "from repro.reference import app_feature_vector\n",
    ]
    probe = tmp_path / "probe.py"
    for source in spellings:
        probe.write_text(source)
        assert ORACLE in _imported_modules(probe, "repro.core.probe"), source
    assert "repro.benchmark" in _importers()
