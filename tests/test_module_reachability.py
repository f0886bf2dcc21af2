"""Every module under ``src/repro`` is reached by the runner or allowlisted.

A static import walk (stdlib ``ast``, nothing is imported) starts at
the runner, the report generator and every ``exp_*`` module -- the
registry discovers those at runtime, so they are roots rather than
import targets -- and follows every ``import``/``from`` statement:
module-level, function-local, relative and ``TYPE_CHECKING`` alike.
``from pkg import name`` reaches ``pkg.name`` when that is a module,
and otherwise follows the one statement in ``pkg/__init__.py`` that
binds ``name``.  Package ``__init__`` files are re-export shims: they
need not be reached, and an import of a package does not pull in
everything the package re-exports.

A module that nothing in the runner reaches either earns a place in
``ALLOWLIST`` with a one-line reason or is deleted.  The allowlist
cannot go stale: an allowlisted module that is reached, or that no
longer exists, fails the test too.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = "repro"

ROOTS = ("repro.experiments.runner", "repro.analysis.report")

#: unreached modules that stay, each with the job it does
ALLOWLIST = {
    "repro.link.adaptive": (
        "learns eta for hint scales other than Hamming distance "
        "(paper 3.3); PP-ARQ over soft-decision hints needs it"
    ),
    "repro.phy.decoder": (
        "soft-decision and matched-filter hints, the other two hint "
        "sources of paper 3.1"
    ),
    "repro.phy.convolutional": (
        "SOVA hints for convolutionally coded PHYs (paper 3.1), with "
        "its loop twin and speed gate"
    ),
    "repro.phy.timing": (
        "non-data-aided chip timing recovery that postamble rollback "
        "relies on (paper 4)"
    ),
    "repro.coding.session": (
        "PP-ARQ with coded retransmissions, the transfer-level "
        "counterpart of the S-PRAC scheme"
    ),
}


def _module_paths() -> dict[str, Path]:
    """Dotted module name -> source file, packages under their own name."""
    modules = {}
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


MODULES = _module_paths()


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


def _resolve_base(module: str, node: ast.ImportFrom) -> str:
    """Absolute dotted name a ``from ... import`` statement reads from."""
    if not node.level:
        return node.module or ""
    package = module if _is_package(module) else module.rpartition(".")[0]
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def _imports(module: str) -> list[ast.Import | ast.ImportFrom]:
    tree = ast.parse(MODULES[module].read_text(encoding="utf-8"))
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def _targets_of_name(package: str, name: str, seen: set) -> set[str]:
    """Modules reached by ``from package import name``."""
    if f"{package}.{name}" in MODULES:
        return {f"{package}.{name}"}
    if (package, name) in seen or not _is_package(package):
        return set()
    seen.add((package, name))
    # Follow only the re-export that binds ``name`` in the shim.
    targets = set()
    for node in _imports(package):
        for alias in node.names:
            if (alias.asname or alias.name.split(".")[0]) != name:
                continue
            if isinstance(node, ast.Import):
                targets |= _targets_of_import(alias.name)
            else:
                base = _resolve_base(package, node)
                targets |= _targets_of_from(base, alias.name, seen)
    return targets


def _targets_of_import(dotted: str) -> set[str]:
    return {dotted} if dotted in MODULES else set()


def _targets_of_from(base: str, name: str, seen: set) -> set[str]:
    if base not in MODULES:
        return set()
    targets = {base}
    if name != "*":
        targets |= _targets_of_name(base, name, seen)
    return targets


def _direct_targets(module: str) -> set[str]:
    targets: set[str] = set()
    for node in _imports(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                targets |= _targets_of_import(alias.name)
        else:
            base = _resolve_base(module, node)
            for alias in node.names:
                targets |= _targets_of_from(base, alias.name, set())
    return targets


def _roots() -> set[str]:
    experiments = {
        name
        for name in MODULES
        if name.startswith("repro.experiments.exp_")
    }
    return set(ROOTS) | experiments


def reachable() -> set[str]:
    """Every module the import walk reaches from the roots."""
    reached: set[str] = set()
    stack = sorted(_roots())
    while stack:
        module = stack.pop()
        if module in reached:
            continue
        reached.add(module)
        stack.extend(sorted(_direct_targets(module) - reached))
    return reached


def _plain_modules() -> set[str]:
    return {name for name in MODULES if not _is_package(name)}


def test_roots_exist():
    assert set(ROOTS) <= set(MODULES)
    assert any(name.startswith("repro.experiments.exp_") for name in MODULES)


def test_every_module_is_reached_or_allowlisted():
    unreached = _plain_modules() - reachable() - set(ALLOWLIST)
    assert not unreached, (
        "modules no runner path imports; wire them in, delete them, or "
        f"allowlist them with a reason: {sorted(unreached)}"
    )


def test_allowlist_is_not_stale():
    missing = set(ALLOWLIST) - set(MODULES)
    assert not missing, f"allowlisted modules no longer exist: {sorted(missing)}"
    reached = set(ALLOWLIST) & reachable()
    assert not reached, (
        f"allowlisted modules are now reached; drop them: {sorted(reached)}"
    )
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_walk_follows_every_import_form():
    # Function-local import (common.RunCache's store).
    assert "repro.store.core" in _direct_targets("repro.experiments.common")
    # ``from pkg import module`` (exp_fig8 -> delivery).
    assert "repro.experiments.delivery" in _direct_targets(
        "repro.experiments.exp_fig8"
    )
    # Re-export through a package shim (``from repro.recovery import
    # SicDecoder``) reaches the defining module only.
    targets = _direct_targets("repro.experiments.exp_sic_collision")
    assert "repro.recovery.sic" in targets
    assert "repro.recovery.chunks" not in _targets_of_name(
        "repro.recovery", "SicDecoder", set()
    )
