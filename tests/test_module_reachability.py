"""Every module under ``src/repro`` is reached by the runner, and every
function, class and method is reached or kept with a stated reason.

**Modules.** A static import walk (stdlib ``ast``, nothing is imported)
starts at the runner, the report generator and every ``exp_*`` module
-- the registry discovers those at runtime, so they are roots rather
than import targets -- and follows every ``import``/``from`` statement:
module-level, function-local, relative and ``TYPE_CHECKING`` alike.
``from pkg import name`` reaches ``pkg.name`` when that is a module,
and otherwise follows the one statement in ``pkg/__init__.py`` that
binds ``name``.  Package ``__init__`` files are re-export shims: they
are never walked, so an import of a package does not pull in
everything the package re-exports.  A module that nothing in the
runner reaches is wired in or deleted; there is no allowlist.

**Symbols.** Every top-level function and class of a module, and
every method of a top-level class, is a symbol.  The names a symbol
references are its ``ast.Name`` ids, ``ast.Attribute`` attrs and the
identifiers of strings made of dotted or ``module:attr`` paths;
docstrings, ``__all__`` lists and package ``__init__`` re-exports do
not count.  Live references start from the modules' own top-level
statements (they run on import) and from every file under
``examples/`` and ``perfbench/`` (outside its tests), and spread to a
fixed point: a live name makes every symbol of that bare name live,
whatever its module or class, and a live symbol makes every name it
references live.  Matching by bare name keeps an override live with
its base's call site, without type inference.  Dunders (live with
their class) and ``*_reference`` twins are exempt and count as live.
Any other symbol that nothing reaches either earns a place in ``KEEP``
with a one-line reason or is deleted; a kept symbol's references are
live too.

``KEEP`` cannot go stale: a kept symbol that is reached, or that no
longer exists, fails the test too.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = "repro"

ROOTS = ("repro.experiments.runner", "repro.analysis.report")

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


def _plain_modules() -> set[str]:
    return {name for name in MODULES if not _is_package(name)}


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
    return {dotted} if dotted in _plain_modules() else set()


def _targets_of_from(base: str, name: str, seen: set) -> set[str]:
    if base not in MODULES:
        return set()
    if not _is_package(base):
        return {base}
    # A package is a shim: reach what ``name`` resolves to, never the
    # package itself, whose other re-exports this import does not use.
    return _targets_of_name(base, name, seen) if name != "*" else set()


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


def reachable(roots: Iterable[str] | None = None) -> set[str]:
    """Every module the import walk reaches from ``roots`` (default: the
    runner's roots)."""
    reached: set[str] = set()
    stack = sorted(_roots() if roots is None else roots)
    while stack:
        module = stack.pop()
        if module in reached:
            continue
        reached.add(module)
        stack.extend(sorted(_direct_targets(module) - reached))
    return reached


def test_roots_exist():
    assert set(ROOTS) <= set(MODULES)
    assert any(name.startswith("repro.experiments.exp_") for name in MODULES)


def test_every_module_is_reached():
    unreached = _plain_modules() - reachable()
    assert not unreached, (
        "modules no runner path imports; wire them in or delete them: "
        f"{sorted(unreached)}"
    )


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
    # ``from pkg import module`` (supervisor -> ``from repro.utils import
    # sanitize``) reaches that module, not the package shim and the
    # other modules it re-exports.
    targets = _direct_targets("repro.exec.supervisor")
    assert "repro.utils.sanitize" in targets
    assert "repro.utils" not in targets
    reached = reachable({"repro.exec.supervisor"})
    assert not {"repro.utils", "repro.utils.bitops", "repro.utils.units"} & reached


# --------------------------------------------------------------------------
# Symbol-level reachability
# --------------------------------------------------------------------------

REPO = SRC.parent

#: files outside ``src`` whose every reference is live: the runnable
#: examples, and perfbench, which wraps entry points by name
EXTERNAL_ROOTS = tuple(
    sorted(REPO.glob("examples/*.py")) + sorted(REPO.glob("perfbench/*.py"))
)

#: unreached symbols that stay, each with the job it does
KEEP = {
    "repro.utils.sanitize.check_finite": (
        "sanitizer canary: the equivalence tests assert kernel outputs "
        "are finite through it"
    ),
    "repro.utils.sanitize.NonFiniteError": (
        "the error check_finite raises on a NaN or infinity"
    ),
    "repro.utils.sanitize.reset": (
        "clears the key ledger between tests (tests/conftest.py)"
    ),
    "repro.utils.sanitize.suspended": (
        "lets a test mint a deliberate key collision without tripping "
        "the ledger"
    ),
    "repro.phy.frontend.ReceiverFrontend.detect": (
        "per-capture reference WaveformBatchEngine is pinned against"
    ),
    "repro.phy.frontend.ReceiverFrontend.decode_symbols_at": (
        "per-capture reference WaveformBatchEngine is pinned against"
    ),
    "repro.arq.chunking.chunk_cost_naive": (
        "upper bound the DP chunk planner is checked against"
    ),
    "repro.arq.chunking.merged_single_chunk_cost": (
        "one-chunk bound the DP chunk planner is checked against"
    ),
    "repro.arq.feedback.encode_feedback": (
        "wire format that pins the live feedback_bit_cost"
    ),
    "repro.arq.feedback.decode_feedback": (
        "round-trips encode_feedback, so the wire format is decodable"
    ),
    "repro.arq.feedback.decode_retransmission": (
        "round-trips the live encode_retransmission"
    ),
    "repro.arq.feedback.FeedbackPacket.is_ack": (
        "what a decoded feedback packet means; the round trip reads it"
    ),
    "repro.phy.sync.RollbackBuffer": (
        "the bounded sample store of paper 4 that postamble rollback "
        "reads back from; the batch engine holds whole captures instead"
    ),
    "repro.phy.sync.RollbackBuffer.get_range": (
        "the rollback read itself: a window by absolute sample index "
        "that fails rather than return evicted samples"
    ),
    "repro.phy.codebook.Codebook.min_distance": (
        "pins the ZigBee minimum distance of 12 that hint semantics "
        "rely on"
    ),
    "repro.store.serialize.result_to_parts": (
        "the byte-level spec of a stored run: the joined chunks the "
        "store writes, which the quick-point digests pin"
    ),
}


_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCS, ast.ClassDef)


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the docstring constants anywhere in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFS)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                found.add(id(body[0].value))
    return found


def _references(nodes: Iterable[ast.AST], skip: set[int]) -> set[str]:
    """Bare names ``nodes`` use: names, attributes, and the identifiers of
    strings made of dotted or ``module:attr`` paths (``getattr``
    arguments, perfbench probe targets)."""
    names = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in skip
            ):
                parts = node.value.replace(":", ".").split(".")
                if all(p.isidentifier() or not p for p in parts):
                    names.update(p for p in parts if p)
    return names


def _is_all(node: ast.stmt) -> bool:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _symbols() -> tuple[dict[str, tuple[str, set[str]]], set[str]]:
    """Every top-level function, class and method under ``src/repro``,
    as full name -> (bare name, names it references), and the names the
    modules' own top-level statements reference (they run on import)."""
    symbols: dict[str, tuple[str, set[str]]] = {}
    module_refs: set[str] = set()
    for module in sorted(_plain_modules()):
        tree = ast.parse(MODULES[module].read_text(encoding="utf-8"))
        skip = _docstrings(tree)
        for node in tree.body:
            if not isinstance(node, _DEFS):
                if not _is_all(node):
                    module_refs |= _references([node], skip)
                continue
            name = f"{module}.{node.name}"
            if isinstance(node, _FUNCS):
                symbols[name] = (node.name, _references([node], skip))
                continue
            # A class references its decorators, bases and body, except
            # its methods, which are symbols of their own.
            own = [*node.decorator_list, *node.bases, *node.keywords]
            own += [item for item in node.body if not isinstance(item, _FUNCS)]
            symbols[name] = (node.name, _references(own, skip))
            for item in node.body:
                if isinstance(item, _FUNCS):
                    symbols[f"{name}.{item.name}"] = (
                        item.name,
                        _references([item], skip),
                    )
    return symbols, module_refs


SYMBOLS, MODULE_REFS = _symbols()


def _external_refs() -> set[str]:
    names = set()
    for path in EXTERNAL_ROOTS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names |= _references([tree], _docstrings(tree))
    return names


def _owner(symbol: str) -> str | None:
    """The class a method belongs to, ``None`` for a top-level symbol."""
    owner = symbol.rpartition(".")[0]
    return owner if owner in SYMBOLS else None


def _is_exempt(symbol: str) -> bool:
    """Dunders run implicitly, and ``*_reference`` twins are the
    specifications RP002 pins."""
    bare = SYMBOLS[symbol][0]
    is_dunder = bare.startswith("__") and bare.endswith("__")
    return is_dunder or bare.endswith("_reference")


def live_symbols(kept: Iterable[str] = ()) -> set[str]:
    """Every symbol the roots reach, plus what ``kept`` symbols reach.

    Liveness spreads by bare name: a live reference to ``name`` makes
    every symbol called ``name`` live, whatever its module or class, so
    an override stays live with the call site of its base.  A live
    class makes its dunders live.
    """
    by_name: dict[str, list[str]] = {}
    exempt_methods: dict[str, list[str]] = {}
    for symbol, (bare, _) in SYMBOLS.items():
        by_name.setdefault(bare, []).append(symbol)
        if _owner(symbol) and _is_exempt(symbol):
            exempt_methods.setdefault(_owner(symbol), []).append(symbol)
    live: set[str] = set()
    seen: set[str] = set()
    names = list(MODULE_REFS | _external_refs())
    pending = [s for s in SYMBOLS if _is_exempt(s) and not _owner(s)]
    pending += [s for s in kept if s in SYMBOLS]
    while names or pending:
        if pending:
            symbol = pending.pop()
            if symbol not in live:
                live.add(symbol)
                names.extend(SYMBOLS[symbol][1])
                pending += exempt_methods.get(symbol, [])
            continue
        name = names.pop()
        if name not in seen:
            seen.add(name)
            pending += by_name.get(name, [])
    return live


def test_every_symbol_is_reached_or_kept():
    live = live_symbols(KEEP)
    unreached = set(SYMBOLS) - live
    # A method of an unreached class goes with its class.
    dead = [s for s in unreached if _owner(s) not in unreached]
    assert not dead, (
        "functions, classes and methods no runner, example or perfbench "
        "path references; delete them or keep them with a reason: "
        f"{sorted(dead)}"
    )


def test_keep_is_not_stale():
    missing = set(KEEP) - set(SYMBOLS)
    assert not missing, f"kept symbols no longer exist: {sorted(missing)}"
    reached = set(KEEP) & live_symbols()
    assert not reached, f"kept symbols are now reached; drop them: {sorted(reached)}"
    assert all(reason.strip() for reason in KEEP.values())
