"""Every module under ``src/repro`` is reached by the runner, every
function, class and method is reached or kept with a stated reason, and
every option is set by a root or kept with a stated reason.

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
identifiers of strings made of identifier paths; docstrings,
``__all__`` lists and package ``__init__`` re-exports do not count.
Live references start from the modules' own top-level statements (they
run on import) and from every file under ``examples/`` and
``perfbench/`` (outside its tests), and spread to a fixed point: a live
name makes every symbol of that bare name live, whatever its module or
class, and a live symbol makes every name it references live.  Only an
attribute, a dotted or ``module:attr`` string or a ``getattr`` string
can reach a method; a bare name (a local variable, a dict key) reaches
top-level functions and classes only.  Matching by bare name keeps an
override live with its base's call site, without type inference.
Dunders (live with their class) and ``*_reference`` twins are exempt
and count as live.  Any other symbol that nothing reaches either earns
a place in ``KEEP`` with a one-line reason or is deleted; a kept
symbol's references are live too.

**Options.** Every defaulted parameter of a function or method, and
every defaulted field of a frozen dataclass, is an option (mutable
dataclasses are counters and have none).  A root -- any module under
``src/repro``, ``examples/`` or ``perfbench/`` outside its tests --
sets an option when one of its calls passes it a value other than the
literal default, by keyword or by position.  Calls match signatures by
bare name, as symbols do, with three exceptions: no call reaches an
``@register``ed experiment body (the registry's wrapper calls it),
``super().__init__`` reaches only the enclosing class's bases, and a
name the root binds once to a literal is that literal.  Passing on an
option of the enclosing function sets the callee's option only when
the enclosing option is set, kept or defaults to another value,
followed to a fixed point.  A SimulationConfig field is also set by an
override key, or one of ``_FIELD_ALIASES``, of ``RunCache``, ``get``,
``config_for``, ``grid`` or ``sweep``.  An option no root sets is made
a constant, its branch deleted, or it sits in ``KEEP_OPTIONS`` with a
reason: its value comes from outside the program, it is a test seam,
or it belongs to a reference spec.

``KEEP`` and ``KEEP_OPTIONS`` cannot go stale: a kept entry that is
reached or set, or that no longer exists, fails the test too.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, NamedTuple

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
    "repro.phy.codebook.Codebook.min_distance": (
        "pins the ZigBee minimum distance of 12 that hint semantics "
        "rely on"
    ),
    "repro.store.serialize.result_to_parts": (
        "the byte-level spec of a stored run: the joined chunks the "
        "store writes, which the quick-point digests pin"
    ),
    "repro.link.schemes.DeliveryScheme.deliver": (
        "the interface of the wire-level delivery specs below"
    ),
    "repro.link.schemes.PacketCrcScheme.deliver": (
        "wire-level delivery spec the trace evaluator is pinned against "
        "(test_metrics' test_packet_and_ppr_match_real_schemes)"
    ),
    "repro.link.schemes.PprScheme.deliver": (
        "wire-level delivery spec the trace evaluator is pinned against "
        "(test_metrics' test_packet_and_ppr_match_real_schemes)"
    ),
    "repro.link.frame.parse_header_bytes": (
        "byte-level header check the per-record reception reference "
        "parses through, pinning the live header_rows_ok"
    ),
    "repro.link.frame.parse_trailer_bytes": (
        "byte-level trailer check the per-record reception reference "
        "parses through, pinning the live trailer verification"
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
    """Names ``nodes`` use.  Only an ``ast.Attribute`` attr, an
    identifier of a string made of dotted or ``module:attr`` paths
    (perfbench probe targets) or the attribute string of a ``getattr``
    can name a method; those get a leading ``.``.  A bare ``ast.Name``
    id or any other identifier string stays bare: it can only name a
    top-level function or class."""
    names = set()
    for top in nodes:
        attr_strings = {
            id(node.args[1])
            for node in ast.walk(top)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in ("getattr", "hasattr")
            and len(node.args) > 1
        }
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(f".{node.attr}")
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in skip
            ):
                path = node.value.replace(":", ".")
                parts = path.split(".")
                if all(p.isidentifier() or not p for p in parts):
                    dot = "." if "." in path or id(node) in attr_strings else ""
                    names.update(f"{dot}{p}" for p in parts if p)
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
        # ``.name`` reaches every symbol called ``name``; a bare ``name``
        # only the top-level ones, since no bare name can call a method.
        by_name.setdefault(f".{bare}", []).append(symbol)
        if not _owner(symbol):
            by_name.setdefault(bare, []).append(symbol)
        elif _is_exempt(symbol):
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


# --------------------------------------------------------------------------
# Options
# --------------------------------------------------------------------------

#: calls whose keyword arguments are SimulationConfig overrides, by name
#: or through ``_FIELD_ALIASES`` (``RunCache(seed=)``, ``grid(load=)``)
OVERRIDE_CALLS = frozenset({"RunCache", "get", "config_for", "grid", "sweep"})

#: defaulted parameters and frozen-dataclass fields no root sets, each
#: with the reason it stays an option: its value comes from outside the
#: program, it is a test seam, or it belongs to a reference spec
_FROM_REPRO_EXEC = "from outside: a REPRO_EXEC spec, parsed by field name"
_FROM_REPRO_FAULTS = "from outside: a REPRO_FAULTS spec, parsed by field name"
_MIRRORS_PLAN_CHUNKS = (
    "reference spec: a bound the DP planner is checked against, so it "
    "takes plan_chunks' checksum_bits"
)
_MIRRORS_REMODULATE = (
    "reference spec: the loop twin of remodulate_frame takes its knobs"
)
KEEP_OPTIONS: dict[str, str] = {
    "repro.exec.policy.ExecPolicy.backoff_base_s": _FROM_REPRO_EXEC,
    "repro.exec.policy.ExecPolicy.max_attempts": _FROM_REPRO_EXEC,
    "repro.exec.policy.ExecPolicy.timeout_base_s": _FROM_REPRO_EXEC,
    "repro.exec.policy.ExecPolicy.timeout_scale": _FROM_REPRO_EXEC,
    "repro.exec.faults.FaultPlan.crash": _FROM_REPRO_FAULTS,
    "repro.exec.faults.FaultPlan.fail": _FROM_REPRO_FAULTS,
    "repro.exec.faults.FaultPlan.flaky": _FROM_REPRO_FAULTS,
    "repro.exec.faults.FaultPlan.hang": _FROM_REPRO_FAULTS,
    "repro.exec.supervisor.Supervisor.__init__.faults": (
        "test seam: tests inject a FaultPlan without the environment"
    ),
    "repro.exec.supervisor.Supervisor.__init__.context": (
        "test seam: tests pass a multiprocessing context that refuses "
        "to fork, to drive degradation to serial"
    ),
    "repro.sim.network.NetworkSimulation.__init__.testbed": (
        "test seam: tests/test_network.py runs hand-built three-node "
        "layouts that force deferrals and equal-power collisions"
    ),
    "repro.sim.network.NetworkSimulation.__init__.path_loss": (
        "test seam: those three-node layouts switch shadowing off"
    ),
    "repro.sim.network.SimulationConfig.payload_bytes": (
        "test seam: tests run 200-400-byte frames to stay fast"
    ),
    "repro.sim.network.SimulationConfig.fading_sigma_db": (
        "model parameter a closed-form test sets to its limit: 0 turns "
        "block fading off (test_network, the hot-codeword equivalence)"
    ),
    "repro.sim.network.SimulationConfig.wall_loss_db": (
        "model parameter a closed-form test sets to its limit: 0 drops "
        "wall losses from the hand-built layouts"
    ),
    "repro.sim.network.SimulationConfig.min_rx_snr_db": (
        "model parameter a closed-form test sets to its limit: 200 dB "
        "makes no link audible"
    ),
    "repro.arq.chunking.chunk_cost_naive.checksum_bits": _MIRRORS_PLAN_CHUNKS,
    "repro.arq.chunking.merged_single_chunk_cost.checksum_bits": (
        _MIRRORS_PLAN_CHUNKS
    ),
    "repro.arq.chunking.plan_chunks_reference.checksum_bits": (
        "reference spec: the loop twin of plan_chunks takes its "
        "checksum_bits"
    ),
    "repro.phy.remodulate.remodulate_frame_reference.gain": _MIRRORS_REMODULATE,
    "repro.phy.remodulate.remodulate_frame_reference.phase": (
        _MIRRORS_REMODULATE
    ),
    "repro.sim.metrics.evaluate_schemes_reference.postamble_options": (
        "reference spec: the loop twin of evaluate_schemes takes its "
        "postamble_options"
    ),
}


class _Signature(NamedTuple):
    """What a call binds: the parameters positional arguments fill, in
    order, and the defaulted ones (its options) with their defaults.
    ``owner`` prefixes option ids: ``owner.param``."""

    owner: str
    positional: tuple[str, ...]
    defaults: dict[str, ast.expr]


def _dataclass_kind(node: ast.ClassDef) -> str | None:
    """``"frozen"`` or ``"mutable"`` for a dataclass, else ``None``."""
    for deco in node.decorator_list:
        call = deco if isinstance(deco, ast.Call) else None
        target = call.func if call else deco
        name = getattr(target, "id", None) or getattr(target, "attr", None)
        if name != "dataclass":
            continue
        frozen = any(
            kw.arg == "frozen"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in (call.keywords if call else ())
        )
        return "frozen" if frozen else "mutable"
    return None


def _function_signature(
    owner: str, node: ast.FunctionDef | ast.AsyncFunctionDef, bound: bool
) -> _Signature:
    """``bound``: a method called on an instance or class, whose first
    parameter the call does not pass."""
    args = node.args
    params = [*args.posonlyargs, *args.args]
    defaulted = params[len(params) - len(args.defaults) :]
    defaults = {a.arg: d for a, d in zip(defaulted, args.defaults, strict=True)}
    defaults |= {
        a.arg: d
        for a, d in zip(args.kwonlyargs, args.kw_defaults, strict=True)
        if d is not None
    }
    static = any(
        getattr(d, "id", None) == "staticmethod" for d in node.decorator_list
    )
    names = tuple(a.arg for a in params)
    return _Signature(owner, names[1:] if bound and not static else names, defaults)


def _dataclass_signature(owner: str, node: ast.ClassDef, frozen: bool) -> _Signature:
    """Fields in order; only a frozen dataclass's defaults are options."""
    names, defaults = [], {}
    for item in node.body:
        if not (
            isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        ) or "ClassVar" in ast.unparse(item.annotation):
            continue
        names.append(item.target.id)
        value = item.value
        if (
            isinstance(value, ast.Call)
            and getattr(value.func, "id", None) == "field"
        ):
            given = {kw.arg: kw.value for kw in value.keywords}
            value = given.get("default", value if "default_factory" in given else None)
        if value is not None and frozen:
            defaults[item.target.id] = value
    return _Signature(owner, tuple(names), defaults)


def signatures(
    trees: dict[str, ast.Module],
) -> tuple[
    dict[str, list[_Signature]], dict[str, list[_Signature]], list[_Signature]
]:
    """Call signatures: ``(top, anywhere, own)``.  ``top`` maps a bare
    name to the top-level functions and classes it can call;
    ``anywhere`` adds the methods an attribute can call.  A class's
    signature is its ``__init__``, else its dataclass fields, else its
    first base's.  ``own`` lists each function, method and dataclass
    once, the owners of the options."""
    top: dict[str, list[_Signature]] = {}
    methods: dict[str, list[_Signature]] = {}
    classes: dict[str, list[tuple[str, ast.ClassDef]]] = {}
    own: list[_Signature] = []
    for module, tree in trees.items():
        for node in tree.body:
            name = f"{module}.{getattr(node, 'name', '')}"
            if isinstance(node, _FUNCS):
                sig = _function_signature(name, node, bound=False)
                # A registered body is called by the registry wrapper
                # only, never by its name.
                if not _is_registered(node):
                    top.setdefault(node.name, []).append(sig)
                own.append(sig)
            elif isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append((name, node))
                kind = _dataclass_kind(node)
                if kind:
                    own.append(_dataclass_signature(name, node, kind == "frozen"))
                for item in node.body:
                    if isinstance(item, _FUNCS):
                        sig = _function_signature(f"{name}.{item.name}", item, bound=True)
                        methods.setdefault(item.name, []).append(sig)
                        own.append(sig)

    def class_signature(name: str, node: ast.ClassDef, seen: set) -> _Signature | None:
        for item in node.body:
            if isinstance(item, _FUNCS) and item.name == "__init__":
                return _function_signature(f"{name}.__init__", item, bound=True)
        kind = _dataclass_kind(node)
        if kind:
            return _dataclass_signature(name, node, kind == "frozen")
        for base in node.bases:
            for base_name, base_node in classes.get(getattr(base, "id", ""), []):
                if base_name not in seen:
                    seen.add(base_name)
                    return class_signature(base_name, base_node, seen)
        return None

    for bare, defs in classes.items():
        for name, node in defs:
            sig = class_signature(name, node, {name})
            if sig is not None:
                top.setdefault(bare, []).append(sig)
    anywhere = {
        name: top.get(name, []) + methods.get(name, [])
        for name in top.keys() | methods.keys()
    }
    return top, anywhere, own


def options(trees: dict[str, ast.Module]) -> dict[str, ast.expr]:
    """Every option, ``owner.param`` -> its default: the defaulted
    parameters of functions and methods, and the defaulted fields of
    frozen dataclasses.  Mutable dataclasses are counters, not options."""
    return {
        f"{sig.owner}.{param}": default
        for sig in signatures(trees)[2]
        for param, default in sig.defaults.items()
    }


def _is_registered(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether ``node`` is an experiment body under ``@register(...)``."""
    return any(
        isinstance(deco, ast.Call) and getattr(deco.func, "id", None) == "register"
        for deco in node.decorator_list
    )


def _is_default(value: ast.expr, default: ast.expr) -> bool:
    """Whether ``value`` is literally ``default`` (``3.0`` is ``3``,
    ``True`` is not ``1``); a name or any other expression never is."""
    try:
        a, b = ast.literal_eval(value), ast.literal_eval(default)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        return False
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _literal_names(tree: ast.AST) -> dict[str, ast.expr]:
    """Names ``tree`` binds exactly once, by assignment to a literal
    (``SPS = 4``), with that literal."""
    bound: dict[str, int] = {}
    values: dict[str, ast.expr] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound[node.id] = bound.get(node.id, 0) + 1
        elif isinstance(node, ast.arg):
            bound[node.arg] = bound.get(node.arg, 0) + 1
        elif isinstance(node, ast.alias):
            name = node.asname or node.name.split(".")[0]
            bound[name] = bound.get(name, 0) + 1
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if len(targets) == 1 and isinstance(targets[0], ast.Name):
                values[targets[0].id] = node.value
    # Only a literal is its own default.
    return {
        name: value
        for name, value in values.items()
        if bound[name] == 1 and _is_default(value, value)
    }


class _Call(NamedTuple):
    """A call, the option owner of the function it sits in (the owner
    of the options it can forward) and the base-class names of the
    class it sits in (what ``super()`` reaches)."""

    node: ast.Call
    owner: str
    defaults: dict[str, ast.expr]
    bases: tuple[str, ...]


def _calls(name: str, tree: ast.AST) -> list[_Call]:
    """Every call in ``tree``, a module called ``name``."""
    calls: list[_Call] = []

    def visit(node: ast.AST, path: str, defaults: dict, bases: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                own = tuple(getattr(b, "id", "") for b in child.bases)
                visit(child, f"{path}.{child.name}", {}, own)
                continue
            inner, inner_defaults = path, defaults
            if isinstance(child, _FUNCS):
                inner = f"{path}.{child.name}"
                inner_defaults = _function_signature(inner, child, False).defaults
            elif isinstance(child, ast.Call):
                calls.append(_Call(child, path, defaults, bases))
            visit(child, inner, inner_defaults, bases)

    visit(tree, name, {}, ())
    return calls


def set_options(
    trees: dict[str, ast.Module],
    roots: dict[str, ast.Module],
    aliases: dict[str, str],
) -> tuple[set[str], list[tuple[str, str]]]:
    """``(found, forwards)``: the options some call in ``roots`` passes
    a non-default value to, and the ``(source, option)`` pairs where a
    call passes on an option of the function it sits in.

    A call reaches every signature of its callee's bare name (only the
    top-level ones for a bare name, never a registered body), binding
    positional arguments up to the first ``*args`` and keyword
    arguments by name; ``super().__init__`` reaches the enclosing
    class's bases only.  A name the root binds once to a literal is
    that literal.  Passing on an option of the enclosing function sets
    the callee's option only when that option's default differs;
    otherwise it is a forward, which :func:`_spread` follows.  A keyword
    of an ``OVERRIDE_CALLS`` call, or its alias, sets a SimulationConfig
    field."""
    top, anywhere, _ = signatures(trees)
    config = [s for s in top.get("SimulationConfig", []) if s.defaults]
    found: set[str] = set()
    forwards: list[tuple[str, str]] = []

    for root_name, root in roots.items():
        literals = _literal_names(root)
        # ``from m import f as g``: a call of ``g`` is a call of ``f``.
        imported = {
            alias.asname: alias.name
            for node in ast.walk(root)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.asname
        }

        def bind(
            sig: _Signature,
            pairs: Iterable[tuple[str, ast.expr]],
            call: _Call,
        ) -> None:
            for param, value in pairs:
                default = sig.defaults.get(param)
                if default is None:
                    continue
                option = f"{sig.owner}.{param}"
                if isinstance(value, ast.Name) and value.id in call.defaults:
                    forwards.append((f"{call.owner}.{value.id}", option))
                    value = call.defaults[value.id]
                if isinstance(value, ast.Name):
                    value = literals.get(value.id, value)
                if not _is_default(value, default):
                    found.add(option)

        for call in _calls(root_name, root):
            func = call.node.func
            if isinstance(func, ast.Name):
                name = imported.get(func.id, func.id)
                sigs = top.get(name, [])
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "__init__"
                and isinstance(func.value, ast.Call)
                and getattr(func.value.func, "id", None) == "super"
            ):
                name = func.attr
                sigs = [sig for base in call.bases for sig in top.get(base, [])]
            elif isinstance(func, ast.Attribute):
                name, sigs = func.attr, anywhere.get(func.attr, [])
            else:
                continue
            positional = []
            for arg in call.node.args:
                if isinstance(arg, ast.Starred):
                    break
                positional.append(arg)
            keywords = [(kw.arg, kw.value) for kw in call.node.keywords if kw.arg]
            for sig in sigs:
                bind(sig, zip(sig.positional, positional, strict=False), call)
                bind(sig, keywords, call)
            if name in OVERRIDE_CALLS:
                for sig in config:
                    bind(sig, ((aliases.get(k, k), v) for k, v in keywords), call)
    return found, forwards


def _spread(found: set[str], forwards: list[tuple[str, str]]) -> set[str]:
    """``found`` plus every option a set option is passed on to, to a
    fixed point."""
    found = set(found)
    while True:
        spread = {option for source, option in forwards if source in found}
        if spread <= found:
            return found
        found |= spread


def _field_aliases(tree: ast.Module) -> dict[str, str]:
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and getattr(node.targets[0], "id", None) == "_FIELD_ALIASES"
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no _FIELD_ALIASES")


def option_findings(
    trees: dict[str, ast.Module],
    roots: dict[str, ast.Module],
    aliases: dict[str, str],
    keep: dict[str, str],
) -> tuple[set[str], set[str]]:
    """``(unset, stale)``: the options neither set by ``roots`` nor in
    ``keep``, and the ``keep`` entries that are no option or are set.
    A kept option takes outside values, so what it is passed on to is
    set too."""
    found = options(trees)
    direct, forwards = set_options(trees, roots, aliases)
    passed = _spread(direct, forwards)
    unset = set(found) - _spread(passed | set(keep), forwards) - set(keep)
    stale = (set(keep) - set(found)) | (set(keep) & passed)
    return unset, stale


def _repo_option_findings() -> tuple[set[str], set[str]]:
    trees = {
        module: ast.parse(MODULES[module].read_text(encoding="utf-8"))
        for module in sorted(_plain_modules())
    }
    external = {
        ".".join(path.relative_to(REPO).with_suffix("").parts): ast.parse(
            path.read_text(encoding="utf-8")
        )
        for path in EXTERNAL_ROOTS
    }
    return option_findings(
        trees,
        trees | external,
        _field_aliases(trees["repro.experiments.common"]),
        KEEP_OPTIONS,
    )


def test_every_option_is_set_or_kept():
    unset, _ = _repo_option_findings()
    assert not unset, (
        "options no runner, example or perfbench call sets to anything "
        "but their default; make them constants or keep them with a "
        f"reason: {sorted(unset)}"
    )


def test_keep_options_is_not_stale():
    _, stale = _repo_option_findings()
    assert not stale, (
        f"kept options that no longer exist or are now set: {sorted(stale)}"
    )
    assert all(reason.strip() for reason in KEEP_OPTIONS.values())


_RULES_MODULE = """
from dataclasses import dataclass

class Crc:
    def checksum_many(self, rows, lengths=None, *, order=0): ...

class Receiver:
    def receive_retransmission(self, packet, channel_view=None): ...

def plot(series, width=60): ...

@dataclass(frozen=True)
class SimulationConfig:
    seed: int = 0
    duration_s: float = 30.0
    noise_floor_dbm: float = -95.0
    carrier_sense: bool = True

@dataclass
class Counters:
    hits: int = 0

@register("fig13", title="collision anatomy")
def run(n_body=120): ...

class Store:
    def __init__(self, base=None): ...

class Cache:
    def __init__(self, path): ...

class DiskCache(Cache):
    def __init__(self, path):
        super().__init__(path)

def pulse(chips, sps=4): ...

def modulate(chips, sps=4):
    return pulse(chips, sps=sps)

def demodulate(samples, sps=4): ...

def receive(samples, sps=4):
    return demodulate(samples, sps=sps)
"""

_RULES_ROOT = """
CRC.checksum_many(rows, lengths)
rx.receive_retransmission(packet, view)
plot(series, width=60)
plot(series, 60.0)
cache = RunCache(seeds=3)
cache.get(noise_floor_dbm=-87.0)
SimulationConfig(carrier_sense=True)
spec.run(cache)
SPS = 4
modulate(chips, sps=SPS)
receive(samples, sps=2)
"""


def test_option_check_rules():
    trees = {"pkg.mod": ast.parse(_RULES_MODULE)}
    roots = trees | {"root": ast.parse(_RULES_ROOT)}
    aliases = {"seeds": "seed"}
    prefix = "pkg.mod."
    # Mutable dataclasses hold counters, not options.
    assert {name.removeprefix(prefix) for name in options(trees)} == {
        "Crc.checksum_many.lengths",
        "Crc.checksum_many.order",
        "Receiver.receive_retransmission.channel_view",
        "plot.width",
        "SimulationConfig.seed",
        "SimulationConfig.duration_s",
        "SimulationConfig.noise_floor_dbm",
        "SimulationConfig.carrier_sense",
        "run.n_body",
        "Store.__init__.base",
        "pulse.sps",
        "modulate.sps",
        "demodulate.sps",
        "receive.sps",
    }
    keep = {
        f"{prefix}Crc.checksum_many.order": "kept with a reason",
        f"{prefix}Crc.checksum_many.lengths": "stale: a root passes it",
        f"{prefix}gone.knob": "stale: no such option",
    }
    unset, stale = option_findings(trees, roots, aliases, keep)
    # Positional passes (to a method, past its ``self``) count; so do
    # an override key and an alias of one.  Passing the literal default,
    # by keyword or by position, does not.  Nor does:
    # - ``spec.run(cache)``, which reaches the registry wrapper, never
    #   the registered body of the same name;
    # - ``super().__init__(path)``, which reaches the enclosing class's
    #   bases only, not the unrelated ``Store.__init__``;
    # - ``sps=SPS`` where ``SPS = 4`` is bound once, to the default;
    # - ``modulate``'s ``sps=sps``, which passes on an option nothing
    #   sets, while ``receive``'s passes on one a root sets to 2.
    assert {name.removeprefix(prefix) for name in unset} == {
        "plot.width",
        "SimulationConfig.duration_s",
        "SimulationConfig.carrier_sense",
        "run.n_body",
        "Store.__init__.base",
        "pulse.sps",
        "modulate.sps",
    }
    assert stale == {f"{prefix}Crc.checksum_many.lengths", f"{prefix}gone.knob"}
