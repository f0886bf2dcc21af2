"""The initial ruleset: the repository's real contracts, as AST checks.

Each rule documents *what convention it machine-checks* and *which
part of the repo established it* — a rule nobody can trace back to a
contract is noise.  See ``tools/reprolint/tests/corpus/`` for one
violating and one conforming snippet per rule.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from reprolint.core import Finding, LintConfig, Rule, SourceModule

# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------


def import_map(tree: ast.Module) -> dict[str, str]:
    """Map local alias -> fully dotted origin for every import.

    ``import numpy as np`` yields ``{"np": "numpy"}``;
    ``from numpy.random import default_rng as drg`` yields
    ``{"drg": "numpy.random.default_rng"}``.  Only module-level and
    nested imports both count (a function-local ``import random`` is
    still unkeyed randomness).
    """
    out: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    out[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                out[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return out


def dotted_name(node: ast.expr, imports: dict[str, str]) -> str | None:
    """Resolve a ``Name``/``Attribute`` chain to a dotted string with
    import aliases expanded; ``None`` for anything else (calls,
    subscripts, …)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    head = imports.get(node.id, node.id)
    parts.append(head)
    return ".".join(reversed(parts))


def identifiers(tree: ast.AST) -> set[str]:
    """Every ``Name`` id and ``Attribute`` attr in the tree — the
    cheap \"does this file mention X\" primitive RP002 uses."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _enclosing_reference(
    stack: list[ast.AST],
) -> bool:
    return any(
        isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        and n.name.endswith("_reference")
        for n in stack
    )


# ---------------------------------------------------------------------------
# RP001 — unkeyed randomness
# ---------------------------------------------------------------------------


class UnkeyedRandomness(Rule):
    """All randomness flows through ``repro.utils.rng``.

    The determinism contract (``tests/test_determinism_contract.py``:
    bit-identical results across worker counts and batch/non-batch
    decode paths) holds because every stochastic component draws from
    a seeded or counter-keyed generator handed to it by the harness.
    A stray ``np.random.default_rng()`` (or stdlib ``random``) is a
    hidden entropy source that silently breaks that property, so
    constructing raw generators is allowed only inside
    ``utils/rng.py`` itself and in the exploratory ``examples/``
    tree.  Everyone else takes a ``Generator`` (or seed) argument and
    normalises it with ``ensure_rng`` / ``derive_rng`` / ``keyed_rng``.
    """

    rule_id = "RP001"
    title = "unkeyed randomness outside utils/rng"

    _NUMPY_BANNED = {
        "numpy.random.default_rng",
        "numpy.random.seed",
        "numpy.random.RandomState",
        "numpy.random.Generator",
        "numpy.random.Philox",
        "numpy.random.PCG64",
        "numpy.random.MT19937",
        "numpy.random.SFC64",
        "numpy.random.set_state",
    }

    def check_module(
        self, module: SourceModule, config: LintConfig
    ) -> Iterator[Finding]:
        if module.rel == config.rng_module or module.is_under(
            *config.exploratory_dirs
        ):
            return
        imports = import_map(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith(
                        "random."
                    ):
                        yield Finding(
                            self.rule_id,
                            module.rel,
                            node.lineno,
                            "stdlib `random` is unkeyed; draw from "
                            "repro.utils.rng streams instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and not node.level:
                    yield Finding(
                        self.rule_id,
                        module.rel,
                        node.lineno,
                        "stdlib `random` is unkeyed; draw from "
                        "repro.utils.rng streams instead",
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func, imports)
                if name in self._NUMPY_BANNED:
                    short = name.rsplit(".", 1)[-1]
                    yield Finding(
                        self.rule_id,
                        module.rel,
                        node.lineno,
                        f"direct `np.random.{short}` call; only "
                        "utils/rng.py constructs generators — use "
                        "ensure_rng / derive_rng / keyed_rng",
                    )


# ---------------------------------------------------------------------------
# RP002 — kernel-twin discipline
# ---------------------------------------------------------------------------


class KernelTwinDiscipline(Rule):
    """Every vectorized kernel keeps its loop spec pinned and gated.

    PRs 1/4/5 established the template: a public ``*_reference``
    function is the executable specification of a vectorized twin,
    pinned bit-for-bit in ``tests/test_vectorized_equivalence.py``
    and speed-gated (>= 5x) under ``benchmarks/``.  This rule makes
    the three-way link a machine invariant, so a reference whose twin
    was renamed — or whose equivalence test or benchmark was deleted —
    can no longer drift out of the gate suite silently.
    """

    rule_id = "RP002"
    title = "kernel reference twin out of the gate suite"

    def finalize(
        self, modules: list[SourceModule], config: LintConfig
    ) -> Iterator[Finding]:
        refs: list[tuple[SourceModule, ast.FunctionDef]] = []
        for module in modules:
            if not module.is_under("src"):
                continue
            for node in ast.walk(module.tree):
                if (
                    isinstance(node, ast.FunctionDef)
                    and node.name.endswith("_reference")
                    and not node.name.startswith("_")
                ):
                    refs.append((module, node))
        if not refs:
            return

        equiv_ids = self._file_identifiers(
            config.root / config.equivalence_test
        )
        bench_ids: set[str] = set()
        bench_dir = config.root / config.benchmarks_dir
        if bench_dir.is_dir():
            for path in sorted(bench_dir.glob("*.py")):
                bench_ids |= self._file_identifiers(path)

        for module, node in refs:
            twin = node.name[: -len("_reference")]
            module_defs = {
                n.name
                for n in ast.walk(module.tree)
                if isinstance(n, ast.FunctionDef)
            }
            if twin not in module_defs:
                yield Finding(
                    self.rule_id,
                    module.rel,
                    node.lineno,
                    f"`{node.name}` has no vectorized twin `{twin}` "
                    "in the same module",
                )
            if equiv_ids is None:
                yield Finding(
                    self.rule_id,
                    module.rel,
                    node.lineno,
                    f"equivalence suite {config.equivalence_test} is "
                    "missing; cannot pin reference twins",
                )
            elif node.name not in equiv_ids:
                yield Finding(
                    self.rule_id,
                    module.rel,
                    node.lineno,
                    f"`{node.name}` is not exercised by "
                    f"{config.equivalence_test} (bit-for-bit pin "
                    "missing)",
                )
            if twin not in bench_ids and node.name not in bench_ids:
                yield Finding(
                    self.rule_id,
                    module.rel,
                    node.lineno,
                    f"`{twin}` has no benchmark under "
                    f"{config.benchmarks_dir}/ (speed gate missing)",
                )

    @staticmethod
    def _file_identifiers(path: Path) -> set[str] | None:
        if not path.is_file():
            return None
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError:
            return None
        return identifiers(tree)


# ---------------------------------------------------------------------------
# RP003 — experiment contract
# ---------------------------------------------------------------------------


class ExperimentContract(Rule):
    """Each ``exp_*`` module registers exactly one spec, lazily.

    The PR 3 registry discovers experiments by importing every
    ``exp_*`` module; the runner, tests, and tooling all rely on (a)
    one module <-> one ``@register`` spec (``discover()`` would
    silently half-import a module registering zero or two), and (b)
    imports being side-effect-free — a module-level simulation run
    would execute on *every* ``discover()`` call, in every worker
    process.  Constants and point declarations (``grid``/``sweep``
    assignments) are fine; bare module-level calls, loops and
    conditionals are not.  That includes an ``if __name__ ==
    "__main__"`` preview guard: an experiment runs through the registry
    (``runner --experiment ID``), which hands its body the runs it
    declared, so a second entry point beside it has nothing to run on.
    """

    rule_id = "RP003"
    title = "experiment module contract"

    def check_module(
        self, module: SourceModule, config: LintConfig
    ) -> Iterator[Finding]:
        name = Path(module.rel).name
        if not (
            name.startswith("exp_")
            and module.is_under("src")
            and name.endswith(".py")
        ):
            return
        n_registered = 0
        register_lines: list[int] = []
        for node in module.tree.body:
            if isinstance(node, ast.FunctionDef):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    dn = dotted_name(target, {})
                    if dn is not None and dn.split(".")[-1] == "register":
                        n_registered += 1
                        register_lines.append(node.lineno)
            elif isinstance(node, ast.Expr):
                if isinstance(node.value, ast.Constant):
                    continue  # docstring / stray constant
                yield Finding(
                    self.rule_id,
                    module.rel,
                    node.lineno,
                    "module-level call runs at import time (on every "
                    "registry discover()); move it under the "
                    "registered experiment body",
                )
            elif isinstance(node, (ast.For, ast.While, ast.With, ast.Try)):
                yield Finding(
                    self.rule_id,
                    module.rel,
                    node.lineno,
                    f"module-level `{type(node).__name__.lower()}` "
                    "block runs at import time; experiment modules "
                    "must import side-effect-free",
                )
            elif isinstance(node, ast.If):
                yield Finding(
                    self.rule_id,
                    module.rel,
                    node.lineno,
                    "conditional module-level code; experiments run "
                    "only through the registry (`runner --experiment "
                    'ID`), not an `if __name__ == "__main__"` guard',
                )
        if n_registered != 1:
            yield Finding(
                self.rule_id,
                module.rel,
                register_lines[1] if len(register_lines) > 1 else 1,
                f"exp_* module must register exactly one "
                f"ExperimentSpec via @register, found {n_registered}",
            )


# ---------------------------------------------------------------------------
# RP004 — hot-path purity
# ---------------------------------------------------------------------------


class HotPathPurity(Rule):
    """No per-element Python loops over arrays in hot modules.

    The entire point of PRs 1, 4, and 5 was to eliminate
    element-at-a-time Python from the reception and coding hot paths
    (~15-30x).  This rule keeps them out: inside ``phy/``,
    ``coding/``, and ``sim/medium.py`` it flags

    * multi-dimensional scalar element access swept by nested Python
      loops — a subscript like ``out[i, j]`` whose index tuple names
      two or more enclosing ``for`` targets (the signature of every
      deoptimization those PRs removed), and
    * explicit element iteration via ``np.nditer`` / ``np.ndindex`` /
      ``.flat``.

    ``*_reference`` functions are exempt — they are the executable
    *specifications* of the vectorized kernels (RP002 keeps them
    honest).  Loops over Python objects, ragged group lists, or pivot
    steps that do whole-row array operations are untouched.
    """

    rule_id = "RP004"
    title = "per-element Python loop in hot module"

    def check_module(
        self, module: SourceModule, config: LintConfig
    ) -> Iterator[Finding]:
        if not module.is_under(*config.hot_paths):
            return
        seen: set[tuple[int, str]] = set()
        for finding in self._scan(module):
            key = (finding.line, finding.message)
            if key not in seen:
                seen.add(key)
                yield finding

    def _scan(self, module: SourceModule) -> Iterator[Finding]:
        imports = import_map(module.tree)

        def visit(
            node: ast.AST,
            loop_targets: frozenset[str],
            stack: list[ast.AST],
        ) -> Iterator[Finding]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack = stack + [node]
                loop_targets = frozenset()
            if _enclosing_reference(stack):
                return
            if isinstance(node, ast.For):
                yield from self._check_iterable(
                    module, node.iter, imports
                )
                loop_targets = loop_targets | frozenset(
                    _target_names(node.target)
                )
            if isinstance(node, ast.Subscript):
                hit = self._tuple_loop_index(node, loop_targets)
                if hit:
                    yield Finding(
                        self.rule_id,
                        module.rel,
                        node.lineno,
                        "scalar element access "
                        f"`[{', '.join(sorted(hit))}]` swept by nested "
                        "Python loops; vectorize (keep the loop only "
                        "in a *_reference spec)",
                    )
            for child in ast.iter_child_nodes(node):
                yield from visit(child, loop_targets, stack)

        yield from visit(module.tree, frozenset(), [])

    def _check_iterable(
        self,
        module: SourceModule,
        iterable: ast.expr,
        imports: dict[str, str],
    ) -> Iterator[Finding]:
        if isinstance(iterable, ast.Call):
            name = dotted_name(iterable.func, imports)
            if name in ("numpy.nditer", "numpy.ndindex"):
                yield Finding(
                    self.rule_id,
                    module.rel,
                    iterable.lineno,
                    f"`{name.rsplit('.', 1)[-1]}` iterates array "
                    "elements in Python; vectorize",
                )
        if (
            isinstance(iterable, ast.Attribute)
            and iterable.attr == "flat"
        ):
            yield Finding(
                self.rule_id,
                module.rel,
                iterable.lineno,
                "`.flat` iterates array elements in Python; vectorize",
            )

    @staticmethod
    def _tuple_loop_index(
        node: ast.Subscript, loop_targets: frozenset[str]
    ) -> set[str]:
        """Loop-target names indexing a multi-dim scalar subscript.

        Returns a non-empty set only when the subscript's index is a
        tuple of simple (slice-free) expressions naming >= 2 distinct
        enclosing-loop variables — ``aug[row, col]`` with one loop
        variable, ``rows[i, :]`` row slices, and boolean-mask indexing
        all stay clean.
        """
        index = node.slice
        if not isinstance(index, ast.Tuple) or len(index.elts) < 2:
            return set()
        hits: set[str] = set()
        for elt in index.elts:
            if isinstance(elt, (ast.Slice, ast.Starred)):
                return set()
            for sub in ast.walk(elt):
                if isinstance(sub, ast.Slice):
                    return set()
                if (
                    isinstance(sub, ast.Name)
                    and sub.id in loop_targets
                ):
                    hits.add(sub.id)
        return hits if len(hits) >= 2 else set()


def _target_names(target: ast.expr) -> Iterator[str]:
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            yield node.id


# ---------------------------------------------------------------------------
# RP005 — nondeterminism sources in library code
# ---------------------------------------------------------------------------


class NondeterminismSources(Rule):
    """No wall-clock reads or float-literal equality in library code.

    Experiment artifacts are byte-diffed across worker counts and
    decode paths in CI; a ``time.time()`` (or ``datetime.now()``)
    that leaks into results breaks the diff non-reproducibly.
    Interval timing for reporting uses ``time.perf_counter`` (as the
    runner does, excluded from JSON artifacts) and the benchmark
    harness lives under ``benchmarks/``, outside reprolint's scan.

    Float-literal ``==``/``!=`` comparisons are the other classic
    flakiness source: they encode an exact-representation assumption
    that vectorization or reassociation silently invalidates.  For
    exact zero-sentinel checks use truthiness (``if not frac:``);
    for tolerances use ``math.isclose``/``np.isclose``.  Tests are
    exempt — pinning exact values is precisely what the equivalence
    suite is for.
    """

    rule_id = "RP005"
    title = "nondeterminism source in library code"

    _WALL_CLOCK = {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }

    def check_module(
        self, module: SourceModule, config: LintConfig
    ) -> Iterator[Finding]:
        imports = import_map(module.tree)
        in_tests = module.is_under(*config.tests_dirs)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func, imports)
                if name in self._WALL_CLOCK:
                    yield Finding(
                        self.rule_id,
                        module.rel,
                        node.lineno,
                        f"wall-clock `{name}` is nondeterministic; "
                        "use time.perf_counter for intervals and "
                        "keep clock reads out of results",
                    )
            elif (
                isinstance(node, ast.Compare)
                and not in_tests
                and any(
                    isinstance(op, (ast.Eq, ast.NotEq))
                    for op in node.ops
                )
                and any(
                    isinstance(side, ast.Constant)
                    and isinstance(side.value, float)
                    for side in [node.left, *node.comparators]
                )
            ):
                yield Finding(
                    self.rule_id,
                    module.rel,
                    node.lineno,
                    "float-literal ==/!= comparison; use "
                    "truthiness for exact-zero sentinels or "
                    "isclose for tolerances",
                )


# ---------------------------------------------------------------------------
# RP008 — supervised fan-out
# ---------------------------------------------------------------------------


class BareWorkerPool(Rule):
    """Parallel fan-out goes through the supervised executor.

    PR 9 replaced the run cache's bare ``Pool.map`` with
    ``repro.exec.Supervisor``: per-task worker processes with
    deadline timeouts, crash isolation, deterministic keyed
    retry/backoff, immediate result write-back, and ``REPRO_FAULTS``
    injection.  A bare ``multiprocessing.Pool`` (or
    ``ProcessPoolExecutor``) loses the whole batch to one dead worker
    and waits forever on a wedged one, so constructing unsupervised
    pools is allowed only inside the executor package itself (and the
    exploratory ``examples/`` tree).
    """

    rule_id = "RP008"
    title = "bare worker pool outside repro/exec"

    _BANNED = {
        "multiprocessing.Pool",
        "multiprocessing.pool.Pool",
        "multiprocessing.pool.ThreadPool",
        "multiprocessing.dummy.Pool",
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
    }
    #: attribute spellings that reach a pool through a context object
    #: (``ctx.Pool(...)``), which import resolution cannot see
    _BANNED_ATTRS = {"Pool", "ThreadPool", "ProcessPoolExecutor"}

    def check_module(
        self, module: SourceModule, config: LintConfig
    ) -> Iterator[Finding]:
        if module.is_under(*config.exec_dirs) or module.is_under(
            *config.exploratory_dirs
        ):
            return
        imports = import_map(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func, imports)
            if name in self._BANNED:
                yield Finding(
                    self.rule_id,
                    module.rel,
                    node.lineno,
                    f"bare `{name}` fan-out; run tasks through "
                    "repro.exec.Supervisor (timeouts, crash "
                    "isolation, deterministic retries)",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._BANNED_ATTRS
            ):
                yield Finding(
                    self.rule_id,
                    module.rel,
                    node.lineno,
                    f"`.{node.func.attr}(...)` constructs an "
                    "unsupervised worker pool; run tasks through "
                    "repro.exec.Supervisor",
                )


def _all_rules() -> tuple[Rule, ...]:
    # dataflow.py imports helpers from this module; resolve the cycle
    # by assembling the registry lazily at import completion.
    from reprolint.dataflow import DATAFLOW_RULES

    return (
        UnkeyedRandomness(),
        KernelTwinDiscipline(),
        ExperimentContract(),
        HotPathPurity(),
        NondeterminismSources(),
        BareWorkerPool(),
        *DATAFLOW_RULES,
    )


ALL_RULES: tuple[Rule, ...] = _all_rules()
