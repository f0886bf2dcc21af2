"""Every module under ``src/repro`` is reached by the runner, every
function and method runs or is kept with a stated reason, and every
option is set by a run or is kept with a stated reason.

**Modules.** A static import walk (``ast``; nothing is imported) starts
at the runner, the report generator and every ``exp_*`` module (the
registry discovers those at runtime) and follows every ``import`` and
``from`` statement, function-local, relative and ``TYPE_CHECKING`` ones
included.  ``from pkg import name`` reaches ``pkg.name`` when that is a
module, else the one statement of the package's ``__init__`` (a
re-export shim, never walked) that binds ``name``.  A module the walk
does not reach is wired in or deleted; there is no allowlist.

**Functions and options.** One fresh interpreter runs every entry point
under ``tests/trace_record.py``, which records, forked workers included,
each function that runs and each option (defaulted parameter, or
defaulted field of a frozen dataclass) some executed call sets to a
value that is not its default.  A top-level function or method that
never runs is a dunder, abstract, a ``*_reference`` twin, a probe
target of ``perfbench/tracing.py`` (frozen: a target that has gone
prints ``absent:``), or in ``KEEP`` with a reason.  An option no run
sets belongs to a twin, a probe or a kept function (kept whole), or is
in ``KEEP_OPTIONS`` with a reason.  An entry of either dict that runs
or is set, that a rule covers, or that is gone fails too.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from collections import namedtuple
from pathlib import Path
from typing import Iterable, NamedTuple

import pytest

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


# -- what the entry points run and set ---------------------------------------

_PINNED = "wire-level delivery spec test_packet_and_ppr_match_real_schemes pins traces against"
_FEEDBACK = "decode_feedback and decode_retransmission parse the wire format with it"
_DELIVER = "the packet-CRC and PPR deliver specs read a reception through it"
_TWIN = "per-record view the loop twin evaluate_schemes_reference reads"
_BAD_PACKET = "examples/sic_recovery.py prints it for a packet still bad after SIC"

#: functions and methods no entry point runs, each with the job it does
KEEP = {
    # reference specs the tests pin live code against
    "repro.utils.sanitize.check_finite": "NaN canary the kernel equivalence tests assert with",
    "repro.utils.sanitize.reset": "clears the key ledger between tests (tests/conftest.py)",
    "repro.utils.sanitize.suspended": "lets a test mint a deliberate key collision",
    "repro.arq.chunking.chunk_cost_naive": "upper bound the DP chunk planner is checked against",
    "repro.arq.chunking.merged_single_chunk_cost": "one-chunk bound of the DP chunk planner",
    "repro.arq.feedback.encode_feedback": "wire format that pins the live feedback_bit_cost",
    "repro.arq.feedback.decode_feedback": "round-trips encode_feedback, so the format decodes",
    "repro.arq.feedback.decode_retransmission": "round-trips the live encode_retransmission",
    "repro.arq.feedback.FeedbackPacket.is_ack": "what a decoded feedback packet means",
    "repro.phy.codebook.Codebook.min_distance": "pins the minimum distance of 12 hints rely on",
    "repro.store.serialize.result_to_parts": "byte-level spec of a stored run the digests pin",
    "repro.link.schemes.DeliveryScheme.deliver": "interface of the two wire-level specs below",
    "repro.link.schemes.PacketCrcScheme.deliver": _PINNED,
    "repro.link.schemes.PprScheme.deliver": _PINNED,
    "repro.link.frame.parse_header_bytes": "byte-level header check that pins header_rows_ok",
    "repro.link.frame.parse_trailer_bytes": "byte-level trailer check that pins trailer checks",
    "repro.utils.crc.CrcAlgorithm.compute_table": "table loop the CRC kernels are pinned against",
    # what only those specs use
    "repro.utils.bitops.BitReader.read_uint": _FEEDBACK,
    "repro.utils.bitops.BitReader.remaining": _FEEDBACK,
    "repro.utils.bitops.bits_to_int": _FEEDBACK,
    "repro.utils.bitops.bytes_to_bits": _FEEDBACK,
    "repro.link.schemes.PacketCrcScheme.encode_payload": "wire payload its deliver spec parses",
    "repro.phy.symbols.SoftPacket.correct_mask": _DELIVER,
    "repro.phy.symbols.SoftPacket.payload_bytes": _DELIVER,
    "repro.phy.codebook.Codebook.pairwise_distances": "the matrix min_distance minimises",
    # what the loop twins call
    "repro.sim.network.ReceptionRecord.tx": _TWIN,
    "repro.sim.network.ReceptionRecord.link": _TWIN,
    "repro.sim.network.ReceptionRecord.payload_hints": _TWIN,
    "repro.sim.network.ReceptionRecord.payload_correct": _TWIN,
    "repro.sim.network.ReceptionRecord._trace": _TWIN,
    "repro.link.quality.LinkObservation.record_sent": _TWIN,
    "repro.link.quality.LinkObservation.record_acquired": _TWIN,
    # test seams, branches the entry points never take, and perfbench
    "repro.sim.network.NetworkSimulation.medium": "test seam: the reception equivalence tests",
    "repro.sim.network.NetworkSimulation.testbed": "test seam: equivalence tests, test_network",
    "repro.recovery.chunks.ChunkRecovery.n_bad_symbols": _BAD_PACKET,
    "repro.recovery.chunks.ChunkRecovery.cost_bits": _BAD_PACKET,
    "repro.store.core.RunStore.path_for": "perfbench digests the sim-heavy entries it names",
}

_LIMIT = "model parameter a closed-form test sets to its limit:"

#: options no entry point sets, each with the reason it stays an option
KEEP_OPTIONS = {
    "repro.exec.supervisor.Supervisor.__init__.faults": "test seam: a FaultPlan without the env",
    "repro.exec.supervisor.Supervisor.__init__.context": "test seam: test_exec's refusing fork",
    "repro.exec.supervisor.Supervisor._complete.degraded": "test seam: test_exec's refusing fork",
    "repro.sim.network.NetworkSimulation.__init__.testbed": "test seam: test_network's layouts",
    "repro.sim.network.NetworkSimulation.__init__.path_loss": "test seam: no shadowing in those",
    "repro.sim.network.SimulationConfig.payload_bytes": "test seam: 200-400-byte test frames",
    "repro.sim.network.SimulationConfig.fading_sigma_db": f"{_LIMIT} 0 turns fading off",
    "repro.sim.network.SimulationConfig.wall_loss_db": f"{_LIMIT} 0 drops wall losses",
    "repro.sim.network.SimulationConfig.min_rx_snr_db": f"{_LIMIT} 200 dB mutes every link",
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


class Inventory(NamedTuple):
    """``functions``: each top-level function and method -> its ``(file,
    first line)``; ``exempt``: the dunders, abstract methods and twins;
    ``options``: each option -> its function or frozen dataclass."""

    functions: dict[str, tuple[str, int]]
    exempt: set[str]
    options: dict[str, str]


def _decorators(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef) -> set[str]:
    targets = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return {getattr(t, "attr", None) or getattr(t, "id", "") for t in targets}


def _fields(node: ast.ClassDef) -> list[str]:
    """The defaulted fields of a frozen dataclass."""
    calls = [d for d in node.decorator_list if isinstance(d, ast.Call)]
    keywords = {ast.unparse(kw) for call in calls for kw in call.keywords}
    if "dataclass" not in _decorators(node) or "frozen=True" not in keywords:
        return []
    return [
        item.target.id
        for item in node.body
        if isinstance(item, ast.AnnAssign)
        and item.value is not None
        and "ClassVar" not in ast.unparse(item.annotation)
        and not re.fullmatch(r"field\((?!.*default).*\)", ast.unparse(item.value))
    ]


def inventory(modules: dict[str, Path]) -> Inventory:
    found = Inventory({}, set(), {})
    for module, path in modules.items():
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            name = f"{module}.{getattr(node, 'name', '')}"
            defs = [(name, node)] if isinstance(node, _FUNCS) else []
            if isinstance(node, ast.ClassDef):
                found.options.update((f"{name}.{f}", name) for f in _fields(node))
                defs = [(f"{name}.{n.name}", n) for n in node.body if isinstance(n, _FUNCS)]
            for qual, fn in defs:
                first = min([fn.lineno, *(d.lineno for d in fn.decorator_list)])
                found.functions[qual] = (str(path), first)
                if re.fullmatch(r"__\w+__|\w+_reference", fn.name) or (
                    "abstractmethod" in _decorators(fn)
                ):
                    found.exempt.add(qual)
                args = fn.args
                params = [*args.posonlyargs, *args.args]
                defaulted = params[len(params) - len(args.defaults) :]
                kwonly = zip(args.kwonlyargs, args.kw_defaults, strict=True)
                defaulted += [a for a, default in kwonly if default]
                found.options.update((f"{qual}.{a.arg}", qual) for a in defaulted)
    return found


def trace(found: Inventory, source: Path, workdir: Path, env: dict, *script: str) -> tuple:
    """Run ``script`` (default: the entry points) from ``workdir`` under the
    recorder; what ran and the options set in any process, by name."""
    (out := workdir / "records").mkdir()
    recorder = Path(__file__).with_name("trace_record.py")
    command = [sys.executable, str(recorder), str(source), str(out), *script]
    done = subprocess.run(command, cwd=workdir, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-3000:]
    name_at = {place: name for name, place in found.functions.items()}
    ran, set_ = set(), set()
    for path in out.iterdir():
        record = json.loads(path.read_text(encoding="utf-8"))
        ran.update(name_at.get(tuple(place)) for place in record["ran"])
        for *where, option in record["set"]:
            owner = name_at.get(tuple(where)) if len(where) == 2 else where[0]
            set_.add(f"{owner}.{option}")
    return ran - {None}, set_ & found.options.keys()


def probe_targets() -> set[str]:
    """The functions perfbench wraps, named by ``module:path`` strings."""
    tree = ast.parse((SRC.parent / "perfbench" / "tracing.py").read_text())
    strings = [n.value for n in ast.walk(tree) if isinstance(getattr(n, "value", None), str)]
    return {s.replace(":", ".") for s in strings if s.startswith(f"{PACKAGE}.") and ":" in s}


Findings = namedtuple("Findings", "unrun unset stale_keep stale_options")


def findings(
    found: Inventory, ran: set, set_: set, keep: dict, keep_options: dict, probes: Iterable = ()
) -> Findings:
    exempt = (found.exempt | set(probes)) & found.functions.keys()
    # Twins, probes and kept functions keep their options too.
    whole = {f for f in exempt if f.endswith("_reference")} | set(probes) | keep.keys()
    covered = {o for o, owner in found.options.items() if owner in whole}
    return Findings(
        unrun=found.functions.keys() - ran - exempt - keep.keys(),
        unset=found.options.keys() - set_ - covered - keep_options.keys(),
        stale_keep={k for k in keep if k not in found.functions or k in ran | exempt},
        stale_options={k for k in keep_options if k not in found.options or k in set_ | covered},
    )


@pytest.fixture(scope="module")
def repo_findings(tmp_path_factory) -> Findings:
    found = inventory({m: MODULES[m] for m in sorted(_plain_modules())})
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    workdir = tmp_path_factory.mktemp("entry-points")
    ran, set_ = trace(found, SRC / PACKAGE, workdir, env | {"PYTHONPATH": str(SRC)})
    return findings(found, ran, set_, KEEP, KEEP_OPTIONS, probe_targets())


def test_every_symbol_is_reached_or_kept(repo_findings):
    unrun = sorted(repo_findings.unrun)
    assert not unrun, f"no entry point runs these; delete them or keep them with a reason: {unrun}"


def test_keep_is_not_stale(repo_findings):
    stale = sorted(repo_findings.stale_keep)
    assert not stale, f"kept functions that run, pass a rule or are gone: {stale}"
    assert all(reason.strip() for reason in KEEP.values())


def test_every_option_is_set_or_kept(repo_findings):
    unset = sorted(repo_findings.unset)
    assert not unset, f"no entry point sets these; make them constants or keep them: {unset}"


def test_keep_options_is_not_stale(repo_findings):
    stale = sorted(repo_findings.stale_options)
    assert not stale, f"kept options that are set, belong to a kept function or are gone: {stale}"
    assert all(reason.strip() for reason in KEEP_OPTIONS.values())


_RULES_MODULE = '''
import functools, multiprocessing
from dataclasses import dataclass
def plot(series, width=60): ...
def pulse(chips, sps=4): ...
def modulate(chips, sps=4): return pulse(chips, sps=sps)
def never(x=1): ...
def never_reference(x=1): ...
@dataclass(frozen=True)
class Config:
    seed: int = 0
    duration_s: float = 30.0
    def __hash__(self): return 0
@dataclass
class Counters:
    hits: int = 0
class Store:
    def __init__(self, base=None): ...
def register(fn):
    @functools.wraps(fn)
    def wrapper(runs, quick=False): return fn(runs)
    return wrapper
@register
def body(runs, quick=True): ...
def child(*, depth=0): ...
def fork():
    ctx = multiprocessing.get_context("fork")
    process = ctx.Process(target=child, kwargs={"depth": 1})
    process.start()
    process.join()
'''

_RULES_DRIVER = '''from pkg import mod
mod.plot([1], width=60), mod.plot([1], 60), mod.modulate([1], sps=2)
mod.Config(seed=3), mod.Config(duration_s=30.0), mod.Counters(hits=5)
mod.body([]), mod.fork(), mod.Store()
'''


def test_tracer_rules(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(_RULES_MODULE)
    (tmp_path / "drive.py").write_text(_RULES_DRIVER)
    found = inventory({"pkg.mod": tmp_path / "pkg" / "mod.py"})
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    ran, set_ = trace(found, tmp_path / "pkg", tmp_path, env, str(tmp_path / "drive.py"))

    def mod(*names: str) -> set[str]:
        return {f"pkg.mod.{name}" for name in names}

    assert mod("body", "child") <= ran
    # Passing a default by keyword or by position sets nothing; passing
    # on a non-default does, and so do a frozen field at construction and
    # a call in a forked child.
    assert set_ == mod("modulate.sps", "pulse.sps", "Config.seed", "child.depth")
    keep = dict.fromkeys(mod("modulate", "gone"), "runs or is gone")
    keep_options = dict.fromkeys(mod("pulse.sps", "never_reference.x"), "set or kept whole")
    keep_options["pkg.mod.Config.duration_s"] = "kept with a reason"
    result = findings(found, ran, set_, keep, keep_options)
    # A dunder and a twin pass unrun; only the twin keeps its options.
    assert result.unrun == mod("never")
    # The functools.wraps wrapper does not lend its False to the body.
    assert result.unset == mod("never.x", "plot.width", "body.quick", "Store.__init__.base")
    assert result.stale_keep == mod("modulate", "gone")
    assert result.stale_options == mod("pulse.sps", "never_reference.x")
