"""``python tests/trace_record.py SOURCE_DIR OUT_DIR [SCRIPT]`` runs
``SCRIPT`` (default: :func:`entry_points`) under ``sys.setprofile`` and
``threading.setprofile``; each process, forked ``multiprocessing``
children included, writes ``OUT_DIR/<pid>.json``.  ``ran`` holds ``[file,
first line]`` of each code object under ``SOURCE_DIR`` that was called
(a decorated function starts at its first decorator; Python 3.10 has no
``co_qualname``).  ``set`` holds ``[file, first line, name]`` of each
defaulted parameter a call passed a value that is not the default object
and not an equal value of its exact type (an array never is), or
``[module.Class, name]`` for a dataclass's generated ``__init__``.
Defaults are found by code identity among the functions, methods,
properties and ``__wrapped__`` targets of the modules under
``SOURCE_DIR``; other code records no option.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import runpy
import sys
import threading
from multiprocessing.process import BaseProcess
from pathlib import Path
from types import FunctionType

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _is_default(value: object, default: object) -> bool:
    try:
        return value is default or (type(value) is type(default) and (value == default) is True)
    except Exception:  # an __eq__ that raises
        return False


def _functions(value: object, owner: type | None = None) -> list:
    """``(function, owning class)`` pairs behind a module attribute."""
    if isinstance(value, type) and owner is None:
        return [f for v in vars(value).values() for f in _functions(v, value)]
    if isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    if isinstance(value, property):
        return [(f, owner) for f in (value.fget, value.fset) if f]
    found = []
    while isinstance(value, FunctionType):
        found.append((value, owner))
        value = getattr(value, "__wrapped__", None)
    return found


class Recorder:
    """What ran under one source tree, and which options calls set."""

    def __init__(self, source_dir: str) -> None:
        self.root = os.path.join(source_dir, "")
        self.ran, self.set = set(), set()  # the two lists of a record
        self._watch: dict = {}  # code -> its options not yet set
        self._known: dict = {}  # code -> (function, owning class)
        self._scanned: dict[str, int] = {}  # module -> names when scanned

    def _resolve(self, code) -> tuple:
        if code not in self._known:
            # Scan the modules that gained names (a module may have been
            # scanned halfway through its import).
            for name, module in list(sys.modules.items()):
                path = str(getattr(module, "__file__", None))
                names = vars(module) if path.startswith(self.root) else {}
                if len(names) != self._scanned.get(name, 0):
                    self._scanned[name] = len(names)
                    for value in list(names.values()):
                        for fn, owner in _functions(value):
                            self._known.setdefault(fn.__code__, (fn, owner))
        return self._known.get(code, (None, None))

    def _options(self, code) -> tuple:
        """``(name, default, where)`` of each defaulted parameter of
        ``code``'s function; ``where`` names the function in a record."""
        where: tuple = (code.co_filename, code.co_firstlineno)
        generated = code.co_filename == "<string>" and code.co_name == "__init__"
        if code.co_filename.startswith(self.root):
            self.ran.add(where)
        elif not generated:
            return ()
        fn, owner = self._resolve(code)
        if generated:
            if owner is None:
                return ()
            where = (f"{owner.__module__}.{owner.__qualname__}",)
        if fn is None:
            return ()
        positional = code.co_varnames[: code.co_argcount]
        defaults = fn.__defaults__ or ()
        pairs = [*zip(positional[len(positional) - len(defaults) :], defaults, strict=True)]
        pairs += (fn.__kwdefaults__ or {}).items()
        return tuple((name, default, where) for name, default in pairs)

    def profile(self, frame, event, arg) -> None:
        if event != "call":
            return
        watch = self._watch.get(frame.f_code)
        if watch is None:
            watch = self._watch[frame.f_code] = self._options(frame.f_code)
        if watch:
            values, unset = frame.f_locals, []
            for name, default, where in watch:
                if name in values and not _is_default(values[name], default):
                    self.set.add((*where, name))
                else:
                    unset.append((name, default, where))
            self._watch[frame.f_code] = tuple(unset)

    def dump(self, out_dir: str) -> None:
        sys.setprofile(None)
        path = os.path.join(out_dir, f"{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"ran": list(self.ran), "set": list(self.set)}, handle)


def _expect(code: object, entry, *argv: str, **env: str) -> None:
    """Run ``entry(argv)`` under ``env``; a wrong exit code fails the run."""
    os.environ.update(env)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            got = entry(list(argv))
    except SystemExit as exc:
        got = exc.code
    finally:
        for name in env:
            del os.environ[name]
    if got != code:
        raise SystemExit(f"{entry.__name__}{argv}: exit {got}, expected {code}")


def entry_points() -> None:
    """Every entry point once, from an empty directory; each variable only where needed."""
    from repro.analysis import report
    from repro.experiments import runner

    quick, point = ("--all", "--quick", "--store", "store"), ("--experiment", "fig8", "--quick")
    _expect(0, runner.main, *quick, "--jobs", "2", "--format", "json", "--out", "cold")
    _expect(0, runner.main, *quick, "--jobs", "1", "--out", "warm")
    _expect(0, runner.main, "--list")
    _expect(0, report.main, "cold")
    _expect(0, report.main, "warm", "--out", "report.md")
    argv = sys.argv
    for example in sorted(EXAMPLES.glob("*.py")):
        sys.argv = [str(example)]
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(example), run_name="__main__")
    sys.argv = argv
    _expect(2, runner.main, "--all", "--jobs", "0")
    # One attempt per point, so a certain fault is met by the supervisor:
    # a hang is timed out and killed, a crash is a worker death, a flake
    # is a worker's exception, and each is rescued in-process.
    policy = "max_attempts=1,timeout_base_s=0.5,timeout_scale=0,backoff_base_s=0.01"
    faults = (("hang", "timeouts"), ("crash", "worker_deaths"), ("flaky", "rescued"))
    for fault, counter in faults:
        chaos = {"REPRO_FAULTS": f"{fault}=1.0", "REPRO_EXEC": policy}
        _expect(0, runner.main, *point, "--jobs", "2", "--out", fault, **chaos)
        counters = json.loads(Path(fault, "manifest.json").read_text())["exec"]
        if (counters[counter], counters["rescued"]) != (1, 1):
            raise SystemExit(f"{fault}=1.0 run: exec counters {counters}")
    fail = {"REPRO_FAULTS": "fail=1.0", "REPRO_EXEC": "max_attempts=2,backoff_base_s=0.001"}
    _expect(3, runner.main, *point, "--format", "json", "--out", "failed", **fail)
    _expect(3, runner.main, *point, **fail)
    _expect(0, runner.main, *point, "--jobs", "2", REPRO_SANITIZE="1")
    _expect(0, runner.main, "--experiment", "fig13", "--quick", "--seed", "11")


def main(source_dir: str, out_dir: str, script: str | None = None) -> None:
    recorder = Recorder(source_dir)
    bootstrap = BaseProcess._bootstrap

    def recorded(self, *args, **kwargs):
        try:
            return bootstrap(self, *args, **kwargs)
        finally:
            recorder.dump(out_dir)  # before the child's os._exit

    BaseProcess._bootstrap = recorded
    threading.setprofile(recorder.profile)
    sys.setprofile(recorder.profile)
    try:
        if script:
            runpy.run_path(script, run_name="__main__")
        else:
            entry_points()
    finally:
        recorder.dump(out_dir)


if __name__ == "__main__":
    main(*sys.argv[1:])
