"""numpy is the runtime's only dependency; scipy is a test oracle.

The chip channel's ``erfc`` comes from :func:`math.erfc` and the FFT
correlator's padded length from :func:`repro.phy.fftcorr.next_fast_len`.
These tests run the program with scipy unimportable, keep scipy out of
every program module's imports, and pin the in-repo FFT length to
scipy's.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

from scipy.fft import next_fast_len as scipy_next_fast_len

from repro.phy.fftcorr import next_fast_len
from repro.utils.rng import ensure_rng

ROOT = Path(__file__).resolve().parent.parent

WITHOUT_SCIPY = """
import sys

sys.modules["scipy"] = None  # every "import scipy..." now fails

from repro.experiments import registry
from repro.experiments.runner import main, run_experiments
from repro.phy.fftcorr import FftCorrelator
from repro.sim.network import NetworkSimulation, SimulationConfig

assert len(registry.all_specs()) == 16
assert main(["--list"]) == 0
result = NetworkSimulation(SimulationConfig(duration_s=1.0, seed=1)).run()
assert len(result.transmissions) > 0

correlated = []
correlate = FftCorrelator.correlate
FftCorrelator.correlate = lambda self, capture, names: (
    correlated.append(len(capture)) or correlate(self, capture, names)
)
outcome = run_experiments(["sic_collision"], duration_s=2.0)
assert not outcome.failures, outcome.failures
assert correlated, "sic_collision did not reach the FFT correlator"

loaded = [
    name
    for name, module in sys.modules.items()
    if name.split(".")[0] == "scipy" and module is not None
]
assert not loaded, loaded
print("ok")
"""


def test_program_runs_with_scipy_unimportable():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=False,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_program_module_imports_scipy():
    offenders = [
        str(path.relative_to(ROOT))
        for directory in ("src", "examples", "benchmarks", "perfbench")
        for path in sorted((ROOT / directory).rglob("*.py"))
        if "scipy" in _imported_roots(path)
    ]
    assert offenders == []


def test_setup_requires_numpy_alone():
    tree = ast.parse((ROOT / "setup.py").read_text())
    keywords = {
        kw.arg: ast.literal_eval(kw.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "setup"
        for kw in node.keywords
        if kw.arg in ("install_requires", "extras_require")
    }
    assert keywords["install_requires"] == ["numpy>=2.0"]
    assert "scipy" in keywords["extras_require"]["test"]


def test_next_fast_len_matches_scipy():
    """Every length below 2**15 (a quick run's correlations ask for
    nine lengths between 16,135 and 31,367), plus a sample above."""
    sample = ensure_rng(23).integers(1 << 15, 1 << 22, 200)
    for n in [*range(1, 1 << 15), *sample.tolist()]:
        assert next_fast_len(n) == scipy_next_fast_len(n, real=False), n
