"""Setup shim for environments without PEP 517 wheel support.

``pip install -e .`` in this offline environment lacks the ``wheel``
package, so ``python setup.py develop`` (or the .pth fallback) is the
supported editable-install path.

The version is read textually from ``src/repro/_version.py`` — the
package's single source of truth — rather than imported, so installing
does not require the package's dependencies to be importable.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_VERSION_FILE = Path(__file__).parent / "src" / "repro" / "_version.py"


def _read_version() -> str:
    match = re.search(
        r'^__version__\s*=\s*"([^"]+)"',
        _VERSION_FILE.read_text(),
        re.MULTILINE,
    )
    if match is None:
        raise RuntimeError(f"no __version__ in {_VERSION_FILE}")
    return match.group(1)


setup(
    name="repro",
    version=_read_version(),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    # numpy is the only runtime dependency: >= 2.0 for np.bitwise_count
    # (the chip-word popcount).  The standard library supplies erfc
    # and the CRCs.  The tests use scipy's erfc and next_fast_len as
    # independent oracles, hence the "test" extra.
    install_requires=["numpy>=2.0"],
    extras_require={
        "test": ["scipy", "pytest", "pytest-benchmark", "hypothesis"]
    },
)
