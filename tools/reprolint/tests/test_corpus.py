"""Pin every reprolint rule against the self-test corpus.

Each corpus tree under ``corpus/<rule>/`` is a miniature repository
(the rules are path-sensitive); the violating tree must produce
exactly the findings pinned here — rule id, path, *and* line — and
the conforming tree must produce none.  A second set of tests runs
the cross-file RP002 rule over the *real* repository, asserting that
exactly the ``*_reference`` kernel twins in ``EXPECTED_TWINS`` are
discovered and pass the gate-suite checks.
"""

from pathlib import Path

import ast

import pytest

from reprolint.core import Checker, LintConfig
from reprolint.rules import ALL_RULES, KernelTwinDiscipline

CORPUS = Path(__file__).resolve().parent / "corpus"
REPO = Path(__file__).resolve().parents[3]

#: corpus trees use a non-``test_*`` equivalence-suite name so pytest
#: never collects them; the rule's file layout is config, not magic.
CORPUS_EQUIV = "tests/equivalence_suite.py"


def run_tree(rule_dir: str, kind: str) -> list[tuple[str, str, int]]:
    tree = CORPUS / rule_dir / kind
    assert tree.is_dir(), f"corpus tree missing: {tree}"
    config = LintConfig(root=tree, equivalence_test=CORPUS_EQUIV)
    checker = Checker(ALL_RULES, config)
    scan = [tree / d for d in ("src", "tests", "examples") if (tree / d).is_dir()]
    findings = checker.run(scan)
    return [(f.rule, f.path, f.line) for f in findings]


EXPECTED_VIOLATIONS = {
    "rp000": [
        ("RP000", "src/repro/sim/noisy.py", 7),  # suppression lacks justification
        ("RP001", "src/repro/sim/noisy.py", 7),  # ...so nothing is suppressed
        ("RP000", "src/repro/sim/noisy.py", 8),  # unknown rule RP999
        ("RP000", "src/repro/sim/noisy.py", 9),  # unused suppression
    ],
    "rp001": [
        ("RP001", "src/repro/sim/noise.py", 3),  # stdlib random import
        ("RP001", "src/repro/sim/noise.py", 9),  # raw default_rng()
    ],
    "rp002": [
        ("RP002", "src/repro/phy/kern.py", 4),  # no vectorized twin
        ("RP002", "src/repro/phy/kern.py", 4),  # not in equivalence suite
        ("RP002", "src/repro/phy/kern.py", 4),  # no benchmark
    ],
    "rp003": [
        ("RP003", "src/repro/experiments/exp_broken.py", 5),  # module-level call
        ("RP003", "src/repro/experiments/exp_broken.py", 7),  # module-level for
        ("RP003", "src/repro/experiments/exp_broken.py", 10),  # bare if block
        ("RP003", "src/repro/experiments/exp_broken.py", 20),  # second @register
        ("RP003", "src/repro/experiments/exp_broken.py", 24),  # __main__ guard
    ],
    "rp004": [
        ("RP004", "src/repro/phy/kernel.py", 10),  # out[i, j] under nested loops
        ("RP004", "src/repro/phy/kernel.py", 16),  # np.ndindex iteration
        ("RP004", "src/repro/phy/kernel.py", 23),  # .flat iteration
    ],
    "rp005": [
        ("RP005", "src/repro/sim/report.py", 8),  # time.time()
        ("RP005", "src/repro/sim/report.py", 9),  # datetime.now()
        ("RP005", "src/repro/sim/report.py", 14),  # level == 0.0
    ],
    "rp006": [
        ("RP006", "src/repro/sim/power.py", 11),  # dbm + dbm
        ("RP006", "src/repro/sim/power.py", 12),  # seconds + chip count
        ("RP006", "src/repro/sim/power.py", 13),  # db into *_linear name
        ("RP006", "src/repro/sim/power.py", 14),  # db bound to mw param
        ("RP006", "src/repro/sim/power.py", 18),  # db compared with dbm
    ],
    "rp008": [
        ("RP008", "src/repro/sweep/fan.py", 8),  # multiprocessing.Pool
        ("RP008", "src/repro/sweep/fan.py", 11),  # ctx.Pool via a context
        ("RP008", "src/repro/sweep/fan.py", 13),  # ProcessPoolExecutor
    ],
    "rp007": [
        ("RP007", "src/repro/sim/streams.py", 19),  # shares 'noise' with :15
        ("RP007", "src/repro/sim/streams.py", 23),  # non-literal label
        ("RP007", "src/repro/sim/streams.py", 27),  # starred ids, no forwarder
        ("RP007", "src/repro/sim/streams.py", 32),  # alias branches hash alike
    ],
}


@pytest.mark.parametrize("rule_dir", sorted(EXPECTED_VIOLATIONS))
def test_violating_tree_pins_rule_and_lines(rule_dir):
    assert sorted(run_tree(rule_dir, "violating")) == sorted(
        EXPECTED_VIOLATIONS[rule_dir]
    )


@pytest.mark.parametrize("rule_dir", sorted(EXPECTED_VIOLATIONS))
def test_conforming_tree_is_clean(rule_dir):
    assert run_tree(rule_dir, "conforming") == []


def test_missing_equivalence_suite_is_reported():
    tree = CORPUS / "rp002" / "violating"
    config = LintConfig(root=tree, equivalence_test="tests/nope.py")
    findings = Checker([KernelTwinDiscipline()], config).run([tree / "src"])
    assert any("missing" in f.message for f in findings)


def test_finding_render_format():
    findings = Checker(
        ALL_RULES,
        LintConfig(root=CORPUS / "rp001" / "violating", equivalence_test=CORPUS_EQUIV),
    ).run([CORPUS / "rp001" / "violating" / "src"])
    assert findings[0].render().startswith("src/repro/sim/noise.py:3: RP001 ")


# ---------------------------------------------------------------------------
# the real repository
# ---------------------------------------------------------------------------

#: the vectorized kernels whose loop specs the repo maintains
EXPECTED_TWINS = {
    "correlation",
    "demodulate_soft",
    "evaluate_schemes",
    "gf2_eliminate",
    "hot_codewords",
    "modulate_chips",
    "plan_chunks",
    "remodulate_frame",
}


def _real_reference_names() -> set[str]:
    names = set()
    for path in sorted((REPO / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.FunctionDef)
                and node.name.endswith("_reference")
                and not node.name.startswith("_")
            ):
                names.add(node.name)
    return names


def test_rp002_sees_every_real_reference_twin():
    assert _real_reference_names() == {f"{t}_reference" for t in EXPECTED_TWINS}


def test_rp002_cross_verifies_real_repo_clean():
    checker = Checker([KernelTwinDiscipline()], LintConfig(root=REPO))
    findings = checker.run([REPO / "src"])
    assert findings == [], [f.render() for f in findings]


def test_whole_repo_is_reprolint_clean():
    """The CI gate, enforced from tier-1 too: zero findings, zero
    suppressions, over everything reprolint scans."""
    checker = Checker(ALL_RULES, LintConfig(root=REPO))
    findings = checker.run([REPO / "src", REPO / "tests"])
    assert findings == [], [f.render() for f in findings]
    assert checker.files_scanned > 100
