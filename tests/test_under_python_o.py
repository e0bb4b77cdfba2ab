"""The certificate tests, run again by `python -O`.

The tests whose names end in `survive(s)_optimization` break a result on
purpose and expect the package to raise. `python -O` switches off the
package's own asserts but not those pytest rewrites in test modules, which
is the case the certificates exist for; the rest of the suite runs without
-O, so this test starts a second pytest under -O that runs only those.
A second test keeps the package itself free of assert statements.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_certificate_tests_pass_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", "-k", "survive"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    summary = proc.stdout.strip().splitlines()[-1]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", summary)}
    assert counts.get("passed", 0) >= 12, summary
    assert set(counts) <= {"passed", "deselected", "warning", "warnings"}, summary


def test_package_has_no_assert_statements():
    # -O strips them, so a certificate written as an assert would stop checking
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "circletriples").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
