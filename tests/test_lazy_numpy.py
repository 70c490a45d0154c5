"""numpy is loaded only when a pair reaches the candidate search.

Each check runs in a fresh interpreter, one at a time, since the test
process itself has numpy loaded.
"""

import os
import subprocess
import sys

from tests.conftest import ROOT

LOADED = "print('numpy' in sys.modules)"


def _child(body: str) -> list:
    """Run `body` after `import sys, finalg` in a fresh interpreter from
    the repository root; its printed lines."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", "import sys, finalg\n" + body],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_leaves_numpy_out():
    assert _child(LOADED) == ["False"]


def test_parsing_and_fingerprints_leave_numpy_out():
    assert _child(
        "from pathlib import Path\n"
        "for path in sorted(Path('corpus/div8').glob('*.alg')):\n"
        "    finalg.fingerprint(finalg.parse_file(path))\n" + LOADED
    ) == ["False"]


def test_hilbert_command_leaves_numpy_out():
    out = _child("import finalg.cli\n"
                 "code = finalg.cli.main(['hilbert', 'corpus/div8/d8.alg'])\n"
                 "print(code)\n" + LOADED)
    assert out[-2:] == ["0", "False"]


def test_only_a_pair_that_reaches_the_search_loads_numpy():
    out = _child(
        "A, B, C, D = (finalg.parse_file(f'corpus/div8/{name}.alg')\n"
        "              for name in ('c8', 'c2c2c2', 'd8', 'c4c2'))\n"
        "v = finalg.graded_isomorphism(A, B)\n"
        "print(v.reason)\n" + LOADED +
        "\nv = finalg.graded_isomorphism(C, D)\n"
        "print(v.outcome, v.reason, sep=', ')\n" + LOADED)
    assert out == ["dimension sequence differs within the bound", "False",
                   "not-isomorphic, search exhausted", "True"]
