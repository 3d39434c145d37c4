"""tools/linecov.py: its report on a toy module traced under a toy test run,
and that it writes nothing but the report."""
import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "linecov.py")

TOY = '''def sign(x):
    if x > 0:
        return "pos"
    return "nonpos"


def never():
    return 1
'''

TOY_TEST = '''from pkg.toy import sign


def test_sign():
    assert sign(3) == "pos"
'''


def _files(root):
    return {os.path.relpath(os.path.join(d, f), root) for d, _, fs in os.walk(root) for f in fs}


def test_report_lists_the_lines_that_never_ran(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "toy.py").write_text(TOY, encoding="utf-8")
    (tmp_path / "test_toy.py").write_text(TOY_TEST, encoding="utf-8")
    before = _files(tmp_path)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, TOOL, "--out", "report.txt", "--source", "pkg", "--",
         "-q", "-p", "no:cacheprovider", "test_toy.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert _files(tmp_path) == before | {"report.txt"}
    assert (tmp_path / "report.txt").read_text(encoding="utf-8").splitlines() == [
        "pkg/toy.py: 2 of 6 lines never ran",
        "      4  return \"nonpos\"",
        "      8  return 1",
    ]
