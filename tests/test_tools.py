"""The tools in tools/: the source line counter, which lines count as
code, and the artifact comparison of two source trees."""

import importlib.util
import shutil
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

# 20 physical lines.  Code: the import, the class and def lines, the
# three lines of the continued sum, the two lines of the assigned string
# and the return; 9 in all.  The three docstrings (4 lines), the
# comment-only line and the blank lines do not count.
SOURCE = '''"""Module docstring,
over two lines."""

import os


class Box:
    """Class docstring."""

    # a comment on a line of its own

    def size(self):
        """Function docstring."""
        total = (1 +
                 2 +
                 3)
        text = """a string,
not a docstring"""
        return total, text, os.sep

'''


def test_count_on_a_synthetic_module():
    assert len(SOURCE.splitlines()) == 20
    assert src_lines.count(SOURCE) == (20, 9)



_TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_artifacts.py"
_TOOL_SPEC = importlib.util.spec_from_file_location("same_artifacts", _TOOL)
same_artifacts = importlib.util.module_from_spec(_TOOL_SPEC)
_TOOL_SPEC.loader.exec_module(same_artifacts)

SRC = Path(__file__).resolve().parent.parent / "src"
TWO_RUNS = (("spectrum-2", [["--maxlen", "2", "spectrum"]]),
            ("config-error", [["--maxlen", "0", "spectrum"]]))


def test_same_tree_gives_no_difference(capsys):
    assert same_artifacts.main([str(SRC), str(SRC)], runs=TWO_RUNS) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["same   spectrum-2 (exit 0)",
                     "same   config-error (exit 2)", "2 runs, 0 differ"]


def test_a_changed_constant_is_reported(tmp_path, capsys):
    shutil.copytree(SRC / "qfcert", tmp_path / "qfcert",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "qfcert" / "cli.py"
    text = cli.read_text()
    assert "bend_angle: float = 0.6\n" in text
    cli.write_text(text.replace("bend_angle: float = 0.6\n",
                                "bend_angle: float = 0.7\n"))
    assert same_artifacts.main([str(SRC), str(tmp_path)], runs=TWO_RUNS) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["DIFF   spectrum-2 (exit 0): artifact spectrum.csv",
                     "same   config-error (exit 2)", "2 runs, 1 differ"]


def test_a_changed_message_shows_its_first_differing_line(tmp_path, capsys):
    shutil.copytree(SRC / "qfcert", tmp_path / "qfcert",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "qfcert" / "cli.py"
    text = cli.read_text()
    assert text.count('"config error: %s"') == 1
    cli.write_text(text.replace('"config error: %s"', '"config problem: %s"'))
    assert same_artifacts.main([str(SRC), str(tmp_path)], runs=TWO_RUNS) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["same   spectrum-2 (exit 0)",
                     "DIFF   config-error (exit 2): command 1 stderr",
                     "    parent: config error: maxlen must be at least 1",
                     "    change: config problem: maxlen must be at least 1",
                     "2 runs, 1 differ"]


def test_a_changed_reader_message_shows_on_a_payload_run(tmp_path, capsys):
    # the run writes a certificate, drops one key from it and reads it back
    shutil.copytree(SRC / "qfcert", tmp_path / "qfcert",
                    ignore=shutil.ignore_patterns("__pycache__"))
    check = tmp_path / "qfcert" / "check.py"
    text = check.read_text()
    assert text.count('"malformed %s payload: %r"') == 1
    check.write_text(text.replace('"malformed %s payload: %r"',
                                  '"broken %s payload: %r"'))
    label = "certify-input-missing-key"
    runs = [run for run in same_artifacts.RUNS if run[0] == label]
    assert same_artifacts.main([str(SRC), str(tmp_path)], runs=runs) == 1
    lines = capsys.readouterr().out.splitlines()
    read = "config error: cannot read certificate OUT/payload.json: "
    assert lines == ["DIFF   %s (exit 0/2): command 2 stderr" % label,
                     "    parent: " + read + "malformed certificate "
                     "payload: KeyError('ell_q_ab')",
                     "    change: " + read + "broken certificate "
                     "payload: KeyError('ell_q_ab')",
                     "1 runs, 1 differ"]
