"""Checks on the repository as a whole: the README's library example runs,
and the package stays within its code-line budget."""
import contextlib
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ofdmclip"
# code lines of src/ofdmclip; a change that adds code raises this in its diff.
# 861 -> 871: a block's configs share one first look (its levels and first
# peak search), and ClipConfig and WindowKind check and keep float parameters.
# 871 -> 880: each block labels its own rows from the span's Philox words and
# the drivers fold blocks into one result as they come (simulate), the PAPR
# adds its squares a chunk of rows at a time (_kernels), and the fork runner
# still kills and reaps every child when one was reaped before an interrupt.
# 880 -> 878: the clip loop yields counts only and simulate._block drains it
# itself, so crest._rcf_rows and the unused simulate._draw_labels are gone.
# 878 -> 875: crest._clip and crest._work_rows keep one form each (no |x|
# handed in, no bordered mode), and a SER block always draws its noise
CODE_LINE_BUDGET = 875
_LAYOUT = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)


def test_readme_library_example_runs():
    # every name the README's example uses still exists and still works
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.S | re.M)
    assert block, "README has no ## Library code block"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(block.group(1), "README.md", "exec"), {})
    assert out.getvalue()


def code_lines(source: str) -> int:
    """Lines that hold a token of code: blank lines, comments and docstrings
    (a string that is a whole statement) are not counted."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    lines = set()
    previous = tokenize.NEWLINE
    for i, tok in enumerate(tokens):
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.ENDMARKER):
            continue
        if tok.type in _LAYOUT:
            previous = tok.type
            continue
        if tok.type == tokenize.STRING and previous in _LAYOUT:
            following = next(t for t in tokens[i + 1:]
                             if t.type not in (tokenize.COMMENT, tokenize.NL))
            if following.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
        previous = tok.type
    return len(lines)


def test_code_lines_within_budget():
    assert code_lines('"""doc"""\n\n# note\nx = 1  # one\ndef f():\n    """doc"""\n'
                      '    return (1,\n            2)\n') == 4
    total = sum(code_lines(path.read_text()) for path in PACKAGE.glob("*.py"))
    assert total <= CODE_LINE_BUDGET, (
        f"src/ofdmclip has {total} code lines, over the budget of {CODE_LINE_BUDGET}")
