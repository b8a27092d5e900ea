"""``tools/unreached.py``'s statement classifier and its verdicts on a toy module traced in this process."""

import importlib.util
import sys
import textwrap
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "unreached.py"
_SPEC = importlib.util.spec_from_file_location("unreached", _TOOL)
unreached = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(unreached)

TOY = textwrap.dedent(
    '''\
    """Module docstring."""
    import functools


    @functools.lru_cache(maxsize=None)
    def cached(n):
        """Function docstring."""
        total: int
        total = 0
        for i in range(n):
            total += i
        return total


    class Point:
        """Class docstring."""

        x: int = 0

        def norm(self):
            return abs(
                self.x
            )


    def guarded(x):
        global SEEN
        try:
            value = int(x)
        except ValueError:
            raise TypeError("no")
        if value > 10:
            return "big"
        return {
            "value": value,
        }


    def never():
        return 1
    '''
)


def _line(text):
    return next(i for i, line in enumerate(TOY.splitlines(), 1) if line.strip() == text)


def test_statements_skip_raises_docstrings_and_code_free_lines():
    found = unreached.statements(TOY)
    for text in ('"""Module docstring."""', '"""Function docstring."""', '"""Class docstring."""',
                 'raise TypeError("no")', "total: int", "global SEEN"):
        assert _line(text) not in found, text
    for text in ("import functools", "def cached(n):", "total = 0", "x: int = 0", "try:", "return abs(", "return 1"):
        assert _line(text) in found, text


def test_statement_lines_cover_decorators_headers_and_continuations():
    found = unreached.statements(TOY)
    assert found[_line("def cached(n):")] == range(_line("@functools.lru_cache(maxsize=None)"), _line("def cached(n):") + 1)
    assert found[_line("return abs(")] == range(_line("return abs("), _line(")") + 1)
    assert found[_line("for i in range(n):")] == range(_line("for i in range(n):"), _line("for i in range(n):") + 1)
    assert list(found[_line("try:")]) == [_line("try:")]


def test_a_traced_toy_module_lists_only_what_its_calls_skip(tmp_path, monkeypatch):
    path = tmp_path / "toy_unreached.py"
    path.write_text(TOY)
    monkeypatch.syspath_prepend(str(tmp_path))
    hits = set()
    with unreached.tracing({str(path)}, hits):
        import toy_unreached

        toy_unreached.cached(3)
        toy_unreached.Point().norm()
        toy_unreached.guarded("4")
    sys.modules.pop("toy_unreached")
    missed = [line for _, line in unreached.unreached({str(path): TOY}, hits)]
    assert missed == [_line('return "big"'), _line("return 1")]
