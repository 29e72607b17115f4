"""Every public top-level function and class of the library is reached from
the code of the library itself, its scripts or the benchmark, not only from
its own tests, a comment or a docstring."""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "ringzeta"

# reached only from the tests, and kept on purpose
ALLOWED = {
    "flag_count",  # the flag oracle of acceptance criterion 6
    "substitute",  # the monomial substitution of acceptance criterion 7
    "monomial_closed_form",  # oracle for the Igusa closed forms (ROADMAP item 17)
    "minform_series",  # oracle for the Igusa closed forms (ROADMAP item 17)
}


def _code_lines(text):
    """The lines of a Python source with its comments and docstrings left out.
    Other string literals stay: `bench/run.py` reaches `ratfun.formula_names`
    only through the code string it runs in a fresh interpreter."""
    docstrings = {
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    lines = [[] for _ in range(text.count("\n") + 2)]
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type != tokenize.COMMENT and token.start not in docstrings:
            lines[token.start[0] - 1].append(token.string)
    return [" ".join(words) for words in lines]


def _sources():
    for folder in (LIBRARY, ROOT / "scripts", ROOT / "bench"):
        for path in sorted(folder.glob("*.py")):
            text = path.read_text()
            yield path, text, _code_lines(text)


def test_every_public_definition_is_reached():
    sources = list(_sources())
    unreached = []
    for path, text, _ in sources:
        if path.parent != LIBRARY:
            continue
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            word = re.compile(rf"\b{node.name}\b")
            own = range(node.lineno - 1, node.end_lineno)
            if not any(
                word.search(line)
                for other, _, other_lines in sources
                for i, line in enumerate(other_lines)
                if not (other == path and i in own)
            ):
                unreached.append(node.name)
    # equality: the allowlist also names nothing that is reached by now
    assert sorted(unreached) == sorted(ALLOWED)
