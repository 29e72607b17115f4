"""Every public top-level function and class of the library is reached from
the library itself, its scripts or the benchmark, not only from its own tests."""

import ast
import re
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


def _sources():
    for folder in (LIBRARY, ROOT / "scripts", ROOT / "bench"):
        for path in sorted(folder.glob("*.py")):
            yield path, path.read_text().splitlines()


def test_every_public_definition_is_reached():
    sources = list(_sources())
    unreached = []
    for path, lines in sources:
        if path.parent != LIBRARY:
            continue
        for node in ast.parse("\n".join(lines)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            word = re.compile(rf"\b{node.name}\b")
            own = range(node.lineno - 1, node.end_lineno)
            if not any(
                word.search(line)
                for other, other_lines in sources
                for i, line in enumerate(other_lines)
                if not (other == path and i in own)
            ):
                unreached.append(node.name)
    # equality: the allowlist also names nothing that is reached by now
    assert sorted(unreached) == sorted(ALLOWED)
