"""No function of the library calls itself, directly or through other functions
of its module, except the few below, each with its bound on the depth.  A walk
whose depth grows with the input runs on `errors.depth_first` instead: a
recursion deeper than Python's limit ends in a RecursionError traceback."""

import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "ringzeta"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# every cycle of calls passes through one of these, whose depth is bounded
BOUNDED = {
    "igusa.parse_polynomial.parse_atom": "one level per parenthesis, at most igusa.MAX_NESTING",
}


def _own_nodes(node):
    """The nodes inside node's body that are not inside a definition nested in
    it, those definitions included."""
    out, todo = [], list(node.body)
    while todo:
        sub = todo.pop()
        out.append(sub)
        if not isinstance(sub, DEFS):
            todo.extend(ast.iter_child_nodes(sub))
    return out


def _call_graph(module, tree):
    """{qualified name: the qualified names it calls} for the functions of one
    module.  A call by bare name resolves through the enclosing scopes, the
    innermost first; self.f and cls.f resolve to the methods of the class."""
    graph = {}
    todo = [(tree, module, [], {})]  # (node, its name, enclosing scopes, methods)
    while todo:
        node, name, scopes, methods = todo.pop()
        own = _own_nodes(node)
        defs = {sub.name: f"{name}.{sub.name}" for sub in own if isinstance(sub, DEFS)}
        if isinstance(node, ast.ClassDef):
            methods = defs  # a class body is no scope of its methods
        else:
            scopes = [defs] + scopes
        todo.extend((sub, defs[sub.name], scopes, methods) for sub in own if isinstance(sub, DEFS))
        if isinstance(node, ast.ClassDef) or node is tree:
            continue
        calls = graph.setdefault(name, set())
        for sub in own:
            if not isinstance(sub, ast.Call):
                continue
            f = sub.func
            if isinstance(f, ast.Name):
                target = next((s[f.id] for s in scopes if f.id in s), None)
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and (
                    f.value.id in ("self", "cls")):
                target = methods.get(f.attr)
            else:
                target = None
            if target:
                calls.add(target)
    return graph


def _library_graph():
    graph = {}
    for path in sorted(LIBRARY.glob("*.py")):
        graph.update(_call_graph(path.stem, ast.parse(path.read_text())))
    return graph


def _reaches_itself(graph, start, skip=()):
    """Does start reach itself along calls that avoid the functions in skip?"""
    seen, todo = set(), [start]
    while todo:
        for callee in graph.get(todo.pop(), ()):
            if callee == start:
                return True
            if callee not in seen and callee not in skip:
                seen.add(callee)
                todo.append(callee)
    return False


def test_the_call_graph_sees_recursion():
    tree = ast.parse(
        "def f(n):\n    return g(n)\n"
        "def g(n):\n    return f(n - 1) if n else 0\n"
        "def h():\n    def place(i):\n        yield i\n    return depth_first(place, 0)\n"
        "class C:\n    def m(self):\n        return self.m()\n"
        "def k(x):\n    if x:\n        def walk(n):\n            return walk(n)\n"
    )
    graph = _call_graph("mod", tree)
    assert {name for name in graph if _reaches_itself(graph, name)} == {
        "mod.f", "mod.g", "mod.C.m", "mod.k.walk"}


def test_no_library_function_calls_itself_past_a_bound():
    graph = _library_graph()
    recursive = {name for name in graph if _reaches_itself(graph, name, skip=BOUNDED)}
    assert recursive <= set(BOUNDED), sorted(recursive - set(BOUNDED))
    # equality: every bounded entry still recurses, so none is stale
    assert recursive == set(BOUNDED)
