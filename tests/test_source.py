"""The library's source: every module reads each name it imports,
something reads each function and class it defines at its top level, no
module draws a subset by a .choice call (data._subsets is the one draw), no
module draws leading raw words by a .random_raw call
(data._pcg64_words is their one source), no function of hypergrad.py but
_steps calls an inner gradient, no module but problems reads the per-call
derivative callbacks (the others bind the inner problem), and no function
but linalg._first_member finds a failing member by an argmin or argmax of a
finiteness mask."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bihpo"
# the code beside the library itself that may read a library name
READERS = (ROOT / "scripts", ROOT / "tests", ROOT / "perfbench")


def unused_imports(source: str) -> list[str]:
    """The names a module's imports bind that no other line of it reads.

    `import a.b` binds a; `from __future__` imports bind nothing.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nimport json as j\n"
              "from math import pi, tau\nprint(os, tau)\n")
    assert unused_imports(source) == ["j", "pi"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_reads_every_name_it_imports(module):
    unused = unused_imports((SRC / module).read_text(encoding="utf-8"))
    assert not unused, f"{module} imports names it never reads: {', '.join(unused)}"


def names_read(tree: ast.AST) -> Counter:
    """How often a tree reads each name, counting attributes by their name too."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def unread_names(modules: dict[str, str], readers: list[str], private: bool = False
                 ) -> list[str]:
    """module:name of each public (or, with private, each _private) top-level
    function and class of modules (name to source) that no code reads outside
    its own definition, the modules included."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read = sum(map(names_read, [*trees.values(), *map(ast.parse, readers)]), Counter())
    return [f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private
            and read[node.name] == names_read(node)[node.name]]


LIB = ("def used():\n    return 1\n\ndef unused():\n    return unused()\n\n"
       "def _private():\n    pass\n\ndef _helper():\n    return used()\n\n"
       "class Node:\n    def copy(self):\n        return Node()\n\nclass Tree:\n"
       "    def grow(self):\n        return _helper()\n")
LIB_READER = "import lib\nprint(lib.used(), lib.Tree)\n"


def test_unread_public_names_are_found():
    assert unread_names({"lib": LIB}, [LIB_READER]) == ["lib:unused", "lib:Node"]


def test_unread_private_names_are_found():
    assert unread_names({"lib": LIB}, [LIB_READER], private=True) == ["lib:_private"]


def library_and_readers() -> tuple[dict[str, str], list[str]]:
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text(encoding="utf-8") for root in READERS
               for p in sorted(root.rglob("*.py"))]
    return modules, readers


def test_every_public_name_of_the_library_is_read():
    unread = unread_names(*library_and_readers())
    assert not unread, f"public names that nothing reads: {', '.join(unread)}"


def test_every_private_name_of_the_library_is_read():
    unread = unread_names(*library_and_readers(), private=True)
    assert not unread, f"private names that nothing reads: {', '.join(unread)}"


def attribute_calls(source: str, attr: str, bare: bool = False,
                    reading: str | None = None) -> list[tuple[int, str]]:
    """(line, scope) of each call of a .attr attribute in source (with bare,
    of a plain name attr too; with reading, only of a call whose arguments
    read that name), where scope names the functions and classes that
    enclose the call, outermost first, joined by dots ("" at module
    level)."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Attribute) and node.func.attr == attr
                or bare and isinstance(node.func, ast.Name) and node.func.id == attr) and (
                reading is None or any(names_read(arg)[reading]
                                       for arg in [*node.args, *node.keywords])):
            found.append((node.lineno, scope))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found)


def test_choice_calls_are_found():
    source = ("rng.choice(5, 2)\nnp.random.default_rng(0).choice(\n    4)\n"
              "choice(3)\nf = rng.choice\n"
              "def draw(n):\n    def more():\n        return rng.choice(n)\n    return more\n")
    assert attribute_calls(source, "choice") == [(1, ""), (2, ""), (8, "draw.more")]


def test_bare_calls_are_found():
    source = ("g = inner.grad(theta)\ngrad = inner.grad\ng = grad(theta)\n"
              "def replay(grad):\n    return [grad(t) for t in grad_steps(grad)]\n")
    assert attribute_calls(source, "grad") == [(1, "")]
    assert attribute_calls(source, "grad", bare=True) == [(1, ""), (3, ""), (5, "replay")]


def test_calls_reading_a_name_are_found():
    source = ("i = np.argmin(np.isfinite(x).all(axis=-1))\nj = argmax(mask)\n"
              "k = np.argmax(x, axis=isfinite)\nm = argmin(f(isfinite(x)))\n")
    assert attribute_calls(source, "argmin", bare=True, reading="isfinite") == [(1, ""),
                                                                                (4, "")]
    assert attribute_calls(source, "argmax", bare=True, reading="isfinite") == [(3, "")]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_draws_a_subset_by_choice(module):
    lines = [line for line, _ in attribute_calls((SRC / module).read_text(encoding="utf-8"),
                                                 "choice")]
    assert not lines, f"{module} calls .choice on lines {lines}; draw subsets by data._subsets"


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_raw_words_come_from_the_jump_ahead_pass(module):
    # data._pcg64_words is the one source of a stream's leading raw words; only
    # the stream that continues a row past them (_subsets' more) draws from a
    # generator
    calls = [(line, scope) for line, scope in attribute_calls(
        (SRC / module).read_text(encoding="utf-8"), "random_raw")
        if (module, scope) != ("data.py", "_subsets.more")]
    assert not calls, (f"{module} calls .random_raw at {calls}; take leading words from "
                       f"data._pcg64_words")


def test_only_steps_takes_an_inner_step():
    # hypergrad._steps is the one inner step loop: the solves, the forward pass
    # and the failed-solve replay all step through it
    calls = [(line, scope) for line, scope in attribute_calls(
        (SRC / "hypergrad.py").read_text(encoding="utf-8"), "grad", bare=True)
        if scope != "_steps"]
    assert not calls, (f"hypergrad.py calls an inner gradient at {calls}; take inner steps "
                       f"by hypergrad._steps")


# the per-call derivative callbacks of BilevelProblem
PER_CALL_CALLBACKS = ("inner_grad_theta", "inner_hvp", "inner_mixed_vp", "outer_grad_lambda")


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "problems.py"))
def test_only_problems_reads_the_per_call_callbacks(module):
    # the estimators and strategies reach the inner derivatives through
    # problem.bind_inner, and no estimate reads the zero lam gradient of the
    # outer objective; problems defines the callbacks and verify_derivatives
    # checks them
    read = names_read(ast.parse((SRC / module).read_text(encoding="utf-8")))
    found = [name for name in PER_CALL_CALLBACKS if read[name]]
    assert not found, f"{module} reads {', '.join(found)}; bind the inner problem instead"


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_only_first_member_finds_a_failing_member(module):
    # linalg._first_member is the one lookup of a batch's first failing member
    source = (SRC / module).read_text(encoding="utf-8")
    calls = [(line, scope) for name in ("argmin", "argmax")
             for line, scope in attribute_calls(source, name, bare=True, reading="isfinite")
             if (module, scope) != ("linalg.py", "_first_member")]
    assert not calls, (f"{module} takes an argmin or argmax of a finiteness mask at {calls}; "
                       f"name the member by linalg._first_member")
