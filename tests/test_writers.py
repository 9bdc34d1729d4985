"""Source guard: ``src/kgforge`` writes files in one place.

Every artifact goes through ``kg.write_text``, which writes a temporary file
and moves it over its target; ``bundle.write_json`` streams its JSON into it.
The gateway's cache append in ``LlmGateway._fetch`` is the one other writer,
because it flushes each record, in prompt order, as the batch stores it.

A write is an ``open`` in a writing mode, ``.write_text``/``.write_bytes``, a
move (``os.replace``/``os.rename``, ``Path.replace``/``Path.rename``,
``shutil.move``) or a ``tempfile`` file. ``Path.replace`` is told from
``str.replace`` by its one positional argument.
"""

import ast
from pathlib import Path

import kgforge

SOURCE = Path(kgforge.__file__).parent
WRITERS = {"kg.write_text", "gateway.LlmGateway._fetch"}
MOVES = {("os", "replace"), ("shutil", "move")}
TEMPFILES = {"mkstemp", "NamedTemporaryFile", "TemporaryFile", "SpooledTemporaryFile"}


def _mode(call: ast.Call, position: int) -> ast.expr:
    """The mode argument of an open call: the ``mode`` keyword or the argument at ``position``."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    return call.args[position] if len(call.args) > position else ast.Constant("r")


def _writes(call: ast.Call) -> bool:
    """Whether a call writes a file, in one of the forms the module docstring lists."""
    func = call.func
    owner = func.value.id if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) else None
    if isinstance(func, ast.Attribute) and (
        func.attr in ("write_text", "write_bytes", "rename")
        or (func.attr == "replace" and len(call.args) == 1)
        or (owner, func.attr) in MOVES
        or (owner == "tempfile" and func.attr in TEMPFILES)
    ):
        return True
    if isinstance(func, ast.Name) and func.id in TEMPFILES:
        return True
    if isinstance(func, ast.Name) and func.id == "open":
        mode = _mode(call, 1)
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        mode = _mode(call, 0)
    else:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str) and set(mode.value) <= set("rbt"))


def file_writes(source: str, module: str) -> list[tuple[str, int]]:
    """(qualified name of the enclosing function or class, line) of each file write in ``source``."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call) and _writes(child):
                found.append((".".join((module,) + scope), child.lineno))
            visit(child, inner)

    visit(ast.parse(source), ())
    return found


def test_src_writes_files_only_through_its_writers():
    writes = [
        write
        for path in sorted(SOURCE.glob("*.py"))
        for write in file_writes(path.read_text(encoding="utf-8"), path.stem)
    ]
    assert [write for write in writes if write[0] not in WRITERS] == []
    assert {scope for scope, _ in writes} == WRITERS


def test_the_guard_sees_each_kind_of_write():
    source = """
def reads(p):
    open(p)
    open(p, "rb")
    p.open()
    p.open(encoding="utf-8")
    p.open(mode="rt")
    p.read_text()

class Store:
    def save(self, p, m):
        open(p, "w")
        open(p, mode="a")
        p.open("x")
        p.open(m)
        p.open("r+")
        p.write_text("")
        p.write_bytes(b"")

def renames(p, q, text):
    text.replace("a", "b")
    text.replace("a", "b", 1)
    replace(p, name=q)

def move(p, q):
    os.replace(p, q)
    os.rename(p, q)
    p.replace(q)
    p.rename(q)
    shutil.move(p, q)
    tempfile.mkstemp()
    tempfile.NamedTemporaryFile("w")
    tempfile.TemporaryFile()
    tempfile.SpooledTemporaryFile()
    mkstemp(dir=p)
    NamedTemporaryFile(dir=p)
"""
    assert file_writes(source, "m") == [("m.Store.save", line) for line in range(12, 19)] + [
        ("m.move", line) for line in range(26, 37)
    ]
