"""The module graph of the package: every import sits at module top but
for the two that ``cli`` makes where they are needed, the imports within
the package follow one layer order (so they form no cycle), each module
can be the first one imported, and a call loads argparse and ``systems``
only if it runs them.  Also: each tree
shape of expressions, predicates, processes and broadcast terms is walked
only in the places listed here, and no module keeps mutable state, so
every memo lives as long as the call that made it.  Silence is asked of
the walk, and a transition system is held in one layout."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from abcalc.lts import abc_walk, auto_universe, explore, unstepped
from abcalc.semantics import Label
from abcalc.systems import network

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "abcalc"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

# Each module imports only modules before it (the module map of README.md).
LAYERS = ["terms", "predicates", "semantics", "syntax", "lts", "equivalence", "bpi",
          "systems", "cli"]


def _tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def _package_imports(name: str) -> set:
    """Modules of the package that a module imports at top level."""
    out = set()
    for node in _tree(name).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import x
                out.update(alias.name for alias in node.names)
            else:  # from .x import y
                out.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("abcalc."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("abcalc."))
    return out & set(MODULES)


def test_every_module_has_a_layer():
    assert sorted(LAYERS) == MODULES


# The only function-local imports: ``cli`` imports argparse where argparse
# reads the command line, and ``systems`` in ``corpus``, the one command
# that runs it, so that a plain call imports neither.
LOCAL_IMPORTS = {"cli": {"argparse", "systems"}}


def _imported(node) -> set:
    """The modules an import statement names, those of the package by
    their short name."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if node.level and node.module is None:  # from . import x
        return {alias.name for alias in node.names}
    return {node.module.split(".")[0]}


def _local_imports(name: str) -> dict:
    """Each import inside a function of a module: its place -> the modules
    it names."""
    local = {}
    for fn in ast.walk(_tree(name)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local.update((f"{name}.py:{node.lineno}", _imported(node)) for node in ast.walk(fn)
                         if isinstance(node, (ast.Import, ast.ImportFrom)))
    return local


@pytest.mark.parametrize("name", MODULES)
def test_no_import_inside_a_function(name):
    allowed = LOCAL_IMPORTS.get(name, set())
    local = sorted(place for place, names in _local_imports(name).items() if names - allowed)
    assert not local, f"function-local imports at {', '.join(local)}"


@pytest.mark.parametrize("name", sorted(LOCAL_IMPORTS))
def test_local_imports_are_made_only_locally(name):
    """A module of the allow-list is imported inside a function and never at
    the top, so the list names exactly what is left out of start-up."""
    top = set().union(*(_imported(node) for node in _tree(name).body
                        if isinstance(node, (ast.Import, ast.ImportFrom))))
    assert not top & LOCAL_IMPORTS[name]
    assert set().union(*_local_imports(name).values()) == LOCAL_IMPORTS[name]


@pytest.mark.parametrize("name", MODULES)
def test_package_imports_are_acyclic(name):
    """An import of a later layer is the only way a cycle could start."""
    later = set(LAYERS[LAYERS.index(name):])
    assert not _package_imports(name) & later


# No module-level store: the solver's answers are memoised by a bounded
# ``functools.lru_cache`` on ``predicates.find_witness``.
MODULE_STATE = set()
MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
MUTABLE_TYPES = {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict", "Counter",
                 "deque"}


def _mutable(value) -> bool:
    """An expression that builds a mutable container, alone or inside a tuple."""
    if isinstance(value, ast.Tuple):
        return any(_mutable(e) for e in value.elts)
    if isinstance(value, ast.Call):
        func = value.func
        return getattr(func, "id", getattr(func, "attr", None)) in MUTABLE_TYPES
    return isinstance(value, MUTABLE_DISPLAYS)


@pytest.mark.parametrize("name", MODULES)
def test_no_module_level_mutable_state(name):
    found = set()
    for node in _tree(name).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if _mutable(node.value):
                found.update(f"{name}.{n.id}" for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name))
    assert not found - MODULE_STATE, (
        f"module-level mutable containers: {', '.join(sorted(found - MODULE_STATE))}; "
        f"keep a memo inside the call that fills it")


def test_startup_leaves_out_dataclasses():
    """Importing the command line pays for no dataclass machinery (nor
    ``inspect``, which ``dataclasses`` imports)."""
    result = subprocess.run(
        [sys.executable, "-c", "import sys, abcalc.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        cwd=PACKAGE.parent, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_startup_leaves_out_openssl():
    """Importing the command line loads neither ``hashlib`` nor OpenSSL's
    ``_hashlib``: fingerprints take ``sha256`` from the built-in module."""
    result = subprocess.run(
        [sys.executable, "-c", "import sys, abcalc.cli; "
         "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"],
        cwd=PACKAGE.parent, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# The standard-library modules the package imports at the top that a
# bare interpreter may load already, through ``site``; the baseline
# imports them, so the check reads the same whatever ``site`` loads.
STDLIB_AT_START = ("atexit, collections, contextlib, functools, itertools, math, operator, os, "
                   "re, types")
# What ``import abcalc.cli`` loads beyond them: a new module here is a
# new fixed cost of every call.
STARTUP = {"abcalc", *(f"abcalc.{name}" for name in MODULES if name != "systems"),
           "json", "json.decoder", "json.encoder", "json.scanner", "_json",
           "_sha256", "__future__", "gc"}


def _modules_after(imports: str) -> set:
    result = subprocess.run(
        [sys.executable, "-c", f"import sys, {imports}; print(' '.join(sys.modules))"],
        cwd=PACKAGE.parent, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_startup_loads_only_the_listed_modules():
    added = (_modules_after(f"{STDLIB_AT_START}, abcalc.cli")
             - _modules_after(STDLIB_AT_START))
    assert added == STARTUP


# Modules that a call loads only if its command runs them.
ON_DEMAND = {"argparse", "gettext", "abcalc.systems"}
NETWORK = str(PACKAGE / "corpus" / "network.abc")
HANDSHAKE = str(PACKAGE / "corpus" / "handshake.bpi")
ZERO = str(PACKAGE / "corpus" / "zero.abc")

# Given a comma-separated list of modules and a command line, runs ``main``
# on the line (on none: only imports the command line) and prints its exit
# code and the modules of the list that were loaded.
LOADS = """
import contextlib, io, json, sys
from abcalc.cli import main

watched, argv, code = set(sys.argv[1].split(",")), sys.argv[2:], None
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
print(json.dumps([code, sorted(watched & set(sys.modules))]))
"""


def _loads(argv: list) -> tuple:
    """The exit code and the loaded modules of ``ON_DEMAND``, and the
    standard error, of one call in a fresh process."""
    result = subprocess.run([sys.executable, "-c", LOADS, ",".join(sorted(ON_DEMAND)), *argv],
                            cwd=PACKAGE.parent, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1]), result.stderr


@pytest.mark.parametrize("argv, loaded", [
    ([], []),
    (["parse", NETWORK], []),
    (["explore", NETWORK], []),
    (["explore", "--json", "-", NETWORK, "--universe", "declared"], []),
    (["barbs", NETWORK, "--weak"], []),
    (["check-bisim", "--weak", NETWORK, NETWORK], []),
    (["parse", HANDSHAKE], []),
    (["steps", HANDSHAKE], []),
    (["translate", HANDSHAKE], []),
    (["verify-encoding", "--json", "-", HANDSHAKE], []),
    (["corpus"], ["abcalc.systems"]),
    (["explore", "--js", "-", NETWORK], ["argparse", "gettext"]),
], ids=["import", "parse", "explore", "explore-json", "barbs", "check-bisim", "parse-bpi",
        "steps-bpi", "translate", "verify-encoding", "corpus", "argparse-reads"])
def test_each_command_loads_only_what_it_runs(argv, loaded):
    """A plain call leaves argparse out, and only ``corpus`` loads
    ``systems``."""
    assert _loads(argv)[0] == [0 if argv else None, loaded]


# An update that leaves its domain, then 600 prefixes: printing the leaf
# meets the recursion limit.
DEEP_DOMAIN = ("domain k in {1};\ncomp C { iface: []; env: {k = 1}; run: ()@tt.[k := 2] "
               + "()@ff." * 600 + "0 }")


@pytest.mark.parametrize("name, text, command, message", [
    ("bound.abc", None, ["explore", "--max-states", "2"], "state bound 2 hit"),
    ("unbound.abc", "comp C { iface: []; env: {}; run: A }", ["explore"],
     "undefined process A"),
    ("arity.abc", "def A(x) = (x)@tt.0;\ncomp C { iface: []; env: {}; run: A(1, 2) }",
     ["explore"], "A expects 1 arguments, got 2"),
    ("unguarded.abc", "def A = A;\ncomp C { iface: []; env: {}; run: A }", ["explore"],
     "unguarded recursion: A"),
    ("domain.abc", "domain k in {1};\ncomp C { iface: []; env: {k = 1}; "
     "run: ()@tt.[k := this.k + 1]0 }", ["explore"], "k := 2 outside its declared domain"),
    ("encoding.bpi", "(rec A().a!().nil)() || (rec A().b!().nil)()", ["verify-encoding"],
     "recursion name A reused with a different body"),
    ("unbound.bpi", "a!().A()", ["verify-encoding"], "unbound recursion variable A"),
    *(("deep.abc", DEEP_DOMAIN, command, "k := 2 outside its declared domain")
      for command in (["explore"], ["steps"], ["check-bisim", ZERO, "--weak"])),
], ids=["BoundExceeded", "UnboundProcessName", "ArityMismatch", "UnguardedRecursion",
        "DomainViolation", "EncodingError", "UnboundRecursionVariable",
        "DeepDomainViolation-explore", "DeepDomainViolation-steps",
        "DeepDomainViolation-check-bisim"])
def test_errors_end_in_one_line(tmp_path, name, text, command, message):
    """Each error that ``main`` catches ends in exit 2 and one ``error:``
    line, with no argparse loaded to report it.  A domain violation in a
    leaf too deep to print names no leaf."""
    path = NETWORK if text is None else tmp_path / name
    if text is not None:
        path.write_text(text + "\n", encoding="utf-8")
    answer, err = _loads([command[0], str(path), *command[1:]])
    assert answer == [2, []]
    line, = err.splitlines()
    assert line.startswith("error: ") and message in line


PLAIN_CALLS = """
import argparse, contextlib, io, json, sys, tempfile
from pathlib import Path

made = []
init = argparse.ArgumentParser.__init__

def counted(self, *args, **kwargs):
    made.append(1)
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counted
from abcalc.cli import main
from abcalc.systems import corpus_path

net, term = str(corpus_path("network.abc")), str(corpus_path("handshake.bpi"))
tmp = tempfile.TemporaryDirectory()
out = str(Path(tmp.name) / "out")
calls = [["parse", net, "--json"], ["steps", net, "--universe", "declared"],
         ["explore", "--json", "-", net, "-o", out + ".aut", "--max-states", "500"],
         ["barbs", net, "--weak"], ["check-bisim", "--strong", net, net, "--max-depth", "50"],
         ["translate", term, "--output", out + ".abc"], ["verify-encoding", "--json", "-", term],
         ["corpus"]]
codes = []
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
tmp.cleanup()
json.dump([codes, len(made), "locale" in sys.modules], sys.stdout)
"""


def test_plain_calls_build_no_parser():
    """A well-formed call of each subcommand is read without argparse's
    parser, so argparse looks up no message and ``locale`` stays out."""
    result = subprocess.run([sys.executable, "-c", PLAIN_CALLS], cwd=PACKAGE.parent,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[0] * 8, 0, False]


# More Node classes of field shapes already seen: 4 fields, 2 fields with a
# default, 1 by-value field, none.  An audit hook records every compile of
# source text that is not a module file read by an import.
MORE_NODES = """
import json, sys
compiled = []
sys.addaudithook(lambda event, args: event == "compile" and not str(args[1]).endswith(".py")
                 and compiled.append(str(args[1])))
import abcalc.cli
from abcalc.terms import Node

def classes():
    found, todo = set(), [Node]
    while todo:
        found.add(todo[-1])
        todo += todo.pop().__subclasses__()
    return found - {Node}

before = len(classes())

class A(Node):
    a: int
    b: int
    c: int
    d: int

class B(Node):
    x: str
    y: tuple = ()

class C(Node):
    value: object
    _by_value = ("value",)

class D(Node):
    pass

assert B("n") == B(x="n", y=()) and C(1) != C(True) and A(1, 2, 3, 4) != A(1, 2, 3, 5)
json.dump([before, len(classes()), compiled], sys.stdout)
"""


def test_node_methods_compile_no_source():
    """Node methods come from compiled module code: neither importing the
    CLI nor defining more Node classes compiles any source text."""
    result = subprocess.run([sys.executable, "-c", MORE_NODES], cwd=PACKAGE.parent,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    before, after, compiled = json.loads(result.stdout)
    assert after == before + 4
    assert compiled == []


@pytest.mark.parametrize("name", MODULES)
def test_imports_cleanly_when_first(name):
    result = subprocess.run(
        [sys.executable, "-c", f"import abcalc.{name}"],
        cwd=PACKAGE.parent, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


# The only functions that recurse through an expression tree (``Op``) or a
# predicate tree (``Not``, ``And``, ``Or``): the rebuild and the reader of
# each shape in ``terms``, evaluation, satisfaction and the printers.
# Everything else reads and rebuilds terms through the ``terms`` helpers.
TREE_WALKS = {
    "terms.eval_expr", "terms.map_expr", "terms.expr_leaves", "terms.atoms",
    "terms.map_atoms", "predicates.satisfies", "syntax.pretty_expr", "syntax.pretty_pred",
}
TREE_NODES = {"Op", "Not", "And", "Or"}

# The same for sequential broadcast terms: one reader (``_free``), one
# rebuild (``_rewrite``, behind substitution, canonical forms and
# unfolding), the steps, the encoding and the printer.
BPI_WALKS = {"bpi._free", "bpi._rewrite", "bpi._seq_outs", "bpi._seq_ins",
             "bpi.encode_proc", "bpi.pretty_bpi"}
BPI_NODES = {"BTau", "BIn", "BOut", "BSum", "BRec", "BCall"}


def _tests_node(fn, nodes: set) -> bool:
    """fn holds an ``isinstance`` test against one of ``nodes``."""
    for node in ast.walk(fn):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            types = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.args[1])
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if types & nodes:
                return True
    return False


def _calls_itself(fn) -> bool:
    """fn calls a function of its own name; a parent's method, reached
    through ``super()``, is another function."""
    return any(isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == fn.name
               and not (isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Call)
                        and getattr(node.func.value.func, "id", None) == "super")
               for node in ast.walk(fn))


# Modules that walk state graphs, whose depth is that of a model's runs,
# not of its text: a run of a few thousand steps must not reach Python's
# recursion limit, so no function there calls itself.
GRAPH_MODULES = ("lts", "equivalence")


@pytest.mark.parametrize("name", GRAPH_MODULES)
def test_no_recursion_in_graph_code(name):
    found = sorted(f"{name}.{fn.name}" for fn in ast.walk(_tree(name))
                   if isinstance(fn, ast.FunctionDef) and _calls_itself(fn))
    assert not found, f"recursive functions in graph code: {', '.join(found)}"


def _walks(name: str, tree: ast.Module, nodes: set) -> set:
    """The top-level functions and methods of a module that hold a function
    recursing through ``nodes``."""
    out = set()
    tops = [(f"{name}.{node.name}", node) for node in tree.body
            if isinstance(node, ast.FunctionDef)]
    tops += [(f"{name}.{cls.name}.{node.name}", node) for cls in tree.body
             if isinstance(cls, ast.ClassDef) for node in cls.body
             if isinstance(node, ast.FunctionDef)]
    for qual, top in tops:
        if any(isinstance(fn, ast.FunctionDef) and _tests_node(fn, nodes) and _calls_itself(fn)
               for fn in ast.walk(top)):
            out.add(qual)
    return out


def _check_walks(nodes: set, allowed: set, helpers: str):
    found = set().union(*(_walks(name, _tree(name), nodes) for name in MODULES))
    assert not found - allowed, (
        f"read and rebuild these trees with {helpers} instead: "
        f"{', '.join(sorted(found - allowed))}")
    assert not allowed - found, f"no longer walks: {', '.join(sorted(allowed - found))}"


# The same for attribute-based processes: one rebuild (``terms._rewrite``,
# behind substitution and canonical forms), the output and input steps, and
# the printer.  The encoding of broadcast terms builds processes but reads
# none back.
PROCESS_WALKS = {"terms._rewrite", "semantics._proc_outs", "semantics._proc_ins",
                 "syntax.pretty_process"}
PROCESS_NODES = {"Out", "In", "Upd", "Aware", "Choice", "ParP", "Call", "Inact"}

# The same for the skeleton of a state, the ``||`` and restriction nodes
# above its leaves: the canonical form of a component and the printer of
# broadcast terms.  ``terms.flatten`` reads a skeleton and ``terms.rebuild``
# builds one, by loops, so any width is fine; ``lts.Walk`` composes the
# steps of the leaves over it.
SKELETON_WALKS = {"terms.canonical", "bpi.pretty_bpi"}
SKELETON_NODES = {"ParC", "ResOut", "ResIn", "BPar"}

# The recursive composition that ``lts.Walk`` replaced, kept only as the
# reference in ``tests/composition_reference.py``, and the per-calculus
# adapters that ``Walk.steps`` and the walk's discard rule replaced.
REPLACED = {"system_out_steps", "system_in_step", "_par_outs", "_par_ins",
            "abc_steps", "fixed_steps", "leaf_steps", "_seq_reacts"}


def test_one_walk_per_tree_shape():
    _check_walks(TREE_NODES, TREE_WALKS, "the terms helpers")


def test_one_walk_per_bpi_shape():
    _check_walks(BPI_NODES, BPI_WALKS, "bpi._free and bpi._rewrite")


def test_one_walk_per_process_shape():
    _check_walks(PROCESS_NODES, PROCESS_WALKS, "terms._rewrite")


def test_one_walk_per_skeleton():
    _check_walks(SKELETON_NODES, SKELETON_WALKS, "terms.flatten and lts.Walk")


def test_replaced_composition_stays_gone():
    defined = {f"{name}.{fn.name}" for name in MODULES for fn in ast.walk(_tree(name))
               if isinstance(fn, ast.FunctionDef) and fn.name in REPLACED}
    assert not defined, f"compose steps in lts.Walk instead: {', '.join(sorted(defined))}"


# Helpers that no command reached, deleted with the tests that were their
# only callers; weak saturation is built in ``equivalence._moves`` from the
# silent label class.  A closure is extended by ``alphabet_fixpoint`` alone
# and decided on in ``equivalence._bisim``, so the helpers of a second
# closure path stay gone too.
UNUSED = {"weak_closure", "inverse_closure", "is_tau", "reduction_over", "export_aut",
          "free_vars", "pred_vars", "_vars", "is_value", "restrict_env", "conj", "disj",
          "merged", "domain", "free_names", "bpi_barbs", "closure_under", "_decide",
          "_extended", "successors"}


def test_unused_helpers_stay_gone():
    defined = {f"{name}.{fn.name}" for name in MODULES for fn in ast.walk(_tree(name))
               if isinstance(fn, ast.FunctionDef) and fn.name in UNUSED}
    assert not defined, f"no command calls these: {', '.join(sorted(defined))}"


def _places(name: str, tree: ast.Module):
    """Each top-level statement of a module and each statement of its
    classes, with the name of the function or method it defines, else of
    its module or class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for inner in node.body:
                yield (f"{name}.{node.name}.{inner.name}" if isinstance(inner, ast.FunctionDef)
                       else f"{name}.{node.name}"), inner
        else:
            yield f"{name}.{node.name}" if isinstance(node, ast.FunctionDef) else name, node


def test_silence_is_one_rule():
    """An output is silent when the solver finds its predicate unsatisfiable
    (``is_ff``): outside ``predicates``, only ``lts.silent`` asks it."""
    found = {qual for name in MODULES if name != "predicates"
             for qual, node in _places(name, _tree(name))
             if any("is_ff" in (getattr(n, "id", None), getattr(n, "attr", None),
                                getattr(n, "name", None)) for n in ast.walk(node))}
    assert found == {"lts.silent"}, f"ask lts.silent instead: {', '.join(sorted(found))}"


# ``abc_walk``'s ``hear`` asks ``lts.silent``, and so do the two places
# that compare labels of more than one walk; a reader that holds a walk
# takes silence from it: an output is silent when ``walk.hear`` gives None.
SILENT_CALLERS = {"lts.abc_walk", "lts.label_equiv", "equivalence._label_classes"}


def test_silence_is_asked_of_the_walk():
    found = {qual for name in MODULES for qual, node in _places(name, _tree(name))
             if any(isinstance(n, ast.Call)
                    and getattr(n.func, "id", getattr(n.func, "attr", None)) == "silent"
                    for n in ast.walk(node))}
    assert found == SILENT_CALLERS, (
        f"ask walk.hear instead: {', '.join(sorted(found - SILENT_CALLERS))}")


def test_explore_numbers_its_closure_in_place():
    """``explore`` returns the closure's own lists, each state's steps as
    ``(label, number)`` pairs, and keeps no second copy of them, whether
    the closure was stepped by the universe fixpoint or not."""
    net = network()
    walks = [abc_walk(net["N"], net["defs"], net["domains"]) for _ in range(2)]
    for universe, closure in (auto_universe(walks[0], domains=net["domains"]),
                              ((), unstepped(walks[1]))):
        states, steps, walk = closure
        lts = explore(closure, universe)
        assert lts.states is states and lts.steps is steps and lts.walk is walk
        assert set(vars(lts)) == {"states", "steps", "walk"}
        assert len(steps) == len(states) == 10
        assert all(step.__class__ is tuple and len(step) == 2 and isinstance(step[0], Label)
                   and step[1] in range(len(states)) for out in steps for step in out)


def test_a_second_bpi_rewrite_is_found():
    """A nested helper counts for the function that holds it."""
    source = ("def rename(p, ren):\n"
              "    def go(q):\n"
              "        if isinstance(q, (BTau, BOut)):\n"
              "            return type(q)(go(q.cont))\n"
              "        return q\n"
              "    return go(p)\n")
    assert _walks("bpi", ast.parse(source), BPI_NODES) == {"bpi.rename"}
