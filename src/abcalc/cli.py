"""Command line front end.

Exit codes: 0 for success (or an equivalence verdict of yes), 1 for a
negative verdict or a correspondence violation, 2 for usage, parse, or
bound errors and for ill-formed input (a name bound twice by one input,
definition or recursion, a call to an undefined process or with the
wrong number of arguments, an unbound recursion variable, a term the
encoding rejects, an environment or an update outside a declared
domain, a .bpi term where a component model is expected, an unguarded
recursion, or nesting too deep for the recursion limit), and for an
output file that cannot be written or that would overwrite a file being
read or the other output file, which is refused before anything is
written.  Diagnostics go
to stderr, one line each; results go to stdout, as JSON when --json is
given.  A reader that closes stdout early does not change the exit code.

``main`` checks the options of a command line once, before the command
runs, and the commands read them from the namespace it hands them.

Two imports are left out of a call that does not run them, and are the
package's only imports inside functions: ``argparse`` only when a
command line is not plain (``_plain_args``), and ``systems`` only in
``corpus``.

Importing this module changes how the process exits: it registers
``gc.freeze`` with ``atexit``, so the collections of the interpreter's
exit walk nothing and run no finaliser of an object left in a cycle.
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import sys
from types import SimpleNamespace

from . import bpi as bp
from . import equivalence as eq
from . import lts as L
from .predicates import DomainContext, equiv
from .semantics import OUT, UnboundProcessName
from .syntax import (
    Model,
    ParseError,
    UnguardedRecursion,
    check_domains,
    parse_abc,
    pretty_component,
    pretty_label,
    pretty_model,
    pretty_pred,
)
from .terms import ArityMismatch, DomainViolation, values_equal

SCHEMA_VERSION = 1

# The interpreter's exit runs full cyclic collections, each walking every
# object that start-up and the package keep; frozen objects are skipped.
# Freezing at exit gives up only the finalisers of objects still in a
# cycle then, which Python does not promise to run; every file written is
# closed before ``main`` returns.
atexit.register(gc.freeze)


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _check(args):
    """Check a command line's options before anything is read or written,
    and give ``args`` its exploration bounds: positive bounds, no JSON
    over a model file, no output file that resolves to a file being read
    or to the other output file, and then input files of the kind that
    the command takes."""
    args.bounds = L.ExploreBounds(getattr(args, "max_states", L.DEFAULT_BOUNDS.max_states),
                                  getattr(args, "max_depth", L.DEFAULT_BOUNDS.max_depth))
    if args.bounds.max_states <= 0 or args.bounds.max_depth <= 0:
        raise CliError("bounds must be positive")
    json_out = args.json
    if json_out and json_out.endswith((".abc", ".bpi")):
        raise CliError(f"--json {json_out}: refusing to write JSON over a model file")
    inputs = [getattr(args, name, None) for name in ("file", "left", "right")]
    read = {os.path.realpath(path): path for path in inputs if path}
    output = getattr(args, "output", None)
    for flag, path in (("-o", output), ("--json", None if json_out == "-" else json_out)):
        source = path and read.get(os.path.realpath(path))
        if source:
            raise CliError(f"{flag} {path}: refusing to overwrite the input {source}")
    if output and json_out and os.path.realpath(json_out) == os.path.realpath(output):
        raise CliError(f"--json {json_out}: refusing to write JSON over the -o file")
    takes = next(entry[4] for entry in COMMANDS if entry[0] == args.command)
    for path in filter(None, inputs):
        if takes == "model" and path.endswith(".bpi"):
            raise CliError(f"{path}: a .bpi term is not a component model (translate it first)")
        if takes == "bpi" and not path.endswith(".bpi"):
            raise CliError(f"{args.command} expects a .bpi file")


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")


def _load_model(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}")
    try:
        if path.endswith(".bpi"):
            return bp.parse_bpi(text)
        return parse_abc(text)
    except ParseError as exc:
        raise CliError(f"{path}:{exc}")
    except DomainViolation as exc:
        raise CliError(f"{path}: {exc}")


def _require_component(model, path):
    if model.component is None:
        raise CliError(f"{path}: no system component (add a comp block or system:)")
    return model.component


def _universe(model, comp, args):
    """The universe, and a closure under it: under ``auto`` the one that
    computed it, else the unstepped one."""
    walk = L.abc_walk(comp, model.defs, model.domains)
    if args.universe == "auto":
        return L.auto_universe(walk, args.bounds, model.domains, model.universe)
    universe = model.universe if args.universe == "declared" else ()
    return universe, L.unstepped(walk)


def _merge_contexts(m1, m2):
    defs = dict(m1.defs)
    for name, entry in m2.defs.items():
        if name in defs and defs[name] != entry:
            raise CliError(f"definition {name!r} differs between the two files")
        defs[name] = entry
    d1, d2 = dict(m1.domains.items), dict(m2.domains.items)
    for attr, vals in d2.items():
        if attr in d1 and not values_equal(d1[attr], vals):
            raise CliError(f"domain of {attr!r} differs between the two files")
        d1[attr] = vals
    return defs, DomainContext.of({a: set(v) for a, v in d1.items()})


def _print(text: str):
    """Print a result.  A reader that closed stdout has seen enough: the
    rest goes to the null device, so the flush at exit cannot fail."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(args, payload: dict, human: str):
    if args.json is not None:
        payload = {"schema_version": SCHEMA_VERSION, **payload}
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.json == "-":
            _print(text)
        else:
            _write(args.json, text + "\n")
            if human:
                _print(human)
    elif human:
        _print(human)


# ---------------------------------------------------------------------------
# Commands


def cmd_parse(args) -> int:
    model = _load_model(args.file)
    if args.file.endswith(".bpi"):
        _emit(args, {"term": bp.pretty_bpi(model)}, bp.pretty_bpi(model))
        return 0
    text = pretty_model(model)
    _emit(args, {"model": text}, text.rstrip("\n"))
    return 0


def cmd_steps(args) -> int:
    model = _load_model(args.file)
    if args.file.endswith(".bpi"):
        universe = ()  # a .bpi file declares none
        if args.universe == "auto":
            universe, _ = bp.harvest_bpi_universe(model, args.bounds)
        rows = [
            {"label": _bpi_label_text(lab), "target": bp.pretty_bpi(nxt)}
            for lab, nxt in bp.bpi_steps(model, universe)
        ]
    else:
        comp = _require_component(model, args.file)
        universe, (_, _, walk) = _universe(model, comp, args)
        rows = [{"label": label, "target": target} for label, target in
                sorted((pretty_label(lab), pretty_component(walk.tree(q)))
                       for lab, q in walk.steps(walk.initial, universe))]
    human = "\n".join(f"{r['label']}  ->  {r['target']}" for r in rows) or "(no steps)"
    _emit(args, {"steps": rows}, human)
    return 0


def _bpi_label_text(lab) -> str:
    if lab == bp.TAU:
        return "tau"
    kind, chan, values = lab
    mark = "!" if kind == "out" else "?"
    return f"{chan}{mark}({', '.join(values)})"


def cmd_explore(args) -> int:
    model = _load_model(args.file)
    comp = _require_component(model, args.file)
    universe, closure = _universe(model, comp, args)
    lts = L.explore(closure, universe, args.bounds)
    text = L.aut_text(lts)
    count = sum(map(len, lts.steps))
    if args.output:
        _write(args.output, text)
        human = f"wrote {args.output}: {len(lts.states)} states, {count} transitions"
    else:
        human = text.rstrip("\n")
    _emit(
        args,
        {
            "states": len(lts.states),
            "transitions": count,
            "universe_fingerprint": L.fingerprint(universe),
            "output": args.output,
        },
        human,
    )
    return 0


def cmd_barbs(args) -> int:
    model = _load_model(args.file)
    comp = _require_component(model, args.file)
    preds = eq.barbs(comp, model.defs, model.domains, weak=args.weak, bounds=args.bounds)
    texts = sorted(pretty_pred(p) for p in preds)
    _emit(args, {"barbs": texts, "weak": args.weak}, "\n".join(texts) or "(none)")
    return 0


def cmd_check_bisim(args) -> int:
    m1, m2 = _load_model(args.left), _load_model(args.right)
    c1 = _require_component(m1, args.left)
    c2 = _require_component(m2, args.right)
    defs, domains = _merge_contexts(m1, m2)
    check_domains((c1, c2), domains)
    # ``auto`` closes both sides from the labels that the two files declare
    declared = L.merge_labels(m1.universe, m2.universe, domains)
    universe = {"auto": None, "declared": declared, "none": ()}[args.universe]
    check = eq.strong_bisim if args.strong else eq.weak_bisim
    verdict = check(c1, c2, defs, universe, domains, args.bounds, base=declared)
    lines = [
        ("equivalent" if verdict.equivalent else "not equivalent")
        + (" (inconclusive: bounds hit)" if verdict.inconclusive else ""),
        f"universe: {len(verdict.universe)} labels, fingerprint {L.fingerprint(verdict.universe)}",
    ]
    if verdict.witness:
        lines.append("witness:")
        lines.extend(f"  [{s['from']}] {s['label']}" for s in verdict.witness)
    if verdict.reason:
        print(verdict.reason, file=sys.stderr)
    _emit(args, {"mode": "strong" if args.strong else "weak", **verdict.as_dict()},
          "\n".join(lines))
    if verdict.inconclusive:
        return 2
    return 0 if verdict.equivalent else 1


def cmd_translate(args) -> int:
    term = _load_model(args.file)
    comp, defs = bp.encode(term)
    model = Model(component=comp, defs=defs)
    text = pretty_model(model)
    if args.output:
        _write(args.output, text)
        human = f"wrote {args.output}"
    else:
        human = text.rstrip("\n")
    _emit(args, {"model": text, "output": args.output}, human)
    return 0


def cmd_verify_encoding(args) -> int:
    term = _load_model(args.file)
    report = bp.correspondence_check(term, args.bounds)
    human = (
        f"{'ok' if report.ok else 'VIOLATION'}: {report.states_checked} states, "
        f"{report.transitions_checked} transitions checked, universe {len(report.universe)}"
    )
    if not report.ok:
        for v in report.violations[:10]:
            print(f"violation: {v}", file=sys.stderr)
    _emit(
        args,
        {
            "ok": report.ok,
            "states_checked": report.states_checked,
            "transitions_checked": report.transitions_checked,
            "violations": [repr(v) for v in report.violations],
        },
        human,
    )
    return 0 if report.ok else 1


def cmd_corpus(args) -> int:
    from . import systems

    results = []

    def check(name, ok):
        results.append((name, bool(ok)))

    net = systems.network()
    walk = L.abc_walk(net["N"], net["defs"], net["domains"])
    lts = L.explore(L.unstepped(walk), (), args.bounds)
    pi1 = net["pi1"]
    check("network explores", len(lts.states) == 10)
    check("network first emission is a client barb",
          any(equiv(lab.pred, pi1, net["domains"])
              for out in lts.steps for lab, _ in out if lab.kind == OUT))
    v1 = eq.weak_bisim(net["N_closed"], net["T"], net["defs"], domains=net["domains"],
                       bounds=args.bounds)
    check("closed network matches the three-shot test", v1.equivalent)
    v2 = eq.weak_bisim(net["N_CP2"], net["T_CP2"], net["defs"], domains=net["domains"],
                       bounds=args.bounds)
    check("interference distinguishes the systems", not v2.equivalent)
    check("witness carries the interfering id",
          v2.witness is not None and any("f3" in s["label"] for s in v2.witness))
    for name in ("handshake.bpi", "relay.bpi", "repeater.bpi"):
        term = bp.parse_bpi(systems.corpus_path(name).read_text())
        rep = bp.correspondence_check(term, args.bounds)
        check(f"encoding correspondence: {name}", rep.ok)
    human = "\n".join(f"{'ok  ' if ok else 'FAIL'} {name}" for name, ok in results)
    _emit(args, {"results": [{"name": n, "ok": ok} for n, ok in results]}, human)
    return 0 if all(ok for _, ok in results) else 1


# ---------------------------------------------------------------------------
# Entry point


# Each subcommand: its name, handler, help line, arguments in order, and the
# kind of file it reads: "model" (a component model), "bpi" (a broadcast
# term) or None (either, or no file).
COMMANDS = (
    ("parse", cmd_parse, "parse and pretty-print a source file", ("file", "json"), None),
    ("steps", cmd_steps, "one-step successors with labels",
     ("file", "json", "max_states", "universe"), None),
    ("explore", cmd_explore, "explore to a .aut transition system",
     ("file", "output", "json", "max_states", "max_depth", "universe"), "model"),
    ("barbs", cmd_barbs, "observable output predicates",
     ("file", "weak", "json", "max_states", "max_depth"), "model"),
    ("check-bisim", cmd_check_bisim, "decide bisimilarity of two systems",
     ("mode", "left", "right", "json", "max_states", "max_depth", "universe"), "model"),
    ("translate", cmd_translate, "translate a broadcast term", ("file", "output", "json"), "bpi"),
    ("verify-encoding", cmd_verify_encoding, "check the translation step by step",
     ("file", "json", "max_states", "max_depth"), "bpi"),
    ("corpus", cmd_corpus, "run the bundled regression suite",
     ("json", "max_states", "max_depth"), None),
)


# The options behind each argument name of ``COMMANDS``, one entry per
# option, in the order they are added: (argument name, option strings,
# kind, default).  A kind is "positional"; "switch" (store_true);
# "either", one switch of a required pair that exclude each other;
# "file or stdout", an optional value that is "-" when none follows; str
# or int, one value of that type; or a tuple of the values allowed.
# ``_add_argument`` builds argparse's arguments from it and ``_plain_args``
# reads a plain command line with it.
ARGUMENTS = (
    ("file", ("file",), "positional", None),
    ("left", ("left",), "positional", None),
    ("right", ("right",), "positional", None),
    ("output", ("-o", "--output"), str, None),
    ("weak", ("--weak",), "switch", False),
    ("mode", ("--strong",), "either", False),
    ("mode", ("--weak",), "either", False),
    ("json", ("--json",), "file or stdout", None),
    ("max_states", ("--max-states",), int, L.DEFAULT_BOUNDS.max_states),
    ("max_depth", ("--max-depth",), int, L.DEFAULT_BOUNDS.max_depth),
    ("universe", ("--universe",), ("auto", "declared", "none"), "auto"),
)


def _specs(arguments):
    """The entries of ``ARGUMENTS`` behind ``arguments``, in order, each
    with its destination: the last option string without its dashes."""
    return [(flags[-1].lstrip("-").replace("-", "_"), flags, kind, default)
            for argument in arguments
            for name, flags, kind, default in ARGUMENTS if name == argument]


def _add_argument(p, name: str):
    """Add to ``p`` the arguments that ``COMMANDS`` calls ``name``."""
    group = None
    for _, flags, kind, default in _specs((name,)):
        if kind == "positional":
            p.add_argument(*flags)
        elif kind == "either":
            group = group or p.add_mutually_exclusive_group(required=True)
            group.add_argument(*flags, action="store_true")
        elif kind == "switch":
            p.add_argument(*flags, action="store_true")
        elif kind == "file or stdout":
            p.add_argument(*flags, nargs="?", const="-", default=default, metavar="FILE",
                           help="emit a JSON verdict (to FILE, or stdout)")
        elif kind is int:
            p.add_argument(*flags, type=int, default=default)
        elif isinstance(kind, tuple):
            p.add_argument(*flags, choices=kind, default=default)
        else:
            p.add_argument(*flags, default=default)


def _is_option(token: str) -> bool:
    """A token that argparse might read as an option: it starts with a
    dash and is not the lone dash.  (Negative numbers are among them.)"""
    return token.startswith("-") and token != "-"


def _plain_args(argv: list):
    """The namespace that ``build_parser().parse_args(argv)`` gives a plain
    command line, read without building a parser: a subcommand named
    exactly, then its positionals and its options spelt in full, each
    option at most once, with a valid value where one is taken.  None for
    anything else (help, an abbreviation, ``--opt=value``, ``--``, a
    negative number, a repeated or conflicting option, a bad value, too
    many or too few positionals), which argparse reads, so that argparse
    writes every usage line, help text and error."""
    entry = next((e for e in COMMANDS if argv and e[0] == argv[0]), None)
    if entry is None:
        return None
    command, fn, _, arguments, _ = entry
    specs = _specs(arguments)
    options = {flag: spec for spec in specs if spec[2] != "positional" for flag in spec[1]}
    values = {dest: default for dest, _, _, default in specs}
    positionals, seen, i = [], set(), 1
    while i < len(argv):
        token = argv[i]
        i += 1
        if not _is_option(token):
            positionals.append(token)
            continue
        spec = options.get(token)
        if spec is None or spec[0] in seen:
            return None
        dest, _, kind, _ = spec
        seen.add(dest)
        if kind in ("switch", "either"):
            values[dest] = True
        elif i == len(argv) or _is_option(argv[i]):
            if kind != "file or stdout":
                return None
            values[dest] = "-"
        else:
            token = argv[i]
            i += 1
            if kind is int:
                try:
                    token = int(token)
                except ValueError:
                    return None
            elif isinstance(kind, tuple) and token not in kind:
                return None
            values[dest] = token
    wanted = [dest for dest, _, kind, _ in specs if kind == "positional"]
    either = [dest for dest, _, kind, _ in specs if kind == "either"]
    if len(positionals) != len(wanted) or either and len(seen.intersection(either)) != 1:
        return None
    values.update(zip(wanted, positionals))
    return SimpleNamespace(command=command, fn=fn, **values)


def build_parser():
    """The parser of every subcommand."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="abcalc",
        description="Workbench for attribute-based communicating components.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, help_text, arguments, _ in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for argument in arguments:
            _add_argument(p, argument)
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    # States and labels are immutable trees and the walk tables hold ints, so
    # only per-walk objects can form cycles: the cyclic collector would walk
    # every state the command keeps and free little.
    collecting = gc.isenabled()
    gc.disable()
    try:
        _check(args)
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (L.BoundExceeded, UnboundProcessName, ArityMismatch, bp.EncodingError,
            bp.UnboundRecursionVariable, UnguardedRecursion) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainViolation as exc:
        try:
            where = "" if exc.leaf is None else f" in {pretty_component(exc.leaf)}"
        except RecursionError:  # a leaf too deep to print is left unnamed
            where = ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply for the recursion limit", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
