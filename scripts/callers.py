#!/usr/bin/env python3
"""Callers tripwire: every library module, and every value a library
exports, has a caller outside its own module and outside test/.

Run from anywhere: python3 scripts/callers.py

Two checks, over the .ml files under lib bin bench benchmark examples:

- modules: each lib/*/*.ml module is named in another such file.  A
  module that only its own tests reach is code no deployment runs.
- values: each top-level `val` or `external` of a lib/*/*.mli (for a
  module with no .mli, each top-level `let`) is named in another such
  file, as `Module.name` or as a bare `name` in a file that opens
  `Module` (`open`, `let open` or `Module.( ... )`).  An export with no
  such caller must be listed in scripts/callers.allow with the reason it
  stays (a test oracle's entry point, a state probe a pin asserts on);
  a listed value that has gained a caller, or is no longer exported,
  fails too, so the list cannot go stale.

A tripwire, not a proof.  Comments and string literals are blanked
first, but any other whole-word mention counts as a call (a record
field or label of the same name included), and the values of nested
modules are not checked.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("lib", "bin", "bench", "benchmark", "examples")
ALLOW = ROOT / "scripts" / "callers.allow"

LEX = re.compile(
    r"""
    (?P<open>\(\*)
  | (?P<close>\*\))
  | (?P<str>"(?:\\.|[^"\\])*")
  | (?P<qstr>\{(?P<qid>[a-z_]*)\|.*?\|(?P=qid)\})
  | (?P<chr>'(?:\\(?:[\\'"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3})|[^\\'\n])')
  | (?P<id>[A-Za-z_][A-Za-z0-9_']*)
    """,
    re.S | re.X,
)
IDENT = r"[a-z_][A-Za-z0-9_']*"
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
QUALIFIED = re.compile(r"(?<![\w'])([A-Z][\w']*)\.(" + IDENT + ")")
OPEN = re.compile(r"\bopen!?\s+(?:[A-Z][\w']*\.)*([A-Z][\w']*)")
LOCAL_OPEN = re.compile(r"(?<![\w'])([A-Z][\w']*)\.\(")
MLI_EXPORT = re.compile(r"^(?:val|external)\s+(" + IDENT + ")", re.M)
ML_EXPORT = re.compile(r"^(?:let(?:\s+rec)?|and)\s+(" + IDENT + ")", re.M)


def code_of(text):
    """[text] with comments and string and char literals blanked."""
    out, depth, pos = [], 0, 0
    for m in LEX.finditer(text):
        kind = m.lastgroup
        if depth == 0:
            out.append(text[pos : m.start()])
            if kind == "open":
                depth = 1
            out.append(m.group() if kind == "id" else " ")
        elif kind == "open":
            depth += 1
        elif kind == "close":
            depth -= 1
        pos = m.end()
    if depth == 0:
        out.append(text[pos:])
    return "".join(out)


def module_of(path):
    return path.stem[:1].upper() + path.stem[1:]


class Source:
    def __init__(self, path):
        self.path = path
        code = code_of(path.read_text())
        self.idents = set(WORD.findall(code))
        self.qualified = set(QUALIFIED.findall(code))
        self.opens = set(OPEN.findall(code)) | set(LOCAL_OPEN.findall(code))

    def calls(self, mod, name):
        return (mod, name) in self.qualified or (
            mod in self.opens and name in self.idents
        )


def exports(ml):
    """The top-level values a lib/ module exports, in file order."""
    mli = ml.with_suffix(".mli")
    src, pattern = (mli, MLI_EXPORT) if mli.exists() else (ml, ML_EXPORT)
    names = pattern.findall(code_of(src.read_text()))
    return src, [n for n in dict.fromkeys(names) if n != "_"]


def read_allow():
    allow, errors = {}, []
    for i, line in enumerate(ALLOW.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        value, _, reason = line.partition(" ")
        where = f"{ALLOW.relative_to(ROOT)}:{i}"
        if not reason.strip():
            errors.append(f"{where}: {value} has no reason")
        elif value in allow:
            errors.append(f"{where}: {value} listed twice")
        allow[value] = where
    return allow, errors


def main():
    sources = [
        Source(p)
        for d in CALLER_DIRS
        for p in sorted((ROOT / d).rglob("*.ml"))
    ]
    allow, errors = read_allow()
    modules = sorted(ROOT.glob("lib/*/*.ml"))
    n_exports = 0
    for ml in modules:
        mod = module_of(ml)
        others = [s for s in sources if s.path != ml]
        if not any(mod in s.idents for s in others):
            errors.append(
                f"no caller outside test/: module {mod} ({ml.relative_to(ROOT)})"
            )
        src, names = exports(ml)
        n_exports += len(names)
        for name in names:
            value = f"{mod}.{name}"
            callers = [s for s in others if s.calls(mod, name)]
            where = allow.pop(value, None)
            if where and callers:
                errors.append(
                    f"{where}: {value} is allowlisted but called from "
                    + ", ".join(str(s.path.relative_to(ROOT)) for s in callers)
                )
            elif not where and not callers:
                errors.append(
                    f"no caller outside test/: {value} ({src.relative_to(ROOT)});"
                    f" hide it, delete it, or allowlist it with a reason"
                )
    for value, where in allow.items():
        errors.append(f"{where}: {value} is allowlisted but not exported")
    for e in errors:
        print(e)
    print(
        f"callers: {len(modules)} modules, {n_exports} exports,"
        f" {len(errors)} failures"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
