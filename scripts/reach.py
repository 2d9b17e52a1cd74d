#!/usr/bin/env python3
"""Reachability gate: every declared function and package-level variable
must be linked by a program.

Builds the module's programs (cmd/*, examples/* and the perfbench module)
with inlining off (-gcflags=all=-l, so no reachable function vanishes from
the symbol table), reads their text and data symbols with `go tool nm`,
and diffs them against the func and package-level var declarations of the
module's non-test files for the host GOOS/GOARCH (`go list` picks the
files, so build tags are honoured). Bodyless declarations (assembly) and
blank (`_`) vars are skipped.

The linker keeps whatever an interface or reflection could reach, so the
method can only under-report dead code: a symbol it lists is linked by no
program at all. For vars the linker under-reports more: a var whose
initialiser runs code (a call, a map, a closure) is written by its
package's init and so stays linked even when nothing reads it. So vars get
a second test: scripts/varreads.go type-checks the module and the
perfbench module from source and lists every package-level var no code
reads (its own initialiser and writes to it do not count), and such a var
is unreachable too, linked or not. Consts and types without methods have
no symbol of their own, so the gate cannot see them.

A declaration no program reaches must be listed in scripts/reach_allow.txt
as `symbol  # reason`, where the reason starts with one of the kinds in
REASONS. A symbol is a package path plus the name as `go tool nm` prints
it (`repro/internal/dsp.DTFT`, `repro/internal/dsp.(*Plan).Forward`,
`repro/internal/dsp.Spectrum.PeakBin`), with generic type parameters
dropped; a trailing `*` matches a whole package. Main-package functions
are named by their directory (`repro/cmd/bistlab.main`).

Usage: python3 scripts/reach.py [-v]
Exit status: 0 clean, 1 unreachable or stale allowlist entries, 2 build or
usage error.
"""

import fnmatch
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOW = os.path.join(ROOT, "scripts", "reach_allow.txt")
REASONS = ("oracle", "test hook", "fuzz subject", "cross-package test helper")
MODULE = "repro"

FUNC_RE = re.compile(
    r"^func\s+(?:\(\s*(?:\w+\s+)?(\*?)\s*(\w+)(?:\[[^\]]*\])?\s*\)\s*)?(\w+)"
)
# A var spec's names: after `var ` on a top-level line, or at one tab of
# indentation inside a `var (` block.
VAR_RE = re.compile(r"^(?:var\s+|\t)(\w+(?:\s*,\s*\w+)*)(?:\s|=|$)")
TEXT_SYMS = ("T", "t")
DATA_SYMS = ("D", "d", "B", "b", "R", "r")


def run(cmd, cwd=ROOT):
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write("reach: %s failed:\n%s" % (" ".join(cmd), out.stderr))
        sys.exit(2)
    return out.stdout


def strip_brackets(s):
    """Drops every balanced [...] group (generic shapes and type params)."""
    out, depth = [], 0
    for ch in s:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def packages():
    """Yields (import path, dir, non-test Go files) for the host GOOS/GOARCH."""
    dec = json.JSONDecoder()
    text = run(["go", "list", "-json", "./..."])
    pos = 0
    while pos < len(text):
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            break
        pkg, pos = dec.raw_decode(text, pos)
        yield pkg["ImportPath"], pkg["Dir"], pkg.get("GoFiles", [])


def balance(lines, i, opens, closes):
    """Returns (j, code): the first line j >= i at which the brackets in
    opens/closes counted from line i balance, and that line's code with
    any comment stripped."""
    depth, j, code = 0, i, ""
    while j < len(lines):
        code = lines[j].split("//")[0].rstrip()
        for ch in code:
            if ch in opens:
                depth += 1
            elif ch in closes:
                depth -= 1
        if depth == 0:
            break
        j += 1
    return j, code


def doc_start(lines, i):
    """Returns the first line of the comment block directly above line i."""
    while i > 0 and lines[i - 1].lstrip().startswith("//"):
        i -= 1
    return i


def var_specs(lines, i):
    """Yields (name, line number, line count incl. doc comment) for the
    named vars of the spec at line i and returns the spec's last line."""
    m = VAR_RE.match(lines[i])
    end, _ = balance(lines, i, "([{", ")]}")
    if m:
        for name in re.split(r"\s*,\s*", m.group(1)):
            if name != "_":
                yield name, i + 1, end - doc_start(lines, i) + 1
    return end


def declarations(lines):
    """Yields (name, line number, line count incl. doc comment) per func
    declaration with a body and per named package-level var."""
    i = 0
    while i < len(lines):
        if lines[i].rstrip() == "var (":
            i += 1
            while i < len(lines) and lines[i].rstrip() != ")":
                if lines[i].startswith("\t") and not lines[i].startswith("\t\t"):
                    i = yield from var_specs(lines, i)
                i += 1
            continue
        if lines[i].startswith("var "):
            i = (yield from var_specs(lines, i)) + 1
            continue
        m = FUNC_RE.match(lines[i])
        if not m:
            i += 1
            continue
        star, recv, name = m.groups()
        start = doc_start(lines, i)
        # Walk the signature to its end: the body opens with a `{` at
        # bracket depth 0; a bodyless (assembly) declaration ends without.
        j, code = balance(lines, i, "([", ")]")
        if code.endswith("{"):
            end = j + 1
            while end < len(lines) and lines[end].rstrip() != "}":
                end += 1
        elif code.endswith("}") and code.count("{") == code.count("}"):
            end = j  # one-line body
        else:
            i = j + 1  # bodyless: implemented in assembly
            continue
        if recv:
            sym = "(*%s).%s" % (recv, name) if star else "%s.%s" % (recv, name)
        else:
            sym = name
        yield sym, i + 1, end - start + 1
        i = end + 1


def programs():
    """Yields (build dir, binary name, import path of main.* symbols)."""
    for parent in ("cmd", "examples"):
        for name in sorted(os.listdir(os.path.join(ROOT, parent))):
            if os.path.isdir(os.path.join(ROOT, parent, name)):
                yield os.path.join(ROOT, parent, name), name, "%s/%s/%s" % (MODULE, parent, name)
    yield os.path.join(ROOT, "perfbench"), "perfbench", None


def reached(tmp):
    """Returns the set of normalised symbols any program links."""
    seen = set()
    for d, name, mainpath in programs():
        out = os.path.join(tmp, name)
        run(["go", "build", "-gcflags=all=-l", "-o", out, "."], cwd=d)
        for line in run(["go", "tool", "nm", out]).splitlines():
            parts = line.split(None, 2)
            if len(parts) != 3 or parts[1] not in TEXT_SYMS + DATA_SYMS:
                continue
            sym = strip_brackets(parts[2])
            if sym.startswith("main."):
                if mainpath is None:
                    continue
                sym = mainpath + sym[len("main"):]
            elif not sym.startswith(MODULE + "/"):
                continue
            seen.add(sym)
    return seen


def unread_vars():
    """Returns the set of package-level vars scripts/varreads.go finds no
    code reads."""
    out = run(["go", "run", os.path.join("scripts", "varreads.go"), ".", "perfbench"])
    return {line.split("\t", 1)[0] for line in out.splitlines() if line.strip()}


def load_allow():
    """Returns ({symbol: line number}, [format problems])."""
    entries, bad = {}, []
    with open(ALLOW) as f:
        for n, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            sym, _, reason = line.partition("#")
            sym, reason = sym.strip(), reason.strip()
            if not reason.startswith(REASONS):
                bad.append("%s:%d: %s: reason must start with one of: %s"
                           % (os.path.relpath(ALLOW, ROOT), n, sym, ", ".join(REASONS)))
            entries[sym] = n
    return entries, bad


def main():
    verbose = "-v" in sys.argv[1:]
    if any(a != "-v" for a in sys.argv[1:]):
        sys.stderr.write(__doc__)
        return 2
    decls = []  # (symbol, file, line, line count)
    for imp, d, files in packages():
        if imp.startswith(MODULE + "/perfbench"):
            continue
        for fn in files:
            path = os.path.join(d, fn)
            with open(path) as f:
                lines = f.read().split("\n")
            for sym, line, count in declarations(lines):
                if sym != "init":
                    decls.append(("%s.%s" % (imp, sym), os.path.relpath(path, ROOT), line, count))
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        seen = reached(tmp)
    seen -= unread_vars()
    allow, problems = load_allow()
    used, dead, allowed = set(), [], 0
    for sym, fn, line, count in decls:
        if sym in seen:
            continue
        hit = [a for a in allow if a == sym or (a.endswith("*") and fnmatch.fnmatchcase(sym, a))]
        if hit:
            used.update(hit)
            allowed += 1
        else:
            dead.append((fn, line, sym, count))
    for a, n in allow.items():
        if a not in used:
            why = "reachable" if a in seen else "matches no unreachable declaration"
            problems.append("%s:%d: %s: stale entry (%s)" % (os.path.relpath(ALLOW, ROOT), n, a, why))
    for fn, line, sym, count in sorted(dead):
        print("%s:%d: %s unreachable (%d lines)" % (fn, line, sym, count))
    for p in problems:
        print(p)
    if verbose or dead or problems:
        print("reach: %d declarations, %d linked symbols, %d allowlisted, "
              "%d unreachable (%d lines in %d files), %d allowlist problems"
              % (len(decls), len(seen), allowed, len(dead), sum(d[3] for d in dead),
                 len({d[0] for d in dead}), len(problems)))
    if dead or problems:
        return 1
    print("reach OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
