#!/usr/bin/env python3
"""Compare every committed golden with a git revision, leaf by leaf.

Usage, from the repository root:

    python3 scripts/leafdiff.py REV

For each tracked JSON file under a testdata directory, the working-tree
copy is compared with its copy at REV. Per file that differs it prints the
number of moved leaves and the worst relative float move
|a - b| / max(|a|, |b|). It exits 1 when any leaf that is not a float
changed: an integer, a bool, a string or null, a key or array element
added or removed, or a leaf whose type changed. A file that is new since
REV is listed and not compared; a file deleted since REV is a change.

JSON does not mark floats: a number written without a fraction or an
exponent reads as an integer. A move between two such numbers counts as an
integer change; a move in which either side has a fraction or an exponent
counts as a float move.
"""

import json
import subprocess
import sys


def load_docs(text):
    """Parse a file holding one or more concatenated JSON documents."""
    dec = json.JSONDecoder()
    docs, i = [], 0
    while True:
        while i < len(text) and text[i].isspace():
            i += 1
        if i == len(text):
            return docs
        doc, i = dec.raw_decode(text, i)
        docs.append(doc)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def diff(old, new, path="$", out=None):
    """Walk two parsed documents in step.

    Returns a list of (path, kind, old, new) for every leaf that differs,
    kind being "float" for a float move and "hard" for any other change.
    """
    if out is None:
        out = []
    if isinstance(old, dict) and isinstance(new, dict):
        for k in sorted(old.keys() | new.keys()):
            p = f"{path}.{k}"
            if k not in old or k not in new:
                out.append((p, "hard", old.get(k), new.get(k)))
            else:
                diff(old[k], new[k], p, out)
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            p = f"{path}[{i}]"
            if i >= len(old) or i >= len(new):
                out.append((p, "hard", old[i] if i < len(old) else None, new[i] if i < len(new) else None))
            else:
                diff(old[i], new[i], p, out)
    elif is_number(old) and is_number(new):
        if old != new:
            kind = "float" if isinstance(old, float) or isinstance(new, float) else "hard"
            out.append((path, kind, old, new))
    elif type(old) is not type(new) or old != new:
        out.append((path, "hard", old, new))
    return out


def rel_move(a, b):
    den = max(abs(a), abs(b))
    return abs(a - b) / den if den else 0.0


def compare(old_text, new_text):
    """Diff two file contents.

    Returns (moved leaves, worst relative float move, its path, hard changes).
    """
    changes = diff(load_docs(old_text), load_docs(new_text))
    worst, at = 0.0, ""
    for path, kind, a, b in changes:
        if kind == "float" and rel_move(a, b) > worst:
            worst, at = rel_move(a, b), path
    hard = [c for c in changes if c[1] == "hard"]
    return len(changes), worst, at, hard


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def main(argv):
    if len(argv) != 2:
        print("usage: python3 scripts/leafdiff.py REV", file=sys.stderr)
        return 2
    rev = argv[1]
    now = {p for p in git("ls-files").splitlines() if "/testdata/" in p and p.endswith(".json")}
    then = {p for p in git("ls-tree", "-r", "--name-only", rev).splitlines()
            if "/testdata/" in p and p.endswith(".json")}
    bad = False
    for p in sorted(now | then):
        if p not in then:
            print(f"{p}: new since {rev}")
            continue
        if p not in now:
            print(f"{p}: deleted since {rev}")
            bad = True
            continue
        with open(p) as f:
            moved, worst, at, hard = compare(git("show", f"{rev}:{p}"), f.read())
        if moved == 0:
            continue
        print(f"{p}: {moved} leaves moved, worst relative float move {worst:.3g} ({at or 'none'})")
        for path, _, a, b in hard:
            print(f"  non-float change at {path}: {json.dumps(a)} -> {json.dumps(b)}")
        bad = bad or bool(hard)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
