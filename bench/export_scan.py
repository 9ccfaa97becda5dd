#!/usr/bin/env python3
"""Export scan: every `val` a lib/ interface declares must have a caller.

    python3 bench/export_scan.py [-v]

For each `val NAME` in a `lib/**/*.mli`, looks for NAME as a whole word
in every `.ml` under lib/, bin/, bench/, perfbench/, examples/ and
test/, except the interface's own `.ml`.  A name-match can over-count
use (another module's value of the same name, a comment) but never
under-count it, so a tree with no dead export cannot fail.

Prints the number of exports, the ones never mentioned outside their
own module (each is a failure) and the number mentioned only under
test/ (with -v, their names).  Exits 1 if any export is dead.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ["lib", "bin", "bench", "perfbench", "examples", "test"]
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*|\([^)]*\))")


def files(top, ext):
    for d, subdirs, names in os.walk(os.path.join(ROOT, top)):
        subdirs[:] = [s for s in subdirs if not s.startswith((".", "_"))]
        for n in sorted(names):
            if n.endswith(ext):
                yield os.path.join(d, n)


def main():
    verbose = "-v" in sys.argv[1:]
    sources = {}
    for top in SCANNED:
        for path in files(top, ".ml"):
            with open(path) as f:
                sources[path] = f.read()
    test_dir = os.path.join(ROOT, "test") + os.sep
    dead, test_only, total = [], [], 0
    for mli in files("lib", ".mli"):
        own = mli[:-1]
        rel = os.path.relpath(mli, ROOT)
        with open(mli) as f:
            names = [m.group(1) for m in map(VAL.match, f) if m]
        for name in names:
            total += 1
            if name.startswith("("):
                continue  # an operator: callers use it infix
            word = re.compile(r"(?<![A-Za-z0-9_'])" + re.escape(name) + r"(?![A-Za-z0-9_'])")
            users = [p for p, text in sources.items() if p != own and word.search(text)]
            if not users:
                dead.append(f"{rel}: {name}")
            elif all(p.startswith(test_dir) for p in users):
                test_only.append(f"{rel}: {name}")
    print(f"exports: {total}")
    print(f"never mentioned outside their module: {len(dead)}")
    for d in dead:
        print(f"  {d}")
    print(f"mentioned only by tests: {len(test_only)}")
    if verbose:
        for t in test_only:
            print(f"  {t}")
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
