#!/usr/bin/env python3
"""Export scan: every `val` a lib/ interface declares must have a caller.

    python3 bench/export_scan.py [-v]

A `val NAME` declared in module M (`lib/LIB/m.mli`, or a submodule
`module M : sig ... end` inside one) counts as used only where some
`.ml` under lib/, bin/, bench/, perfbench/, examples/ or test/, other
than the interface's own `.ml`, names it in one of these ways:

  - qualified, as `M.NAME` (so `Lib.M.NAME`, `Parent.M.NAME` too);
  - through a module alias of M in that file (`module A = Lib.M`, then
    `A.NAME`);
  - bare, in a file that has `open M`, `include M` or `M.( ... )`
    (an alias of M works there too);
  - by passing M whole, as a functor argument `F (M)` or a packed
    `(module M)`, which counts every value of M as used.

Comments and string literals are not read.  A module is known by its
last name only, so two modules that share one (`Audit` the library and
`Credit.Audit`) lend each other uses: the scan can over-count use but
never under-count it, so a tree with no dead export cannot fail.

Prints the number of exports, the ones no other file names (each is a
failure) and the number named only under test/ (with -v, their names).
Exits 1 if any export is dead.
"""

import os
import re
import sys

SCANNED = ["lib", "bin", "bench", "perfbench", "examples", "test"]
IDENT = r"[A-Za-z_][A-Za-z0-9_']*"
UPATH = r"[A-Z][A-Za-z0-9_']*(?:\s*\.\s*[A-Z][A-Za-z0-9_']*)*"
NOT_BEFORE = r"(?<![A-Za-z0-9_'.])"
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*|\([^)]*\))")
SUBMODULE = re.compile(r"^\s*module\s+([A-Z][A-Za-z0-9_']*)\s*:\s*sig\b")
QUALIFIED = re.compile(r"(?<![A-Za-z0-9_'])([A-Z][A-Za-z0-9_']*)\s*\.\s*([a-z_][A-Za-z0-9_']*)")
ALIAS = re.compile(r"\bmodule\s+([A-Z][A-Za-z0-9_']*)\s*=\s*(" + UPATH + r")")
OPEN = re.compile(r"\b(?:open!?|include)\s+(" + UPATH + r")")
LOCAL_OPEN = re.compile(NOT_BEFORE + r"(" + UPATH + r")\s*\.\s*\(")
APPLY = re.compile(NOT_BEFORE + r"(?:" + UPATH + r")\s*\(\s*(" + UPATH + r")\s*\)")
PACK = re.compile(r"\(\s*module\s+(" + UPATH + r")")
WORD = re.compile(IDENT)
QUOTED = re.compile(r"\{([a-z_]*)\|")
CHAR = re.compile(r"'(\\[^']*|[^\\'])'")


def strip(text):
    """[text] with comments removed and string/char literals emptied."""
    out, i, n, depth = [], 0, len(text), 0
    while i < n:
        c = text[i]
        if text.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and text.startswith("*)", i):
            depth -= 1
            i += 2
        elif c == '"':
            i += 1
            while i < n and text[i] != '"':
                i += 2 if text[i] == "\\" else 1
            i += 1
            if not depth:
                out.append('""')
        elif c == "{" and QUOTED.match(text, i):
            tag = QUOTED.match(text, i).group(1)
            close = text.find("|" + tag + "}", i)
            i = n if close < 0 else close + len(tag) + 2
            if not depth:
                out.append('""')
        elif c == "'" and CHAR.match(text, i) and not (i and text[i - 1].isalnum()):
            i = CHAR.match(text, i).end()
        else:
            if not depth:
                out.append(c)
            i += 1
    return "".join(out)


def last(path):
    return re.split(r"\s*\.\s*", path)[-1]


def files(root, top, ext):
    for d, subdirs, names in os.walk(os.path.join(root, top)):
        subdirs[:] = sorted(s for s in subdirs if not s.startswith((".", "_")))
        for n in sorted(names):
            if n.endswith(ext):
                yield os.path.join(d, n)


def declared(mli):
    """(module name, val name) for every `val` in [mli], in order."""
    top = os.path.basename(mli)[:-4].capitalize()
    stack, out = [(top, 0)], []
    with open(mli) as f:
        text = strip(f.read())
    for line in text.splitlines():
        sub = SUBMODULE.match(line)
        if sub:
            stack.append((sub.group(1), 0))
            line = line[sub.end():]
        m = VAL.match(line)
        if m:
            out.append((stack[-1][0], m.group(1)))
        for tok in re.findall(r"\b(?:sig|struct|object|end)\b", line):
            name, open_ = stack[-1]
            if tok != "end":
                stack[-1] = (name, open_ + 1)
            elif open_:
                stack[-1] = (name, open_ - 1)
            elif len(stack) > 1:
                stack.pop()
    return out


class Source:
    """What one `.ml` names: qualified pairs, bare words, and the modules it
    opens or passes whole, all with its aliases resolved."""

    def __init__(self, text):
        text = strip(text)
        aliases = {}
        for a, p in ALIAS.findall(text):
            aliases.setdefault(a, set()).add(last(p))

        def names(m):
            """[m] and every module it may alias, transitively: an alias is
            file-wide here, so a name counts for all of its targets."""
            seen, todo = set(), [m]
            while todo:
                n = todo.pop()
                if n not in seen:
                    seen.add(n)
                    todo.extend(aliases.get(n, ()))
            return seen

        self.qualified = {(n, v) for m, v in QUALIFIED.findall(text) for n in names(m)}
        self.words = set(WORD.findall(text))
        self.opened = {n for p in OPEN.findall(text) + LOCAL_OPEN.findall(text)
                       for n in names(last(p))}
        self.whole = {n for p in APPLY.findall(text) + PACK.findall(text) for n in names(last(p))}

    def uses(self, module, name):
        return ((module, name) in self.qualified
                or (module in self.opened and name in self.words)
                or module in self.whole)


def scan(root):
    """(exports, dead, test_only): the two lists as `path: Module.name`."""
    sources = {}
    for top in SCANNED:
        for path in files(root, top, ".ml"):
            with open(path) as f:
                sources[path] = Source(f.read())
    test_dir = os.path.join(root, "test") + os.sep
    dead, test_only, total = [], [], 0
    for mli in files(root, "lib", ".mli"):
        own = mli[:-1]
        rel = os.path.relpath(mli, root)
        for module, name in declared(mli):
            total += 1
            if name.startswith("("):
                continue  # an operator: callers use it infix
            users = [p for p, s in sources.items() if p != own and s.uses(module, name)]
            if not users:
                dead.append(f"{rel}: {module}.{name}")
            elif all(p.startswith(test_dir) for p in users):
                test_only.append(f"{rel}: {module}.{name}")
    return total, dead, test_only


def main(argv):
    verbose = "-v" in argv
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    total, dead, test_only = scan(root)
    print(f"exports: {total}")
    print(f"named by no other file: {len(dead)}")
    for d in dead:
        print(f"  {d}")
    print(f"named only by tests: {len(test_only)}")
    if verbose:
        for t in test_only:
            print(f"  {t}")
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
