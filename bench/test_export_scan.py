#!/usr/bin/env python3
"""Fixture tests for the export scan (bench/export_scan.py).

    python3 bench/test_export_scan.py

Each test writes a tiny lib/ + test/ tree to a temporary directory and
checks what the scan reports for it.
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from export_scan import scan  # noqa: E402

TREE = {
    # The library: M has one value per way of being used, plus one dead
    # value and one that only a test names; N is only ever passed whole
    # to a functor; P shares a value name with M.
    "lib/core/m.mli": """
val qualified : int
val aliased : int
val opened : int
val local_opened : int
val dead : int
(** Named bare by a file that does not open M, in a comment and in a
    string: none of those is a use. *)

val tested : int
""",
    "lib/core/m.ml": """
let qualified = 1
let aliased = 2
let opened = 3
let local_opened = 4
let dead = 5
let tested = 6
""",
    "lib/core/n.mli": """
type t = int
val compare : t -> t -> int
""",
    "lib/core/n.ml": """
type t = int
let compare = Int.compare
""",
    "lib/core/p.mli": """
val dead : int
""",
    "lib/core/p.ml": """
let dead = 0
""",
    # Callers, one way of naming M per file.
    "lib/app/qualified.ml": """
let x = Core.M.qualified
""",
    "lib/app/aliased.ml": """
module Short = Core.M
let x = Short.aliased
""",
    "lib/app/opened.ml": """
open Core.M
let x = opened
""",
    "lib/app/local_opened.ml": """
let x = Core.M.(local_opened + 1)
""",
    "lib/app/functor_arg.ml": """
module S = Set.Make (Core.N)
""",
    "lib/app/clash.ml": """
(* Core.M.dead is not named here, and neither is M.dead. *)
let dead = Core.P.dead
let label = "Core.M.dead"
""",
    "test/test_core.ml": """
let () = assert (Core.M.tested = 6)
""",
}


def run_scan(tree):
    with tempfile.TemporaryDirectory() as root:
        for rel, text in tree.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                f.write(text)
        return scan(root)


class Scan(unittest.TestCase):
    def test_fixture(self):
        total, dead, test_only = run_scan(TREE)
        self.assertEqual(total, 8)
        self.assertEqual(dead, ["lib/core/m.mli: M.dead"])
        self.assertEqual(test_only, ["lib/core/m.mli: M.tested"])

    def test_each_use_is_needed(self):
        # Dropping the one file that names a value makes exactly that
        # value dead, so each way of naming it counted on its own.
        for caller, value in [("qualified", "M.qualified"), ("aliased", "M.aliased"),
                              ("opened", "M.opened"), ("local_opened", "M.local_opened"),
                              ("functor_arg", "N.compare")]:
            tree = {k: v for k, v in TREE.items() if k != f"lib/app/{caller}.ml"}
            _, dead, _ = run_scan(tree)
            mli = "n.mli" if value.startswith("N.") else "m.mli"
            self.assertIn(f"lib/core/{mli}: {value}", dead, caller)
            self.assertEqual(len(dead), 2, (caller, dead))

    def test_own_module_is_not_a_caller(self):
        tree = dict(TREE)
        tree["lib/core/m.ml"] += "let y = qualified + M.aliased\n"
        tree["lib/app/qualified.ml"] = ""
        _, dead, _ = run_scan(tree)
        self.assertIn("lib/core/m.mli: M.qualified", dead)

    def test_submodule_values(self):
        tree = {
            "lib/core/s.mli": "module Inner : sig\n  val used : int\n  val unused : int\nend\n",
            "lib/core/s.ml": "module Inner = struct\n  let used = 1\n  let unused = 2\nend\n",
            "lib/app/user.ml": "let x = Core.S.Inner.used\n",
        }
        total, dead, _ = run_scan(tree)
        self.assertEqual(total, 2)
        self.assertEqual(dead, ["lib/core/s.mli: Inner.unused"])


if __name__ == "__main__":
    unittest.main()
