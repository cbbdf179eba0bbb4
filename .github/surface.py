#!/usr/bin/env python3
"""Public-surface check: every exported value must have a caller.

    python3 .github/surface.py

Collects every `val NAME` in lib/**/*.mli and word-greps NAME in every
.ml/.mli under lib, bin, bench, test, examples and perfbench except the
module's own NAME.ml and NAME.mli. Prints the number of exported values;
exits 1, listing each offender, when a value is named nowhere outside its
own module. A name that collides with another identifier counts as used,
so the check can miss a dead export but never flags a live one.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = ["lib", "bin", "bench", "test", "examples", "perfbench"]
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)", re.M)
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def sources():
    for d in DIRS:
        for dirpath, _, files in os.walk(os.path.join(ROOT, d)):
            for f in files:
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(dirpath, f)


def main():
    words = {}
    for path in sources():
        with open(path, encoding="utf-8") as fh:
            words[path] = set(IDENT.findall(fh.read()))
    total = 0
    offenders = []
    for mli in sorted(p for p in words if p.endswith(".mli")
                      and p.startswith(os.path.join(ROOT, "lib") + os.sep)):
        own = {mli, mli[:-1]}
        with open(mli, encoding="utf-8") as fh:
            names = VAL.findall(fh.read())
        total += len(names)
        for name in names:
            if not any(name in ws for p, ws in words.items() if p not in own):
                offenders.append((os.path.relpath(mli, ROOT), name))
    print(f"{total} exported values in lib/**/*.mli")
    for mli, name in offenders:
        print(f"{mli}: {name} is named nowhere outside its module")
    return 1 if offenders else 0


if __name__ == "__main__":
    sys.exit(main())
