#!/usr/bin/env python3
"""Print non-test Rust lines per crate and in total.

Counts every line of each .rs file under crates/, src/ and vendor/,
minus the brace-matched items marked #[cfg(test)] and minus files in a
tests/ directory. Usage: python3 scripts/nontest_loc.py [REPO_ROOT]
"""
import pathlib, re, sys

LITERAL = re.compile(r'"(?:\\.|[^"\\])*"|\'(?:\\.|[^\\\'])\'|//.*')

def nontest_lines(text):
    lines, count, i = text.splitlines(), 0, 0
    while i < len(lines):
        if lines[i].strip() != "#[cfg(test)]":
            count, i = count + 1, i + 1
            continue
        depth, opened = 0, False  # skip the item: to its `;` or matching `}`
        while i < len(lines):
            code = LITERAL.sub("", lines[i])
            depth += code.count("{") - code.count("}")
            opened = opened or "{" in code
            i += 1
            if (opened and depth == 0) or (not opened and code.rstrip().endswith(";")):
                break
    return count

root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
per_crate = {}
for top in ("crates", "src", "vendor"):
    for path in sorted((root / top).rglob("*.rs")):
        rel = path.relative_to(root).parts
        if "tests" in rel or "target" in rel:
            continue
        name = "/".join(rel[:2]) if top != "src" else "src"
        per_crate[name] = per_crate.get(name, 0) + nontest_lines(path.read_text())
for name, n in sorted(per_crate.items()):
    print(f"{n:>8}  {name}")
print(f"{sum(per_crate.values()):>8}  total")
