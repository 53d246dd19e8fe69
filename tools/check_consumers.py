#!/usr/bin/env python3
"""Library-consumer check (stdlib only).

Every library header `src/<dir>/<name>.hpp` must be included by at least
one file outside `tests/` other than its own `src/<dir>/<name>.cpp`: by
another library module, a bench binary, an example, a tool or perfbench.
A module whose only includers are its own tests is on no partitioning or
benchmark path, so it fails the check and should go with its tests.

Includes are matched in the repo's form, `#include "<dir>/<name>.hpp"`
(paths relative to src/). Exit status is the number of unconsumed headers
(0 = clean), each printed as `path: message`. Run from anywhere; paths
resolve against the repo root (the parent of this script's directory).
Wired into tools/check.sh.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Where consumers may live: everything that builds, except tests/.
CONSUMER_DIRS = ("src", "bench", "examples", "tools", "perfbench")
SOURCE_SUFFIXES = (".cpp", ".hpp")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def consumer_files() -> list[Path]:
    files = []
    for top in CONSUMER_DIRS:
        files += [f for f in sorted((REPO / top).rglob("*"))
                  if f.suffix in SOURCE_SUFFIXES and f.is_file()]
    return files


def main() -> int:
    includers: dict[str, set[Path]] = {}
    for f in consumer_files():
        for target in INCLUDE_RE.findall(f.read_text(encoding="utf-8")):
            includers.setdefault(target, set()).add(f)

    headers = sorted((REPO / "src").glob("*/*.hpp"))
    errors = []
    for header in headers:
        rel = header.relative_to(REPO / "src").as_posix()
        own_cpp = header.with_suffix(".cpp")
        users = includers.get(rel, set()) - {own_cpp}
        if not users:
            errors.append(f"src/{rel}: no includer outside tests/ "
                          f"(only its own .cpp or tests use it)")
    for err in errors:
        print(err)
    if errors:
        print(f"check_consumers: {len(errors)} unconsumed header(s) of "
              f"{len(headers)}")
    else:
        print(f"check_consumers: OK ({len(headers)} headers)")
    return min(len(errors), 125)


if __name__ == "__main__":
    sys.exit(main())
