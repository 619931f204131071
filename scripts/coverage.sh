#!/usr/bin/env bash
# Lists every src/ function that the tier-1 suite never executes.
#
#   scripts/coverage.sh
#
# Configures build-cov/ (Debug, --coverage -O0), builds it, runs ctest there,
# then reads the counters of every object file in the tree (libraries, tests,
# benches, examples) through `gcov --json-format` and prints every function
# defined under src/ whose execution count is zero. A function that several
# object files emit (an inline or template function is emitted by every
# translation unit that uses it, and the linker may keep a test's copy)
# counts as executed if any of them ran it: its counts are summed over all
# object files first.
#
# Not part of scripts/check.sh: it takes about 3.5 minutes on 4 cores.
#
# Limitation: gcov only knows the functions the compiler emitted. A function
# defined in a header and never odr-used is never emitted, so it is dead but
# cannot appear in this list.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== coverage: configure + build build-cov/ (Debug, --coverage -O0) =="
cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -O0" \
  -DCMAKE_EXE_LINKER_FLAGS="--coverage" >/dev/null
cmake --build build-cov -j "$(nproc)"

echo "== coverage: ctest =="
find build-cov -name '*.gcda' -delete
if ! ctest --test-dir build-cov -j "$(nproc)" --timeout 600 >build-cov/ctest.log 2>&1; then
  echo "warning: some tests failed (build-cov/ctest.log); the report below still stands" >&2
fi

echo "== coverage: never-executed src/ functions =="
python3 - "$PWD" <<'EOF'
import collections
import json
import os
import subprocess
import sys

root = sys.argv[1]
src = os.path.join(root, "src") + os.sep
by_dir = collections.defaultdict(list)
for dirpath, _, files in os.walk(os.path.join(root, "build-cov")):
    for f in files:
        if f.endswith(".gcda"):
            by_dir[dirpath].append(os.path.join(dirpath, f))

# (file, name) -> [summed execution count, first line, last line]
functions = {}
for objdir, gcdas in sorted(by_dir.items()):
    out = subprocess.run(["gcov", "--json-format", "--stdout", "-o", objdir, *gcdas],
                         cwd=objdir, check=True, capture_output=True, text=True).stdout
    for line in out.splitlines():
        if not line.startswith("{"):
            continue
        for entry in json.loads(line)["files"]:
            path = os.path.realpath(os.path.join(objdir, entry["file"]))
            if not path.startswith(src):
                continue
            rel = os.path.relpath(path, root)
            for fn in entry["functions"]:
                key = (rel, fn.get("demangled_name", fn["name"]))
                slot = functions.setdefault(key, [0, fn["start_line"], fn["end_line"]])
                slot[0] += fn["execution_count"]

dead = sorted((rel, start, end, name)
              for (rel, name), (count, start, end) in functions.items() if count == 0)
lines = 0
for rel, start, end, name in dead:
    lines += end - start + 1
    print(f"{rel}:{start}-{end}  {name}")
print(f"{len(dead)} of {len(functions)} src/ functions never executed ({lines} lines)")
EOF
