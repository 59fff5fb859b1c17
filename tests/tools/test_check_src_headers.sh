#!/usr/bin/env bash
# The regrowth guard must catch what it guards against: on a small
# tree where one src/ header is included only by a test and its own
# .cpp, scripts/check_src_headers.sh exits 1 and names exactly that
# header. A header reached from tools/, one reached from another src/
# file, and the umbrella src/quetzal.hpp must not be named.
#
# Usage: tests/tools/test_check_src_headers.sh <check_src_headers.sh>
set -euo pipefail
checker="$1"

tree="$(mktemp -d)"
trap 'rm -rf "$tree"' EXIT
mkdir -p "$tree"/{src/mod,tools,bench,examples,perfbench,tests}

printf '#pragma once\n' > "$tree/src/mod/shipped.hpp"
printf '#include "mod/shipped.hpp"\n' > "$tree/src/mod/shipped.cpp"
printf '#pragma once\n' > "$tree/src/mod/helper.hpp"
printf '#include "mod/helper.hpp"\n' > "$tree/src/mod/shipped_impl.cpp"
printf '#pragma once\n' > "$tree/src/mod/orphan.hpp"
printf '#include "mod/orphan.hpp"\n' > "$tree/src/mod/orphan.cpp"
printf '#include "mod/orphan.hpp"\n' > "$tree/tests/test_orphan.cpp"
printf '#pragma once\n#include "mod/shipped.hpp"\n' > "$tree/src/quetzal.hpp"
printf '#include "mod/shipped.hpp"\nint main() {}\n' > "$tree/tools/main.cpp"
touch "$tree/bench/.keep" "$tree/examples/.keep" "$tree/perfbench/.keep"

status=0
err="$(bash "$checker" "$tree" 2>&1 >/dev/null)" || status=$?
want="check_src_headers: src/mod/orphan.hpp is included only by tests"
if [ "$status" -ne 1 ] || [ "$err" != "$want" ]; then
    echo "test_check_src_headers: expected exit 1 and '$want'," >&2
    echo "  got exit $status and:" >&2
    printf '%s\n' "$err" >&2
    exit 1
fi

# Once a program includes it, the same tree passes.
printf '#include "mod/orphan.hpp"\n' >> "$tree/tools/main.cpp"
bash "$checker" "$tree" >/dev/null
echo "test_check_src_headers: guard names exactly the test-only header"
