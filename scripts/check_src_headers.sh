#!/usr/bin/env bash
# The shipped libraries hold only code a program reaches: every
# header under src/ must be included by something outside tests/
# other than its own .cpp (src/, tools/, bench/, examples/ or
# perfbench/). A header only tests include is a reference model or
# a helper nothing runs; move it to tests/support/ or delete it.
# The documented umbrella src/quetzal.hpp is the one exemption.
#
# Usage: scripts/check_src_headers.sh [repo-root]
#   repo-root  checkout to scan (default: this script's checkout)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

status=0
while IFS= read -r header; do
    rel="${header#src/}"
    [ "$rel" = quetzal.hpp ] && continue
    own="src/${rel%.hpp}.cpp"
    if ! grep -rlF --include='*.cpp' --include='*.hpp' \
            "#include \"$rel\"" src tools bench examples perfbench |
            grep -qvxF "$own"; then
        echo "check_src_headers: $header is included only by tests" >&2
        status=1
    fi
done < <(find src -name '*.hpp' | sort)

if [ "$status" -eq 0 ]; then
    echo "check_src_headers: every src/ header is reached outside tests/"
fi
exit "$status"
