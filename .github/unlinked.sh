#!/usr/bin/env bash
# Prints the functions and methods declared under internal/ that no binary
# links, one `pkg.Func` or `pkg.Type.Method` per line, sorted.
#
# Every program (./cmd/*, ./examples/* and the bench module) is built with
# inlining off, so a function any of them can call is a symbol in its
# binary; `go tool nm` lists those symbols and `go doc -all -u` lists what
# each internal package declares. What is declared but linked nowhere is
# reached only by tests, or by nothing. CI diffs the output against
# .github/unlinked.txt, the names kept on purpose.
#
#   bash .github/unlinked.sh
set -euo pipefail
export LC_ALL=C # comm needs sort's order; the kept list is in this order
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$root"

mkdir "$tmp/bin"
for dir in cmd/* examples/*; do
  go build -gcflags=all=-l -o "$tmp/bin/$(basename "$dir")" "./$dir"
done
(cd bench && go build -gcflags=all=-l -o "$tmp/bin/bench-module" .)

# "addr T repro/internal/pkg.(*T[...]).M.func1" -> pkg.T.M; a generic
# instantiation's [...] may nest and hold spaces.
for bin in "$tmp"/bin/*; do go tool nm "$bin"; done |
  sed -n -E 's|^ *[0-9a-f]* [A-Za-z] repro/internal/||p' |
  sed -E -e ':a' -e 's/\[[^][]*\]//' -e 'ta' -e 's/[()*]//g' \
    -e 's/-fm$//' -e 's/(\.(func|gowrap|deferwrap)[0-9]+|\.[0-9]+)+$//' |
  sort -u > "$tmp/linked"

# func (r *T[K]) M(...) -> pkg.T.M; func F(...) -> pkg.F
for pkg in $(go list ./internal/...); do
  go doc -all -u "$pkg" |
    sed -n -E 's/^func (\([^)]*\) )?([A-Za-z0-9_]+).*/\1\2/p' |
    sed -E -e 's/\[[^]]*\]//g' -e 's/^\((.* )?\*?([A-Za-z0-9_]+)\) /\2./' |
    sed "s|^|${pkg#repro/internal/}.|"
done | sort -u > "$tmp/declared"

comm -23 "$tmp/declared" "$tmp/linked"
