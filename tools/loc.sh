#!/usr/bin/env bash
# Code lines of the Rust sources: everything above a file's
# `mod tests {`, minus blank lines and `//` comment lines (doc comments
# included). An out-of-line test module (`mod tests;` in `tests.rs`, its
# own submodules under `tests/`) is all test and counts nothing. Prints one row per crate plus `tests/`, `examples/` and
# the façade `src/`, then the total — the "net LOC" figure CHANGES.md
# reports per PR. With arguments, counts just those files or
# directories and prints one total:
#
#   tools/loc.sh                         # table for the whole repo
#   tools/loc.sh crates/jiajia/src       # one number
set -euo pipefail
cd "$(dirname "$0")/.."

code_lines() {
  # stdin: list of .rs paths, one per line.
  local total=0 n f
  while IFS= read -r f; do
    case "$f" in */tests.rs | */src/*/tests/*) continue ;; esac
    n=$(sed '/^mod tests {/,$d' "$f" | grep -cvE '^[[:space:]]*(//.*)?$' || true)
    total=$((total + n))
  done
  echo "$total"
}

rs_files() { find "$@" -name '*.rs' -not -path '*/target/*' | sort; }

if [ "$#" -gt 0 ]; then
  rs_files "$@" | code_lines
  exit 0
fi

total=0
row() {
  local n
  n=$(rs_files "$2" | code_lines)
  printf '%-28s %7d\n' "$1" "$n"
  total=$((total + n))
}
for dir in crates/*/ crates/shims/*/ tools/*/; do
  case "$dir" in crates/shims/) continue ;; esac
  [ -f "$dir/Cargo.toml" ] && row "${dir%/}" "$dir"
done
row tests tests
row examples examples
row src src
printf '%-28s %7d\n' total "$total"
