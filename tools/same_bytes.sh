#!/usr/bin/env bash
# Compare the README tour of git revision REV with that of the working tree:
# every file written, and every command's stdout, stderr and exit code, as
# logged by tools/readme_tour.sh (run from the working tree on both, at N
# points per class, default 500).
#
#   tools/same_bytes.sh REV [N]
#
# REV's tree is exported with `git archive` into a `mktemp -d` directory (no
# worktree, so .git is untouched), and each tour runs into a fresh directory
# there, removed on exit.  Exits with the status of `diff -r` over the two
# tour directories: 0 only when everything matches, 1 when anything differs
# (the differences go to stdout), 2 when REV cannot be exported or a tour
# cannot start.  Set PYTHON to choose the interpreter.
set -u -o pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 REV [N]" >&2
    exit 2
fi
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel) || exit 2
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev"
git -C "$repo" archive "$1" | tar -x -C "$tmp/rev" || exit 2
"$repo/tools/readme_tour.sh" "$tmp/rev" "$tmp/tour_rev" ${2:+"$2"} >/dev/null || exit 2
"$repo/tools/readme_tour.sh" "$repo" "$tmp/tour_work" ${2:+"$2"} >/dev/null || exit 2
diff -r "$tmp/tour_rev" "$tmp/tour_work"
