#!/usr/bin/env bash
# loc.sh — line counts of the module's Go code outside bench/, split into
# production files and _test.go files. It counts the working-tree copy of
# every Go file that git tracks or would add (untracked and not ignored).
#
#   scripts/loc.sh          # lines per class
#   scripts/loc.sh BASE     # also the lines added and removed per class
#                           # since the commit BASE, and their net
#
# The net-LOC line each change records in CHANGES.md is this script's
# output against the change's parent commit.
set -euo pipefail

cd "$(dirname "$0")/.."

base=${1:-}
spec=('*.go' ':(exclude)bench/')
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# class names a Go file's class from its path.
classify='function class(path) { return path ~ /_test\.go$/ ? "test" : "production" }'

# Lines per class: every tracked or addable Go file still on disk.
git ls-files --cached --others --exclude-standard -- "${spec[@]}" |
	while IFS= read -r f; do
		if [ -f "$f" ]; then
			printf '%s\t%s\n' "$(wc -l <"$f")" "$f"
		fi
	done >"$tmp/lines"

if [ -z "$base" ]; then
	awk -F'\t' "$classify"'
		{ n[class($2)] += $1 }
		END {
			printf "%-11s %7s\n", "class", "lines"
			printf "%-11s %7d\n", "production", n["production"]
			printf "%-11s %7d\n", "test", n["test"]
		}' "$tmp/lines"
	exit 0
fi

git rev-parse --verify --quiet "$base^{commit}" >/dev/null ||
	{ echo "loc.sh: unknown commit $base" >&2; exit 2; }

# Lines added and removed since BASE: tracked files from git diff (working
# tree against BASE, renames as a delete and an add), untracked ones whole.
{
	git diff --numstat --no-renames "$base" -- "${spec[@]}"
	git ls-files --others --exclude-standard -- "${spec[@]}" |
		while IFS= read -r f; do
			printf '%s\t0\t%s\n' "$(wc -l <"$f")" "$f"
		done
} >"$tmp/diff"

awk -F'\t' "$classify"'
	FILENAME == ARGV[1] { n[class($2)] += $1; next }
	{ add[class($3)] += $1; del[class($3)] += $2 }
	END {
		printf "%-11s %7s %7s %7s %7s\n", "class", "lines", "added", "removed", "net"
		split("production test", cs, " ")
		for (i = 1; i <= 2; i++) {
			c = cs[i]
			printf "%-11s %7d %+7d %7d %+7d\n", c, n[c], add[c], -del[c], add[c] - del[c]
		}
	}' "$tmp/lines" "$tmp/diff"
