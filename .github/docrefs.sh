#!/usr/bin/env bash
# Checks that the documents' cross-references resolve, from the root of a
# checkout:
#
#   bash .github/docrefs.sh
#
# A `DESIGN §N` or `DESIGN.md §N` in a Go file, README.md, ROADMAP.md,
# EXPERIMENTS.md or the verify skill must name a `## N.` heading of
# DESIGN.md, and an `EXPERIMENTS "…"` quote in those files or DESIGN.md must
# begin a heading of EXPERIMENTS.md (a heading's leading number ignored).
# CHANGES.md is history and is not checked. Prints each reference that does
# not resolve and exits 1 if there is one.
set -euo pipefail
skill=.claude/skills/verify/SKILL.md
mapfile -t files < <(git ls-files '*.go' README.md ROADMAP.md EXPERIMENTS.md "$skill")
bad=0

while IFS=: read -r file line ref; do
	n=${ref##*§}
	if ! grep -q "^## $n\. " DESIGN.md; then
		echo "$file:$line: $ref: DESIGN.md has no heading \"## $n.\""
		bad=1
	fi
done < <(grep -noE 'DESIGN(\.md)? §[0-9]+' "${files[@]}" || true)

headings=$(sed -nE 's/^#+ +([0-9]+\.[0-9.]* +)?//p' EXPERIMENTS.md)
while IFS=: read -r file line ref; do
	quote=${ref#*\"}
	quote=${quote%\"}
	if ! awk -v q="$quote" 'index($0, q) == 1 { found = 1 } END { exit !found }' <<<"$headings"; then
		echo "$file:$line: $ref: EXPERIMENTS.md has no heading that begins so"
		bad=1
	fi
done < <(grep -noE 'EXPERIMENTS(\.md)? "[^"]+"' "${files[@]}" DESIGN.md || true)

exit "$bad"
