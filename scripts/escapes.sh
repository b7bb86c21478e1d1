#!/bin/sh
# escapes.sh prints the compiler's escape-analysis inventory of the
# serve-path packages: one sorted line per (file, escaping expression) with
# the number of sites that share it. Sites are keyed by file and
# expression, not by line:column, so code that merely moves within a file
# is an empty diff. ESCAPES_baseline.txt is this script's committed
# output; the nightly workflow diffs a fresh run against it so a new
# allocation on the serve path shows up as a reviewable one-line diff, not
# a silent regression the next profile has to rediscover. Sites inside
# instantiated standard-library generics (slices.Grow, ...) print under
# GOROOT's own path, which differs from host to host, and are left out.
#
# Regenerate the baseline after a deliberate change:
#
#	./scripts/escapes.sh > ESCAPES_baseline.txt
set -e
export LC_ALL=C
cd "$(dirname "$0")/.."
for pkg in internal/state internal/access internal/algo internal/opt internal/sqlq internal/score internal/kit internal/obs internal/share internal/cluster internal/store internal/websim internal/service .; do
	go build -gcflags='-m -m' "./$pkg" 2>&1 |
		grep -E 'escapes to heap$|moved to heap' |
		grep -v '^/' |
		sed "s|^\./|$pkg/|"
done | sed 's|^\./||' | sort -u |
	sed -e 's|:[0-9][0-9]*:[0-9][0-9]*: |: |' -e 's|:[0-9][0-9]*: |: |' | sort | uniq -c | sed 's|^ *||'
