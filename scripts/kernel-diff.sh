#!/usr/bin/env bash
# kernel-diff.sh REV — are the tile kernels of the working tree and of
# git revision REV identical, output for output?
#
# Stages `git archive REV` under .bench_build/kernel-diff/, replaces its
# internal/align tests with this tree's kernel_digest_test.go, builds a
# test binary on each side and compares their TestKernelDigest batch
# digests. On a difference it reruns the first differing batch on both
# sides tile by tile and prints the first differing tile as a Go test
# case: paste it into internal/align; it passes on REV's kernels and
# fails on the tree's. Run as `make kernel-diff REV=<rev>`; exits 1 on a
# difference.
set -euo pipefail

rev=${1:?usage: kernel-diff.sh REV}
root=$(git rev-parse --show-toplevel)
stage=$root/.bench_build/kernel-diff
digest=internal/align/kernel_digest_test.go

rm -rf "$stage"
mkdir -p "$stage/src"
# Only the binaries and their outputs stay: a second source tree in the
# checkout would trip the grep guards of `make check-once`.
trap 'rm -rf "$stage/src"' EXIT
git -C "$root" archive "$rev" | tar -x -C "$stage/src"
rm -f "$stage/src/internal/align/"*_test.go
cp "$root/$digest" "$stage/src/$digest"
(cd "$stage/src" && go test -c -o "$stage/rev.test" ./internal/align)
(cd "$root" && go test -c -o "$stage/tree.test" ./internal/align)

run() {
	"$stage/$1.test" -test.run '^TestKernelDigest$' "${@:2}" >"$stage/$1.log" ||
		{ cat "$stage/$1.log"; return 1; }
}
run rev -kernel.digests "$stage/rev.digests"
run tree -kernel.digests "$stage/tree.digests"
if cmp -s "$stage/rev.digests" "$stage/tree.digests"; then
	awk '{ n++; t += $2 } END { printf "kernel-diff: identical to '"$rev"': %d batches, %d tiles\n", n, t }' \
		"$stage/tree.digests"
	exit 0
fi

batch=$(paste -d '\n' "$stage/rev.digests" "$stage/tree.digests" |
	awk 'NR % 2 { a = $0; next } $0 != a { split(a, f, " "); print f[1]; exit }')
run rev -kernel.batch "$batch" -kernel.tiles "$stage/rev.tiles"
run tree -kernel.batch "$batch" -kernel.tiles "$stage/tree.tiles"
paste -d '\n' "$stage/rev.tiles" "$stage/tree.tiles" | awk -F '\t' -v batch="$batch" -v rev="$rev" '
	NR % 2 { tile = $1; want = $2; next }
	$2 != want {
		n = (NR / 2) - 1
		printf "kernel-diff: batch %d differs from %s; first differing tile is %d:\n\n", batch, rev, n
		printf "// Tile %d of batch %d of TestKernelDigest'"'"'s stream. The kernels at %s give\n", n, batch, rev
		printf "// the want below; the working tree gives\n// %s\n", $2
		printf "func TestKernelDiffBatch%dTile%d(t *testing.T) {\n", batch, n
		printf "\tcheckKernelTile(t, %s,\n\t\t\"%s\")\n}\n", tile, want
		found = 1
		exit
	}
	END { if (!found) print "kernel-diff: batch " batch " differs, yet no tile of it does when rerun (nondeterminism?)" }'
exit 1
