#!/bin/sh
# cli-smoke: run the three one-shot commands end to end on the
# synthetic demo corpus. blogscope runs on both index backends (their
# reports must match), blogstable reports bursts and saves its cluster
# sets, a second blogstable run loads those sets back (the
# FromClusterSets path) and must print the same graph and stable
# clusters, further blogstable runs drive its query and cluster flags
# (-normalized, -lmin, -k, -l, -algorithm, -rho, -mincluster, -raw),
# and experiments lists its ids. Every run must exit 0 and print its
# headline line, except six that must fail: -normalized -algorithm
# dfs, a query no solver answers; -clusters with -intervals, a corpus
# flag a saved-clusters session has no corpus for (the message must
# name -intervals); -index-compact-after, a flag only blogserved, the
# one command that takes pushes, installs; -indexfile twice, where
# its path would be ignored (blogscope on -index mem) or shared by
# every shard's segment (blogserved -shard-count), each message naming
# -indexfile; and a blogserved -shards coordinator given -index and
# -indexfile, which it has no corpus for (the message must name both). `make cli-smoke` runs this; CI's examples job runs that
# target.
set -eu

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() {
	echo "cli-smoke: FAIL: $1" >&2
	exit 1
}

# expect FILE NEEDLE: FILE holds a line starting with NEEDLE.
expect() {
	grep -q "^$2" "$1" || { cat "$1" >&2; fail "$1: no line starting with $2"; }
}

echo "cli-smoke: building commands"
for cmd in blogscope blogstable blogserved experiments; do
	go build -o "$TMP/$cmd" "./cmd/$cmd"
done

for backend in mem disk; do
	"$TMP/blogscope" -demo -query somalia -index "$backend" >"$TMP/scope-$backend.txt" ||
		fail "blogscope -index $backend exited $?"
	expect "$TMP/scope-$backend.txt" 'query "somalia"'
	expect "$TMP/scope-$backend.txt" 'keyword cluster at t'
done
cmp -s "$TMP/scope-mem.txt" "$TMP/scope-disk.txt" || fail "blogscope reports differ between -index mem and -index disk"
# expect_indexfile_rejected NAME CMD...: CMD exits non-zero naming
# -indexfile. The timeout bounds a blogserved that would start serving.
expect_indexfile_rejected() {
	name="$1"
	shift
	if timeout 60 "$@" >"$TMP/indexfile.txt" 2>&1; then
		fail "$name -indexfile exited 0"
	fi
	grep -q -- '-indexfile' "$TMP/indexfile.txt" ||
		{ cat "$TMP/indexfile.txt" >&2; fail "$name -indexfile failed without naming -indexfile"; }
}
expect_indexfile_rejected "blogscope -index mem" \
	"$TMP/blogscope" -demo -index mem -indexfile "$TMP/x.seg" -query somalia
expect_indexfile_rejected "blogserved -shard-count" \
	"$TMP/blogserved" -demo -index disk -indexfile "$TMP/sh.seg" -shard-count 2 -addr 127.0.0.1:0
# A -shards coordinator loads no corpus, so its index flags configure
# nothing: it must refuse them, naming each, before it starts serving.
if timeout 60 "$TMP/blogserved" -shards 127.0.0.1:9 -index disk -indexfile "$TMP/y.seg" -addr 127.0.0.1:0 >"$TMP/coord.txt" 2>&1; then
	fail "blogserved -shards -index exited 0"
fi
for f in -index -indexfile; do
	grep -qE -- "${f}(,|\$)" "$TMP/coord.txt" ||
		{ cat "$TMP/coord.txt" >&2; fail "blogserved -shards failed without naming $f"; }
done
echo "cli-smoke: blogscope ok (mem, disk)"

"$TMP/blogstable" -demo -quiet -bursts somalia -saveclusters "$TMP/sets.jsonl" >"$TMP/stable.txt" ||
	fail "blogstable -demo exited $?"
expect "$TMP/stable.txt" 'corpus: '
expect "$TMP/stable.txt" 'bursts "somalia"'
expect "$TMP/stable.txt" 'top 5 stable clusters'
"$TMP/blogstable" -quiet -clusters "$TMP/sets.jsonl" >"$TMP/loaded.txt" ||
	fail "blogstable -clusters exited $?"
expect "$TMP/loaded.txt" 'top 5 stable clusters'
sed -n '/^cluster graph:/,$p' "$TMP/stable.txt" >"$TMP/stable-tail.txt"
sed -n '/^cluster graph:/,$p' "$TMP/loaded.txt" >"$TMP/loaded-tail.txt"
cmp -s "$TMP/stable-tail.txt" "$TMP/loaded-tail.txt" ||
	fail "blogstable over saved clusters differs from the run that saved them"
if "$TMP/blogstable" -quiet -clusters "$TMP/sets.jsonl" -intervals 1:3 >"$TMP/ignored.txt" 2>&1; then
	fail "blogstable -clusters -intervals exited 0; a saved-clusters session has no corpus to slice"
fi
grep -q -- '-intervals' "$TMP/ignored.txt" ||
	{ cat "$TMP/ignored.txt" >&2; fail "blogstable -clusters -intervals failed without naming -intervals"; }
echo "cli-smoke: blogstable ok (demo, saved-clusters round trip, a rejected corpus flag)"

"$TMP/blogstable" -demo -quiet -normalized -lmin 2 -k 3 >"$TMP/normalized.txt" ||
	fail "blogstable -normalized exited $?"
expect "$TMP/normalized.txt" 'top 3 normalized stable clusters (lmin=2)'
"$TMP/blogstable" -demo -quiet -algorithm dfs -k 3 -l 2 -rho 0.25 -mincluster 3 >"$TMP/dfs.txt" ||
	fail "blogstable -algorithm dfs exited $?"
expect "$TMP/dfs.txt" 'top 3 stable clusters (dfs)'
if "$TMP/blogstable" -demo -quiet -normalized -algorithm dfs >"$TMP/mismatch.txt" 2>&1; then
	fail "blogstable -normalized -algorithm dfs exited 0; dfs does not answer normalized queries"
fi
grep -q 'does not answer normalized queries' "$TMP/mismatch.txt" ||
	{ cat "$TMP/mismatch.txt" >&2; fail "blogstable -normalized -algorithm dfs failed for another reason"; }
"$TMP/blogstable" -demo -quiet -raw >"$TMP/raw.txt" || fail "blogstable -raw exited $?"
expect "$TMP/raw.txt" 'top 5 stable clusters'
if "$TMP/blogstable" -demo -quiet -index-compact-after 1 >"$TMP/compact.txt" 2>&1; then
	fail "blogstable -index-compact-after exited 0; only blogserved takes pushes to compact"
fi
echo "cli-smoke: blogstable ok (-normalized, -algorithm dfs, a rejected mismatch, -raw, no -index-compact-after)"

"$TMP/experiments" -list >"$TMP/list.txt" || fail "experiments -list exited $?"
expect "$TMP/list.txt" 'table1'
echo "cli-smoke: experiments ok"
echo "cli-smoke: PASS"
