#!/bin/sh
# cli-smoke: run the three one-shot commands end to end on the
# synthetic demo corpus. blogscope runs on both index backends (their
# reports must match), blogstable reports bursts and saves its cluster
# sets, a second blogstable run loads those sets back (the
# FromClusterSets path) and must print the same graph and stable
# clusters, and experiments lists its ids. Every run must exit 0 and
# print its headline line. `make cli-smoke` runs this; CI's examples
# job runs that target.
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
for cmd in blogscope blogstable experiments; do
	go build -o "$TMP/$cmd" "./cmd/$cmd"
done

for backend in mem disk; do
	"$TMP/blogscope" -demo -query somalia -index "$backend" >"$TMP/scope-$backend.txt" ||
		fail "blogscope -index $backend exited $?"
	expect "$TMP/scope-$backend.txt" 'query "somalia"'
	expect "$TMP/scope-$backend.txt" 'keyword cluster at t'
done
cmp -s "$TMP/scope-mem.txt" "$TMP/scope-disk.txt" || fail "blogscope reports differ between -index mem and -index disk"
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
echo "cli-smoke: blogstable ok (demo, saved-clusters round trip)"

"$TMP/experiments" -list >"$TMP/list.txt" || fail "experiments -list exited $?"
expect "$TMP/list.txt" 'table1'
echo "cli-smoke: experiments ok"
echo "cli-smoke: PASS"
