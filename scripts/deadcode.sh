#!/usr/bin/env bash
# deadcode.sh lists the non-test functions under internal/ that no program
# links, and fails on any that is not on the keep-list below.
#
# Everything under internal/ can only be called by the nine programs
# (cmd/proteomectl, cmd/afbench, cmd/benchguard, the five examples/*, and
# the bench module), so a declared function none of them links is dead.
# The scan builds every main without inlining, collects the linked text
# symbols under repro/, and compares them with the declared non-test
# functions, both written as repro/internal/pkg.Type.Method.
#
# Run from anywhere inside the repository:
#
#	scripts/deadcode.sh
#
# It prints every unlinked name, then exits non-zero if one is not on the
# keep-list, or if a keep-list name is linked again or no longer exists
# (the list must say what is true today).
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"

# name<TAB>why it stays although no program links it
keep=$(cat <<'EOF'
repro/internal/seq.ReadFASTA	test oracle: proteomectl and seq tests parse the FASTA the generator writes
repro/internal/pdb.Read	test oracle: pdb tests round-trip pdb.Write through it
repro/internal/geom.RMSD	test oracle: geom and relax tests compare coordinates with it
repro/internal/geom.SuperposedRMSD	test oracle: relax tests check a relaxed model stays on its input fold
repro/internal/geom.Mat3.Det	test oracle: geom tests check a superposition is a proper rotation
repro/internal/rng.Source.Perm	test helper: rng, fold and events tests draw shuffled orders from it
repro/internal/rng.Source.Split	test helper: rng tests check child streams are independent
repro/internal/experiments.Table1Result.Row	test helper: experiments tests read Table 1 rows by preset
repro/internal/flow.Worker.Processed	test helper: flow tests count what a worker ran
repro/internal/events.CheckFold	cross-package test helper: flow tests check fold invariants on a live scheduler's stream
repro/internal/events.Hub.Snapshot	cross-package test helper: flow and exec tests read a hub's history
EOF
)

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

go build -gcflags=all=-l -o "$out/bin/" ./cmd/... ./examples/...
go build -C bench -gcflags=all=-l -o "$out/bin/bench" .
# The sed steps strip generic instantiations ([go.shape…]), receiver
# parentheses, and closure and wrapper suffixes.
for f in "$out"/bin/*; do go tool nm "$f"; done |
	sed -nE 's/^ *[0-9a-f]+ T (repro\/.*)$/\1/p' |
	sed -E 's/\[.*\]\)\./)./; s/\[.*$//; s/\(\*?([^)]*)\)/\1/; s/\.func[0-9.]+$//; s/\.(gowrap|deferwrap)[0-9]+$//' |
	sort -u >"$out/linked"
git ls-files 'internal/*.go' | grep -v '_test\.go$' | xargs grep -nE '^func ' |
	sed -E 's#^(internal/[^:]*)/[^/:]+\.go:[0-9]+:#repro/\1 #' |
	sed -E 's/^(\S+) func \(([A-Za-z0-9_]+ )?\*?([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*/\1.\3.\5/; s/^(\S+) func ([A-Za-z0-9_]+).*/\1.\2/' |
	sort -u >"$out/declared"

comm -23 "$out/declared" "$out/linked" >"$out/unlinked"
cut -f1 <<<"$keep" | sort -u >"$out/keep"
cat "$out/unlinked"

status=0
while read -r name; do
	echo "deadcode: $name is linked by no program and not on the keep-list: delete it, or keep it with a reason" >&2
	status=1
done < <(comm -23 "$out/unlinked" "$out/keep")
while read -r name; do
	echo "deadcode: keep-list name $name is linked or gone: take it off the list" >&2
	status=1
done < <(comm -13 "$out/unlinked" "$out/keep")
exit $status
