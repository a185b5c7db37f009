package seqdb

import (
	"testing"

	"repro/internal/proteome"
)

func testUniverse() *proteome.Universe { return proteome.NewUniverse(1, 32, 60, 180) }

func TestBuildDeterminismAndValidity(t *testing.T) {
	u := testUniverse()
	spec := BuildSpec{Name: "t", EntriesPerFamily: 5, MinDivergence: 0.05, MaxDivergence: 0.5, DuplicateFrac: 0.5}
	a := Build(u, spec, 3)
	b := Build(u, spec, 3)
	if len(a.Entries) != len(b.Entries) {
		t.Fatal("same-seed builds differ in size")
	}
	for i := range a.Entries {
		if a.Entries[i].Seq.Residues != b.Entries[i].Seq.Residues {
			t.Fatalf("entry %d differs across same-seed builds", i)
		}
		if err := a.Entries[i].Seq.Validate(); err != nil {
			t.Fatalf("entry %d invalid: %v", i, err)
		}
	}
	wantBase := 32 * 5
	wantTotal := wantBase + wantBase/2
	if len(a.Entries) != wantTotal {
		t.Errorf("entries = %d, want %d", len(a.Entries), wantTotal)
	}
}

func TestStandardLibrariesShape(t *testing.T) {
	u := testUniverse()
	libs := StandardLibraries(u, 7)
	for _, name := range []string{"uniref90", "bfd", "mgnify", "pdb_seqres"} {
		if libs[name] == nil {
			t.Fatalf("missing library %s", name)
		}
	}
	if len(libs["bfd"].Entries) <= len(libs["uniref90"].Entries) {
		t.Error("BFD must dominate uniref90 in size")
	}
	if len(libs["pdb_seqres"].Entries) >= len(libs["uniref90"].Entries) {
		t.Error("pdb_seqres must be the smallest")
	}
}

func TestKmerIndexFindsHomologs(t *testing.T) {
	u := testUniverse()
	lib := Build(u, BuildSpec{Name: "t", EntriesPerFamily: 8, MinDivergence: 0.05, MaxDivergence: 0.3}, 5)
	idx := NewKmerIndex(lib, 4)

	// Query with the ancestor of family 0: top hits must be family 0.
	hits := idx.Query(u.Domains[0], 3)
	if len(hits) == 0 {
		t.Fatal("no hits for a family ancestor")
	}
	top := hits[0]
	if lib.Entries[top.Entry].Family != 0 {
		t.Errorf("top hit family = %d, want 0", lib.Entries[top.Entry].Family)
	}
	// Hits must be sorted by descending shared count.
	for i := 1; i < len(hits); i++ {
		if hits[i].Shared > hits[i-1].Shared {
			t.Fatal("hits not sorted by shared count")
		}
	}
}

func TestKmerIndexMinShared(t *testing.T) {
	u := testUniverse()
	lib := Build(u, BuildSpec{Name: "t", EntriesPerFamily: 4, MinDivergence: 0.1, MaxDivergence: 0.4}, 6)
	idx := NewKmerIndex(lib, 4)
	loose := idx.Query(u.Domains[1], 1)
	strict := idx.Query(u.Domains[1], 10)
	if len(strict) > len(loose) {
		t.Error("higher minShared returned more hits")
	}
	for _, h := range strict {
		if h.Shared < 10 {
			t.Errorf("hit with shared=%d below threshold", h.Shared)
		}
	}
}

func TestKmerIndexRejectsBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=1")
		}
	}()
	NewKmerIndex(&Library{}, 1)
}
