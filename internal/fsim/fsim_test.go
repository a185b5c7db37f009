package fsim

import (
	"math"
	"testing"
)

var (
	fs = DefaultFilesystem()
	// The reduced dataset of the paper: 420 GB.
	reducedDB = Database{Name: "reduced", SizeBytes: 420e9, MetaOpsPerSearch: 50000}
	// The full dataset: 2.1 TB.
	fullDB = Database{Name: "full", SizeBytes: 2100e9, MetaOpsPerSearch: 250000}
)

func TestLayoutValidate(t *testing.T) {
	if err := (ReplicaLayout{Copies: 24, JobsPerCopy: 4}).Validate(); err != nil {
		t.Errorf("paper layout invalid: %v", err)
	}
	if err := (ReplicaLayout{Copies: 0, JobsPerCopy: 4}).Validate(); err == nil {
		t.Error("zero copies accepted")
	}
	if err := (ReplicaLayout{Copies: 1, JobsPerCopy: 0}).Validate(); err == nil {
		t.Error("zero jobs per copy accepted")
	}
}

func TestReplicationScalesWithSizeAndCopies(t *testing.T) {
	l := ReplicaLayout{Copies: 24, JobsPerCopy: 4}
	tr, err := fs.ReplicationTime(reducedDB, l)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := fs.ReplicationTime(fullDB, l)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := tf / tr; math.Abs(ratio-5) > 0.01 {
		t.Errorf("full/reduced replication ratio = %v, want 5 (2.1 TB / 420 GB)", ratio)
	}
	one, err := fs.ReplicationTime(reducedDB, ReplicaLayout{Copies: 1, JobsPerCopy: 4})
	if err != nil {
		t.Fatal(err)
	}
	if one != 0 {
		t.Errorf("single copy (the original) should be free, got %v", one)
	}
}

func TestSearchTimeContentions(t *testing.T) {
	// More concurrent readers on one copy → slower searches.
	t1, err := fs.SearchTime(reducedDB, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	t4, err := fs.SearchTime(reducedDB, 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	t96, err := fs.SearchTime(reducedDB, 60, 96)
	if err != nil {
		t.Fatal(err)
	}
	if !(t1 < t4 && t4 < t96) {
		t.Errorf("contention not monotone: %v, %v, %v", t1, t4, t96)
	}
	// At the paper's operating point (4 jobs/copy) metadata overhead must
	// be modest; with all 96 jobs on one copy it must dominate.
	if t4 > 1.5*t1 {
		t.Errorf("4-way contention %v too harsh vs %v", t4, t1)
	}
	if t96 < 3*t1 {
		t.Errorf("96-way contention %v too mild vs %v", t96, t1)
	}
}

func TestSearchTimeValidation(t *testing.T) {
	if _, err := fs.SearchTime(reducedDB, 60, 0); err == nil {
		t.Error("zero concurrency accepted")
	}
	if _, err := fs.SearchTime(reducedDB, -1, 1); err == nil {
		t.Error("negative base time accepted")
	}
}

func TestReducedVsFullSearchCost(t *testing.T) {
	// Full dataset issues ~5x the metadata ops; under contention the
	// reduced dataset's advantage compounds — the Section 4.1 rationale.
	rf, err := fs.SearchTime(fullDB, 120, 4)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := fs.SearchTime(reducedDB, 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rf <= rr {
		t.Errorf("full-dataset search (%v) should cost more than reduced (%v)", rf, rr)
	}
}
