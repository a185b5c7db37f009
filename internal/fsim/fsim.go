// Package fsim models the shared parallel filesystem behaviour that drove
// the paper's database-replication design (Section 3.2.1): HHblits-style
// searches issue many small reads, so metadata-server traffic — not
// bandwidth — becomes the bottleneck when many jobs hit one copy of the
// sequence libraries. The paper's mitigation is 24 identical copies of the
// reduced libraries with 4 concurrent jobs per copy, created with
// mpiFileUtils.
//
// The model is a queueing one: each database copy is served by a metadata
// path with a fixed operation rate; concurrent readers of the same copy
// share that rate, so per-job search time inflates with contention. Copying
// databases costs time proportional to bytes, which is why the *reduced*
// dataset (420 GB vs 2.1 TB) matters for replication cost too.
package fsim

import "fmt"

// Filesystem describes the shared parallel filesystem.
type Filesystem struct {
	// MetaOpsPerSec is the metadata-operation throughput of one database
	// copy's serving path.
	MetaOpsPerSec float64
	// CopyBandwidthGBps is the aggregate bandwidth available to replicate a
	// database (mpiFileUtils parallel copy).
	CopyBandwidthGBps float64
}

// DefaultFilesystem returns constants calibrated to Alpine/Spider-class
// behaviour: ~20k metadata ops/s per serving path and ~50 GB/s aggregate
// parallel-copy bandwidth.
func DefaultFilesystem() Filesystem {
	return Filesystem{MetaOpsPerSec: 20000, CopyBandwidthGBps: 50}
}

// Database is a replicated dataset on the filesystem.
type Database struct {
	Name      string
	SizeBytes int64
	// MetaOpsPerSearch is how many metadata operations one sequence search
	// issues against the database (file opens, stats, seeks); HH-suite-like
	// searches issue a lot of them.
	MetaOpsPerSearch float64
}

// ReplicaLayout is a replication decision: how many copies exist and how
// many concurrent jobs each copy serves.
type ReplicaLayout struct {
	Copies      int
	JobsPerCopy int
}

// Validate rejects nonsensical layouts.
func (l ReplicaLayout) Validate() error {
	if l.Copies <= 0 {
		return fmt.Errorf("fsim: layout needs at least one copy")
	}
	if l.JobsPerCopy <= 0 {
		return fmt.Errorf("fsim: layout needs at least one job per copy")
	}
	return nil
}

// MaxConcurrency is the number of search jobs the layout can serve at once.
func (l ReplicaLayout) MaxConcurrency() int { return l.Copies * l.JobsPerCopy }

// ReplicationTime returns the seconds needed to create the layout's copies
// with a parallel copy tool. The first copy is the original and is free;
// each additional copy moves SizeBytes.
func (fs Filesystem) ReplicationTime(db Database, l ReplicaLayout) (float64, error) {
	if err := l.Validate(); err != nil {
		return 0, err
	}
	extra := float64(l.Copies-1) * float64(db.SizeBytes)
	return extra / (fs.CopyBandwidthGBps * 1e9), nil
}

// SearchTime returns the wall seconds of one database search when
// `concurrent` jobs share the same copy. baseSeconds is the search's pure
// compute time. Metadata service is modeled as a processor-sharing queue:
// effective ops rate per job = MetaOpsPerSec / concurrent, and the search's
// metadata phase (MetaOpsPerSearch ops) stretches accordingly.
func (fs Filesystem) SearchTime(db Database, baseSeconds float64, concurrent int) (float64, error) {
	if concurrent <= 0 {
		return 0, fmt.Errorf("fsim: concurrency must be positive")
	}
	if baseSeconds < 0 {
		return 0, fmt.Errorf("fsim: negative base time")
	}
	metaTime := db.MetaOpsPerSearch * float64(concurrent) / fs.MetaOpsPerSec
	return baseSeconds + metaTime, nil
}
