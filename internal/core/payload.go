package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"repro/internal/bin"
)

// The byte layouts of the campaign kernels' specs and results. A spec or
// result crosses the wire as a flow task or result payload; a remote
// stage encodes specs through AppendBinary and decodes results through
// UnmarshalBinary, and a kernel does the reverse. Each layout is
// positional: u64 is encoding/binary's uvarint and int its zig-zag
// varint; internal/bin writes f64 as the IEEE-754 bits in 8 little-endian
// bytes, str as a uvarint length and the bytes, and bool as one byte:
//
//	FeatureSpec       u64 Seed · str Species · str ID · f64 Accel ·
//	                  int JobsPerCopy · f64 FS.MetaOpsPerSec ·
//	                  f64 FS.CopyBandwidthGBps · str DB.Name ·
//	                  int DB.SizeBytes · f64 DB.MetaOpsPerSearch
//	InferSpec         u64 Seed · str Species · str ID · int Model ·
//	                  preset · f64 NodeMemGB
//	  preset          str Name · int Ensembles · int MaxRecycles ·
//	                  int MinRecyclesLong · bool Dynamic · f64 Tol ·
//	                  int MinRecycles
//	RelaxSpec         int Length · int Platform
//	PredictionDigest  tag byte: 0 = OOM (nothing follows), 1 = digest:
//	                  int Model · int Recycles · bool Converged ·
//	                  f64 MeanPLDDT · f64 PTMS · f64 FracAbove70 ·
//	                  f64 FracAbove90 · f64 GPUSeconds · f64 PeakMemGB
//	Seconds           the float as JSON text: exactly the bytes
//	                  json.Marshal writes for it
//	FeatureOut        its Seconds field, in the layout of Seconds
//
// Every decoder accepts exactly the bytes its encoder writes: decoding and
// re-encoding any accepted input gives the input back (FuzzKernelPayload).
// A layout change must bump that kernel's epoch in remote.go
// (TestKernelPayloadGolden in internal/experiments pins one spec and one
// result per kernel).

// Upper bounds of an encoded result, so a kernel encodes into one
// allocation.
const (
	// DigestMaxLen bounds an encoded PredictionDigest: a tag, two varints
	// of at most 10 bytes, a bool and six 8-byte floats.
	DigestMaxLen = 1 + 2*10 + 1 + 6*8
	// SecondsMaxLen bounds an encoded Seconds (the longest float64 JSON
	// text is 24 bytes).
	SecondsMaxLen = 32
)

const (
	digestOOM = 0
	digestOK  = 1
)

// AppendBinary appends the spec's layout to b.
func (s FeatureSpec) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendUvarint(b, s.Seed)
	b = bin.AppendString(b, s.Species)
	b = bin.AppendString(b, s.ID)
	b = bin.AppendFloat64(b, s.Accel)
	b = binary.AppendVarint(b, int64(s.JobsPerCopy))
	b = bin.AppendFloat64(b, s.FS.MetaOpsPerSec)
	b = bin.AppendFloat64(b, s.FS.CopyBandwidthGBps)
	b = bin.AppendString(b, s.DB.Name)
	b = binary.AppendVarint(b, s.DB.SizeBytes)
	b = bin.AppendFloat64(b, s.DB.MetaOpsPerSearch)
	return b, nil
}

// UnmarshalBinary decodes a spec written by AppendBinary.
func (s *FeatureSpec) UnmarshalBinary(p []byte) error {
	r := bin.NewReader(p, "core: feature spec")
	*s = FeatureSpec{
		Seed:        r.Uvarint("seed"),
		Species:     r.String("species"),
		ID:          r.String("id"),
		Accel:       r.Float64("accel"),
		JobsPerCopy: r.Int("jobs_per_copy"),
	}
	s.FS.MetaOpsPerSec = r.Float64("fs meta_ops_per_sec")
	s.FS.CopyBandwidthGBps = r.Float64("fs copy_bandwidth")
	s.DB.Name = r.String("db name")
	s.DB.SizeBytes = r.Varint("db size_bytes")
	s.DB.MetaOpsPerSearch = r.Float64("db meta_ops_per_search")
	return r.End()
}

// AppendBinary appends the spec's layout to b.
func (s InferSpec) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendUvarint(b, s.Seed)
	b = bin.AppendString(b, s.Species)
	b = bin.AppendString(b, s.ID)
	b = binary.AppendVarint(b, int64(s.Model))
	p := &s.Preset
	b = bin.AppendString(b, p.Name)
	b = binary.AppendVarint(b, int64(p.Ensembles))
	b = binary.AppendVarint(b, int64(p.MaxRecycles))
	b = binary.AppendVarint(b, int64(p.MinRecyclesLong))
	b = bin.AppendBool(b, p.Dynamic)
	b = bin.AppendFloat64(b, p.Tol)
	b = binary.AppendVarint(b, int64(p.MinRecycles))
	b = bin.AppendFloat64(b, s.NodeMemGB)
	return b, nil
}

// UnmarshalBinary decodes a spec written by AppendBinary.
func (s *InferSpec) UnmarshalBinary(data []byte) error {
	r := bin.NewReader(data, "core: infer spec")
	*s = InferSpec{
		Seed:    r.Uvarint("seed"),
		Species: r.String("species"),
		ID:      r.String("id"),
		Model:   r.Int("model"),
	}
	p := &s.Preset
	p.Name = r.String("preset name")
	p.Ensembles = r.Int("preset ensembles")
	p.MaxRecycles = r.Int("preset max_recycles")
	p.MinRecyclesLong = r.Int("preset min_recycles_long")
	p.Dynamic = r.Bool("preset dynamic")
	p.Tol = r.Float64("preset tol")
	p.MinRecycles = r.Int("preset min_recycles")
	s.NodeMemGB = r.Float64("node_mem_gb")
	return r.End()
}

// AppendBinary appends the spec's layout to b.
func (s RelaxSpec) AppendBinary(b []byte) ([]byte, error) {
	b = binary.AppendVarint(b, int64(s.Length))
	return binary.AppendVarint(b, int64(s.Platform)), nil
}

// UnmarshalBinary decodes a spec written by AppendBinary.
func (s *RelaxSpec) UnmarshalBinary(data []byte) error {
	r := bin.NewReader(data, "core: relax spec")
	s.Length = r.Int("length")
	s.Platform = r.Int("platform")
	return r.End()
}

// AppendBinary appends the digest's layout to b: the OOM tag alone, or
// the digest tag and every field.
func (d PredictionDigest) AppendBinary(b []byte) ([]byte, error) {
	if d.OOM {
		return append(b, digestOOM), nil
	}
	b = append(b, digestOK)
	b = binary.AppendVarint(b, int64(d.Model))
	b = binary.AppendVarint(b, int64(d.Recycles))
	b = bin.AppendBool(b, d.Converged)
	b = bin.AppendFloat64(b, d.MeanPLDDT)
	b = bin.AppendFloat64(b, d.PTMS)
	b = bin.AppendFloat64(b, d.FracAbove70)
	b = bin.AppendFloat64(b, d.FracAbove90)
	b = bin.AppendFloat64(b, d.GPUSeconds)
	b = bin.AppendFloat64(b, d.PeakMemGB)
	return b, nil
}

// UnmarshalBinary decodes a digest written by AppendBinary.
func (d *PredictionDigest) UnmarshalBinary(data []byte) error {
	*d = PredictionDigest{}
	if len(data) == 0 || data[0] > digestOK {
		return fmt.Errorf("core: prediction digest: missing or unknown tag")
	}
	r := bin.NewReader(data[1:], "core: prediction digest")
	if data[0] == digestOOM {
		d.OOM = true
		return r.End()
	}
	d.Model = r.Int("model")
	d.Recycles = r.Int("recycles")
	d.Converged = r.Bool("converged")
	d.MeanPLDDT = r.Float64("mean_plddt")
	d.PTMS = r.Float64("ptms")
	d.FracAbove70 = r.Float64("frac_above_70")
	d.FracAbove90 = r.Float64("frac_above_90")
	d.GPUSeconds = r.Float64("gpu_seconds")
	d.PeakMemGB = r.Float64("peak_mem_gb")
	return r.End()
}

// Seconds is the relax kernel's result, and the layout of every float
// result: the number as JSON text, byte for byte what json.Marshal writes
// for a float64 (shortest round-trip digits; exponent form below 1e-6 and
// from 1e21, with no leading zero in the exponent), written with strconv.
type Seconds float64

// AppendBinary appends s as JSON number text. NaN and ±Inf have none, so
// they are errors, as they are for json.Marshal.
func (s Seconds) AppendBinary(b []byte) ([]byte, error) {
	f := float64(s)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("core: seconds %v has no JSON encoding", f)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// UnmarshalBinary decodes JSON number text written by AppendBinary, and
// only that: any other spelling of the same number is an error.
func (s *Seconds) UnmarshalBinary(data []byte) error {
	*s = 0
	if len(data) > SecondsMaxLen {
		return fmt.Errorf("core: seconds: %d bytes is no float's JSON text", len(data))
	}
	f, err := strconv.ParseFloat(string(data), 64)
	var buf [SecondsMaxLen]byte
	canon, cerr := Seconds(f).AppendBinary(buf[:0])
	if err != nil || cerr != nil || string(canon) != string(data) {
		return fmt.Errorf("core: seconds %q: not a float's JSON text", data)
	}
	*s = Seconds(f)
	return nil
}

// AppendBinary appends the feature result's layout: its seconds alone.
func (o FeatureOut) AppendBinary(b []byte) ([]byte, error) {
	return Seconds(o.Seconds).AppendBinary(b)
}

// UnmarshalBinary decodes a feature result; Features stays nil.
func (o *FeatureOut) UnmarshalBinary(data []byte) error {
	var s Seconds
	err := s.UnmarshalBinary(data)
	*o = FeatureOut{Seconds: float64(s)}
	return err
}
