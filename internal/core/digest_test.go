package core

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/fold"
)

// TestPredictionDigestRoundTrip: the digest must preserve every scalar a
// campaign consumes, so the predictions the inference stage rebuilds from
// it — and every reported number — equal the engine's.
func TestPredictionDigestRoundTrip(t *testing.T) {
	full := &fold.Prediction{
		ID: "DVU_00042", Model: 3, Length: 517,
		Recycles: 7, Converged: true,
		MeanPLDDT: 83.25, PTMS: 0.7921,
		FracAbove70: 0.8125, FracAbove90: 0.3175,
		GPUSeconds: 412.375, PeakMemGB: 9.5,
	}
	d := DigestPrediction(full)

	// The digest survives its wire trip exactly (floats travel as their
	// IEEE-754 bits).
	raw, err := d.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var decoded PredictionDigest
	if err := decoded.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if decoded != d {
		t.Fatalf("digest changed across its round trip: %+v != %+v", decoded, d)
	}

	got := decoded.Prediction(full.ID, full.Length)
	if !reflect.DeepEqual(&got, full) {
		t.Fatalf("reconstructed prediction differs:\ngot  %+v\nwant %+v", got, full)
	}

	// The digest is strictly smaller on the wire than the prediction it
	// summarises, and within the bound a kernel preallocates.
	fullRaw, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) >= len(fullRaw) || len(raw) > DigestMaxLen {
		t.Errorf("digest is %d bytes, full prediction %d (bound %d)", len(raw), len(fullRaw), DigestMaxLen)
	}
}

// TestPredictionDigestNull: the OOM outcome has its own tag, one byte with
// nothing after it, and decodes to a digest marked OOM, which routes the
// task to the high-memory retry wave. No payload at all is not an OOM but
// an error, and so is an unknown tag.
func TestPredictionDigestNull(t *testing.T) {
	raw, err := PredictionDigest{OOM: true}.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "\x00" {
		t.Fatalf("OOM digest encodes as %q", raw)
	}
	var decoded PredictionDigest
	if err := decoded.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if decoded != (PredictionDigest{OOM: true}) {
		t.Fatalf("OOM tag decoded to %+v", decoded)
	}
	for _, bad := range []string{"", "\x02", "\x00\x00", "null"} {
		if err := decoded.UnmarshalBinary([]byte(bad)); err == nil {
			t.Errorf("digest %q decoded to %+v", bad, decoded)
		}
	}
}

// TestSecondsMatchesJSON: a float result's bytes are exactly
// json.Marshal's for the same float64 — tiny and huge magnitudes (the
// exponent forms), integers, negative zero and the extremes included —
// and decode back to the same bits.
func TestSecondsMatchesJSON(t *testing.T) {
	floats := []float64{
		0, 1, -1, 11.847, 231.2846094, 412.375, 0.1, 1.0 / 3,
		1e-6, 9.999999e-7, 1e-7, 5e-324, 1.5e-300, 123456789e-15,
		1e20, 999999999999999900000, 1e21, 1.2345e21, 1e300,
		math.MaxFloat64, math.SmallestNonzeroFloat64, -2.5e-9, -3e22,
		math.Copysign(0, -1),
	}
	for e := -30; e <= 30; e++ {
		floats = append(floats, math.Pow(10, float64(e)), 7.25*math.Pow(10, float64(e)))
	}
	for _, f := range floats {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Seconds(f).AppendBinary(nil)
		if err != nil || string(got) != string(want) {
			t.Errorf("Seconds(%v) = %q (%v), json.Marshal = %q", f, got, err, want)
			continue
		}
		var back Seconds
		if err := back.UnmarshalBinary(got); err != nil || math.Float64bits(float64(back)) != math.Float64bits(f) {
			t.Errorf("%q decoded to %v (%v), want %v", got, back, err, f)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Seconds(f).AppendBinary(nil); err == nil {
			t.Errorf("Seconds(%v) encoded", f)
		}
	}
	// Other spellings of a number are not the layout.
	var s Seconds
	for _, bad := range []string{"", "1.0", "01", " 1", "1e3", "1E21", "+1", "NaN", "Inf", "0x10", `"1"`} {
		if err := s.UnmarshalBinary([]byte(bad)); err == nil {
			t.Errorf("Seconds decoded %q to %v", bad, s)
		}
	}
}
