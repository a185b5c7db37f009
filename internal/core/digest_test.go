package core

import (
	"encoding/json"
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

	// The digest survives its wire trip exactly (float64 JSON encoding
	// round-trips by construction).
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var decoded PredictionDigest
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded != *d {
		t.Fatalf("digest changed across JSON round trip: %+v != %+v", decoded, *d)
	}

	got := decoded.Prediction(full.ID, full.Length)
	if !reflect.DeepEqual(got, full) {
		t.Fatalf("reconstructed prediction differs:\ngot  %+v\nwant %+v", got, full)
	}

	// The digest is strictly smaller on the wire than the prediction it
	// summarises.
	fullRaw, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) >= len(fullRaw) {
		t.Errorf("digest is %d bytes, full prediction %d — no saving", len(raw), len(fullRaw))
	}
}

// TestPredictionDigestNull: the OOM encoding (a JSON null) decodes to a
// nil digest, which routes the task to the high-memory retry wave.
func TestPredictionDigestNull(t *testing.T) {
	var d *PredictionDigest
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "null" {
		t.Fatalf("nil digest encodes as %s", raw)
	}
	var decoded *PredictionDigest
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded != nil {
		t.Fatalf("null decoded to %+v", decoded)
	}
}
