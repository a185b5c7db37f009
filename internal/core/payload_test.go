package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/flow"
	"repro/internal/fold"
	"repro/internal/fsim"
)

// payloadValue is a spec or result layout as its decoder sees it.
type payloadValue interface {
	AppendBinary(b []byte) ([]byte, error)
	UnmarshalBinary(data []byte) error
}

// payloadKinds is the number of spec and result layouts of the campaign
// kernels; newPayload returns a value to decode kind into.
const payloadKinds = 6

func newPayload(kind uint8) payloadValue {
	switch kind % payloadKinds {
	case 0:
		return new(FeatureSpec)
	case 1:
		return new(InferSpec)
	case 2:
		return new(RelaxSpec)
	case 3:
		return new(FeatureOut)
	case 4:
		return new(PredictionDigest)
	default:
		return new(Seconds)
	}
}

// kindOf is the newPayload kind of v's layout.
func kindOf(v flow.BinaryAppender) uint8 {
	switch v.(type) {
	case FeatureSpec:
		return 0
	case InferSpec:
		return 1
	case RelaxSpec:
		return 2
	case FeatureOut:
		return 3
	case PredictionDigest:
		return 4
	}
	return 5
}

// kernelPayload is one campaign kernel's round trip as a remote stage
// makes it: the spec the stage builds, and the result the kernel returns
// for it (the first D. vulgaris protein at the default seed, as
// TestKernelPayloadGolden in internal/experiments pins them).
type kernelPayload struct {
	name, kernel string
	spec         flow.BinaryAppender
	// decodeSpec is the kernel's decode; decodeResult the stage's.
	decodeSpec   func([]byte) error
	result       flow.BinaryAppender
	resultCap    int
	decodeResult func([]byte) error
}

func kernelPayloads() []kernelPayload {
	const seed, species, id = 20220125, "DVU", "DVU_00001"
	return []kernelPayload{
		{
			name: "feature", kernel: KernelFeature,
			spec: FeatureSpec{Seed: seed, Species: species, ID: id, JobsPerCopy: 4,
				FS: fsim.DefaultFilesystem(), DB: ReducedDatabase()},
			decodeSpec:   func(p []byte) error { var s FeatureSpec; return s.UnmarshalBinary(p) },
			result:       FeatureOut{Seconds: 231.2846094},
			resultCap:    SecondsMaxLen,
			decodeResult: func(p []byte) error { var o FeatureOut; return o.UnmarshalBinary(p) },
		},
		{
			name: "infer", kernel: KernelInfer,
			spec: InferSpec{Seed: seed, Species: species, ID: id, Model: 0,
				Preset: fold.Genome, NodeMemGB: standardNodeGPUMemGB},
			decodeSpec: func(p []byte) error { var s InferSpec; return s.UnmarshalBinary(p) },
			result: PredictionDigest{Model: 0, Recycles: 3, Converged: true,
				MeanPLDDT: 75.91540290384388, PTMS: 0.7441860071551497,
				FracAbove70: 0.7039473684210527, FracAbove90: 0.15789473684210525,
				GPUSeconds: 88.20316541751816, PeakMemGB: 0.8062784},
			resultCap:    DigestMaxLen,
			decodeResult: func(p []byte) error { var d PredictionDigest; return d.UnmarshalBinary(p) },
		},
		{
			name: "relax", kernel: KernelRelax,
			spec:         RelaxSpec{Length: 152, Platform: 2},
			decodeSpec:   func(p []byte) error { var s RelaxSpec; return s.UnmarshalBinary(p) },
			result:       Seconds(11.847),
			resultCap:    SecondsMaxLen,
			decodeResult: func(p []byte) error { var s Seconds; return s.UnmarshalBinary(p) },
		},
	}
}

// BenchmarkKernelPayload is the payload layer of one remote task, with a
// kernel that only decodes its spec and encodes its result: submit
// encodes the spec into a reused buffer and wraps it in the spec envelope,
// as exec.MapSpecResume does for every item, the worker's registry opens
// the envelope and runs the kernel, and submit decodes the result.
func BenchmarkKernelPayload(b *testing.B) {
	for _, k := range kernelPayloads() {
		b.Run(k.name, func(b *testing.B) {
			reg := flow.NewRegistry()
			if err := reg.Register(k.kernel, func(args []byte) ([]byte, error) {
				if err := k.decodeSpec(args); err != nil {
					return nil, err
				}
				return k.result.AppendBinary(make([]byte, 0, k.resultCap))
			}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = k.spec.AppendBinary(buf[:0]); err != nil {
					b.Fatal(err)
				}
				payload, err := flow.EncodeSpec(flow.JobSpec{Kernel: k.kernel, Args: buf})
				if err != nil {
					b.Fatal(err)
				}
				res, err := reg.Run(payload)
				if err != nil {
					b.Fatal(err)
				}
				if err := k.decodeResult(res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestKernelPayloadRoundTrip: every spec and result decodes to the value
// that was encoded, and a result fits the bound its kernel preallocates.
func TestKernelPayloadRoundTrip(t *testing.T) {
	for _, k := range kernelPayloads() {
		for _, v := range []flow.BinaryAppender{k.spec, k.result} {
			raw, err := v.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			back := newPayload(kindOf(v))
			if err := back.UnmarshalBinary(raw); err != nil {
				t.Fatalf("%s %T: %v", k.name, v, err)
			}
			if got := reflect.ValueOf(back).Elem().Interface(); got != v {
				t.Errorf("%s: %+v decodes to %+v", k.name, v, got)
			}
		}
		if res, _ := k.result.AppendBinary(nil); len(res) > k.resultCap {
			t.Errorf("%s result is %d bytes, over its %d-byte bound", k.name, len(res), k.resultCap)
		}
	}
}

// FuzzKernelPayload hardens every spec and result decoder of the
// campaign kernels: kind picks one (newPayload), data is the payload.
// Whatever the bytes, the decoder must not panic, must allocate no more
// than a small multiple of the input length, and — when it accepts the
// input — must re-encode it to exactly the same bytes.
func FuzzKernelPayload(f *testing.F) {
	for _, k := range kernelPayloads() {
		for _, v := range []flow.BinaryAppender{k.spec, k.result} {
			p, err := v.AppendBinary(nil)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(kindOf(v), p)
			f.Add(kindOf(v), p[:len(p)-1])
		}
	}
	f.Add(uint8(4), []byte{0})             // the OOM digest
	f.Add(uint8(4), []byte{0, 0})          // OOM with trailing bytes
	f.Add(uint8(4), []byte{2})             // an unknown digest tag
	f.Add(uint8(2), []byte{0x80, 0x00, 0}) // a non-minimal varint
	f.Add(uint8(5), []byte("1e-7"))
	f.Add(uint8(5), []byte("1e+21"))
	f.Add(uint8(5), []byte("-0"))
	f.Add(uint8(0), bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		v := newPayload(kind)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := v.UnmarshalBinary(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(4*len(data)+1024) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		again, err := v.AppendBinary(nil)
		if err != nil {
			t.Fatalf("accepted %q but cannot re-encode it: %v", data, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %q but re-encodes it as %q", data, again)
		}
	})
}
