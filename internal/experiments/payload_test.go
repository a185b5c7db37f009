package experiments

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/flow"
	"repro/internal/proteome"
)

var updatePayloads = flag.Bool("update", false, "rewrite the kernel payload goldens under testdata/payloads")

// payloadCapture is a spec dispatcher that runs every spec through the
// process-wide kernel registry, as a worker does, and keeps the first
// (spec, result) payload pair each kernel sees.
type payloadCapture struct {
	first map[string][2][]byte
}

func (*payloadCapture) Run(exec.Batch) error { return errors.New("payloadCapture runs specs only") }
func (*payloadCapture) Close() error         { return nil }

func (c *payloadCapture) DispatchSpecs(kernel string, specs [][]byte, _ []string) ([][]byte, error) {
	out := make([][]byte, len(specs))
	for i, spec := range specs {
		var err error
		if out[i], err = flow.DefaultRegistry().Run(spec); err != nil {
			return nil, err
		}
		if _, ok := c.first[kernel]; !ok {
			c.first[kernel] = [2][]byte{spec, out[i]}
		}
	}
	return out, nil
}

// TestKernelPayloadGolden pins the bytes of one spec and one result per
// campaign kernel: the first D. vulgaris protein of `submit`'s campaign at
// DefaultSeed, as the stages build the specs and the registered kernels
// answer them. A worker and a submit of different builds agree on what a
// kernel answers only through its registered name, so a payload change
// that keeps the name would be accepted and misread. Change a payload and
// this test fails until that kernel's epoch (the "@N" of its name in
// internal/core/remote.go) is bumped and the goldens are regenerated
// (`go test ./internal/experiments -run TestKernelPayloadGolden -update`).
// The goldens are stored hex-encoded, one file per payload, so they diff
// as text; a file is named after its kernel without the epoch, so a bump
// shows as a content diff. Each kernel has a spec and a result subtest.
// The spec holds seeds, IDs, presets and lengths, which no host rounds.
// The inference and relax results are the same on every host: the
// inference kernel's exp, log and powers are internal/fmath's. The
// feature result may hold low bits of math.Exp, which core/features.go
// still calls, as an FMA host rounds them.
func TestKernelPayloadGolden(t *testing.T) {
	RegisterCampaignKernels()
	env := NewEnv(DefaultSeed)
	proteins := env.Proteome(proteome.DVulgaris).FilterMaxLen(2500)[:1]
	capture := &payloadCapture{first: map[string][2][]byte{}}
	cfg := core.DefaultConfig()
	cfg.Executor = capture
	cfg.Remote = &core.RemoteCampaign{Seed: DefaultSeed, Species: proteome.DVulgaris.Code}
	if _, err := core.RunCampaign(env.Engine, env.FeatureGen(), proteins, env.FS, core.ReducedDatabase(), cfg); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join("testdata", "payloads")
	if *updatePayloads {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, kernel := range []string{core.KernelFeature, core.KernelInfer, core.KernelRelax} {
		pair, ok := capture.first[kernel]
		if !ok {
			t.Fatalf("campaign dispatched no %s spec", kernel)
		}
		base, _, _ := strings.Cut(strings.ReplaceAll(kernel, "/", "_"), "@")
		t.Run(base, func(t *testing.T) {
			for i, part := range []string{"spec", "result"} {
				t.Run(part, func(t *testing.T) {
					name := base + "." + part + ".hex"
					path := filepath.Join(dir, name)
					got := append(hex.AppendEncode(nil, pair[i]), '\n')
					if *updatePayloads {
						if err := os.WriteFile(path, got, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("no golden %s (run `go test ./internal/experiments -run TestKernelPayloadGolden -update`): %v", name, err)
					}
					if bytes.Equal(got, want) {
						return
					}
					host := ""
					if part == "result" && kernel == core.KernelFeature {
						host = "A host without FMA (GODEBUG=cpu.fma=off, GOARCH=386, ppc64le) may fail this too: the feature kernel (internal/core/features.go) still calls math.Exp, whose low bits differ there. " +
							"There the cause is the host, not the payload; bump and re-record nothing (see ROADMAP, One exp/log the repo owns).\n"
					}
					t.Errorf("kernel %s: its %s payload changed.\n"+
						"If the kernel's spec layout or its answer to the same spec changed, a peer of the previous build would accept and misread it: "+
						"bump that kernel's epoch in internal/core/remote.go, then run `go test ./internal/experiments -run TestKernelPayloadGolden -update`.\n"+
						"%s got %s\nwant %s", kernel, part, host, got, want)
				})
			}
		})
	}
}
