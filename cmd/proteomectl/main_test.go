package main

import (
	"bytes"
	"encoding/csv"
	"errors"
	"flag"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/pdb"
	"repro/internal/proteome"
	"repro/internal/seq"
)

func TestFindSpecies(t *testing.T) {
	tests := []struct {
		code    string
		wantErr bool
		name    string
	}{
		{code: "DVU", name: "Desulfovibrio vulgaris Hildenborough"},
		{code: "PMER", name: "Pseudodesulfovibrio mercurii"},
		{code: "RRU", name: "Rhodospirillum rubrum"},
		{code: "SPDIV", name: "Sphagnum divinum"},
		{code: "dvu", wantErr: true},
		{code: "", wantErr: true},
		{code: "ECOLI", wantErr: true},
	}
	for _, tt := range tests {
		sp, err := findSpecies(tt.code)
		if (err != nil) != tt.wantErr {
			t.Errorf("findSpecies(%q) error = %v, wantErr %v", tt.code, err, tt.wantErr)
			continue
		}
		if err == nil && sp.Name != tt.name {
			t.Errorf("findSpecies(%q) = %q, want %q", tt.code, sp.Name, tt.name)
		}
	}
}

func TestFindPreset(t *testing.T) {
	for _, name := range []string{"reduced_dbs", "genome", "super", "casp14"} {
		p, err := findPreset(name)
		if err != nil {
			t.Errorf("findPreset(%q): %v", name, err)
		} else if p.Name != name {
			t.Errorf("findPreset(%q).Name = %q", name, p.Name)
		}
	}
	if _, err := findPreset("turbo"); err == nil {
		t.Error("findPreset(turbo) succeeded, want error")
	}
}

func TestSpeciesCmd(t *testing.T) {
	var buf bytes.Buffer
	if err := speciesCmd(nil, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, code := range []string{"PMER", "RRU", "DVU", "SPDIV"} {
		if !strings.Contains(out, code) {
			t.Errorf("species listing missing %q:\n%s", code, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 5 { // header + 4 species
		t.Errorf("species listing has %d lines, want 5", lines)
	}
}

func TestCampaignFlags(t *testing.T) {
	tests := []struct {
		name     string
		args     []string
		wantErr  bool
		species  string
		proteins int // expected protein count (0 = don't check)
	}{
		{name: "defaults", args: nil, species: "DVU"},
		{name: "limit", args: []string{"-species", "DVU", "-limit", "7"}, species: "DVU", proteins: 7},
		{name: "limit beyond size is a no-op", args: []string{"-species", "DVU", "-limit", "9999999"}, species: "DVU"},
		{name: "bad species", args: []string{"-species", "NOPE"}, wantErr: true},
		{name: "bad preset", args: []string{"-preset", "warp"}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			var cf campaignFlags
			cf.register(fs)
			if err := fs.Parse(tt.args); err != nil {
				t.Fatalf("parse: %v", err)
			}
			cr, err := cf.campaign()
			if (err != nil) != tt.wantErr {
				t.Fatalf("campaign() error = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil {
				return
			}
			if cr.sp.Code != tt.species {
				t.Errorf("species = %q, want %q", cr.sp.Code, tt.species)
			}
			if tt.proteins > 0 && len(cr.proteins) != tt.proteins {
				t.Errorf("got %d proteins, want %d", len(cr.proteins), tt.proteins)
			}
			if tt.proteins > 0 && !cr.limited {
				t.Error("limited = false after -limit truncation")
			}
			if cr.cfg.AndesNodes != 96 {
				t.Errorf("AndesNodes = %d, want 96", cr.cfg.AndesNodes)
			}
		})
	}
}

func TestCampaignFlagParseErrors(t *testing.T) {
	// ContinueOnError makes bad flag values return errors instead of
	// exiting, so the commands surface them as normal failures.
	tests := [][]string{
		{"-limit", "many"},
		{"-seed", "-3"},
		{"-nodes", "x"},
		{"-bogus"},
	}
	for _, args := range tests {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(&bytes.Buffer{})
		var cf campaignFlags
		cf.register(fs)
		if err := fs.Parse(args); err == nil {
			t.Errorf("Parse(%v) succeeded, want error", args)
		}
	}
}

func TestHelpFlagIsNotAnError(t *testing.T) {
	// fs.Parse surfaces -h as flag.ErrHelp; main exits 0 on it, so the
	// command funcs must pass it through unwrapped.
	for _, c := range commands {
		var buf bytes.Buffer
		err := c.run([]string{"-h"}, &buf)
		if !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%s -h returned %v, want flag.ErrHelp", c.name, err)
		} else if code := exitCode(err); code != 0 {
			t.Errorf("%s -h exits %d, want 0", c.name, code)
		}
	}
	// species has no flags, so any flag is a flag error (exit 2).
	if err := speciesCmd([]string{"-limit", "3"}, &bytes.Buffer{}); !errors.Is(err, errFlagParse) {
		t.Errorf("species -limit 3 returned %v, want errFlagParse", err)
	}
}

func TestGenerateCmd(t *testing.T) {
	var buf bytes.Buffer
	if err := generateCmd([]string{"-species", "DVU"}, &buf); err != nil {
		t.Fatal(err)
	}
	seqs, err := seq.ReadFASTA(&buf)
	if err != nil {
		t.Fatalf("generate output is not valid FASTA: %v", err)
	}
	if len(seqs) != 3205 {
		t.Errorf("generated %d sequences, want 3205", len(seqs))
	}
	if !strings.HasPrefix(seqs[0].ID, "DVU_") {
		t.Errorf("first ID %q does not carry the DVU locus prefix", seqs[0].ID)
	}
}

func TestGenerateCmdToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.fasta")
	var buf bytes.Buffer
	if err := generateCmd([]string{"-species", "PMER", "-out", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("generate -out wrote %d bytes to stdout", buf.Len())
	}
	seqs, err := readFASTAFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3446 {
		t.Errorf("generated %d sequences, want 3446", len(seqs))
	}
}

func TestGenerateCmdErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := generateCmd([]string{"-species", "NOPE"}, &buf); err == nil {
		t.Error("generate with unknown species succeeded")
	}
	if err := generateCmd([]string{"-seed", "abc"}, &buf); err == nil {
		t.Error("generate with bad seed succeeded")
	}
}

// TestPredictCmd: predict writes its PDB to the writer it is given, one
// residue per residue of the target.
func TestPredictCmd(t *testing.T) {
	var buf bytes.Buffer
	if err := predictCmd([]string{"-species", "DVU", "-id", "DVU_00001"}, &buf); err != nil {
		t.Fatal(err)
	}
	model, err := pdb.Read(&buf)
	if err != nil {
		t.Fatalf("predict output is not a PDB: %v", err)
	}
	sp, _ := proteome.SpeciesByCode("DVU")
	want := 0
	for _, p := range experiments.NewEnv(experiments.DefaultSeed).Proteome(sp).Proteins {
		if p.Seq.ID == "DVU_00001" {
			want = p.Seq.Len()
		}
	}
	residues := map[int]bool{}
	for _, a := range model.Atoms {
		residues[a.ResSeq] = true
	}
	if want == 0 || len(residues) != want {
		t.Errorf("predict wrote %d residues, want %d", len(residues), want)
	}
	if model.ID != "DVU_00001" {
		t.Errorf("PDB title %q, want DVU_00001", model.ID)
	}
}

// TestOutMissingDirFails: an -out file that cannot be created fails the
// command instead of writing nowhere.
func TestOutMissingDirFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "out")
	for _, tc := range []struct {
		cmd  func([]string, io.Writer) error
		args []string
	}{
		{generateCmd, []string{"-out", path}},
		{predictCmd, []string{"-id", "DVU_00001", "-out", path}},
	} {
		err := tc.cmd(tc.args, &bytes.Buffer{})
		if !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%v: err = %v, want a missing-directory error", tc.args, err)
		}
	}
}

func TestRunCmdWritesStatsCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tasks.csv")
	var buf bytes.Buffer
	if err := runCmd([]string{"-species", "DVU", "-limit", "4", "-stats", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("run -stats printed no report")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("run -stats wrote no CSV: %v", err)
	}
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 {
		t.Fatalf("stats CSV has %d records, want header + rows", len(recs))
	}
	if !reflect.DeepEqual(recs[0], exec.StatsHeader) {
		t.Errorf("stats CSV header = %v, want %v", recs[0], exec.StatsHeader)
	}
	// 4 feature tasks + 4x5 inference slots + up to 4 relax tasks.
	if len(recs)-1 < 24 {
		t.Errorf("stats CSV has %d task rows, want >= 24", len(recs)-1)
	}
}

func TestWorkerSubmitFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	// Exactly one of -connect / -scheduler-file is required.
	if err := workerCmd(nil, &buf); err == nil {
		t.Error("worker with no address succeeded")
	}
	if err := workerCmd([]string{"-connect", "a", "-scheduler-file", "b"}, &buf); err == nil {
		t.Error("worker with both addresses succeeded")
	}
	if err := submitCmd(nil, &buf); err == nil {
		t.Error("submit with no address succeeded")
	}
	if err := submitCmd([]string{"-connect", "a", "-scheduler-file", "b"}, &buf); err == nil {
		t.Error("submit with both addresses succeeded")
	}
	// The wire codec is validated before any dialing happens.
	if err := workerCmd([]string{"-connect", "a", "-wire", "msgpack"}, &buf); err == nil {
		t.Error("worker with unknown -wire succeeded")
	}
	if err := submitCmd([]string{"-connect", "a", "-wire", "msgpack"}, &buf); err == nil {
		t.Error("submit with unknown -wire succeeded")
	}
	if err := monitorCmd([]string{"-connect", "a", "-wire", "msgpack"}, &buf); err == nil {
		t.Error("monitor with unknown -wire succeeded")
	}
	if err := workerCmd([]string{"-connect", "a", "-wire", "json"}, &buf); err == nil || !strings.Contains(err.Error(), "binary") {
		t.Errorf("worker with -wire json: err = %v, want a refusal naming the binary codec", err)
	}
}

// TestResumeResultsDropsOtherKernels: submit -resume keeps a logged result
// only for a kernel this build runs, so a log that mixes this build's
// epoch with a stale one resumes into this epoch's results alone, and the
// stderr line counts what it dropped and names the kernels.
func TestResumeResultsDropsOtherKernels(t *testing.T) {
	type task struct{ kernel, id string }
	for _, tc := range []struct {
		name string
		log  []task
		kept []task
		note string
	}{
		{
			name: "current epoch only",
			log:  []task{{core.KernelFeature, "a"}, {core.KernelInfer, "a/m0"}, {core.KernelRelax, "a"}},
			kept: []task{{core.KernelFeature, "a"}, {core.KernelInfer, "a/m0"}, {core.KernelRelax, "a"}},
			note: "resume: 3 task results read from the log; dispatching only the remainder",
		},
		{
			name: "stale infer epoch",
			log:  []task{{core.KernelFeature, "a"}, {"campaign/infer@0", "a/m0"}, {"campaign/infer@0", "a/m1"}, {core.KernelInfer, "a/m2"}},
			kept: []task{{core.KernelFeature, "a"}, {core.KernelInfer, "a/m2"}},
			note: "resume: 4 task results read from the log, 2 for kernels this build does not run: campaign/infer@0; dispatching only the remainder",
		},
		{
			name: "every kernel stale",
			log:  []task{{"campaign/relax@0", "a"}, {"campaign/feature", "a"}, {"campaign/infer@0", "a/m0"}},
			note: "resume: 3 task results read from the log, 3 for kernels this build does not run: campaign/feature, campaign/infer@0, campaign/relax@0; dispatching only the remainder",
		},
		{
			name: "payload without a spec envelope",
			log:  []task{{"", "a"}, {core.KernelRelax, "a"}},
			kept: []task{{core.KernelRelax, "a"}},
			note: "resume: 2 task results read from the log, 1 for kernels this build does not run: (no spec envelope); dispatching only the remainder",
		},
		{
			name: "empty log",
			note: "resume: 0 task results read from the log; dispatching only the remainder",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A task's spec names its kernel; its args and result are its
			// ID. A task of no kernel carries its ID with no envelope.
			spec := func(k task) string {
				if k.kernel == "" {
					return k.id
				}
				b, err := flow.EncodeSpec(flow.JobSpec{Kernel: k.kernel, Args: []byte(k.id)})
				if err != nil {
					t.Fatal(err)
				}
				return string(b)
			}
			var log bytes.Buffer
			sink := events.LogSink(&log)
			for i, k := range tc.log {
				label := k.kernel + " " + k.id
				sink(events.Event{Seq: uint64(2 * i), Type: events.TaskReceived, Task: label, Payload: []byte(spec(k))})
				sink(events.Event{Seq: uint64(2*i + 1), Type: events.TaskDone, Task: label, Worker: "w", Payload: []byte(k.id)})
			}
			done, note, err := resumeResults(&log)
			if err != nil {
				t.Fatal(err)
			}
			if note != tc.note {
				t.Errorf("note = %q\nwant   %q", note, tc.note)
			}
			want := map[string][]byte{}
			for _, k := range tc.kept {
				want[spec(k)] = []byte(k.id)
			}
			if !reflect.DeepEqual(done, want) {
				t.Errorf("kept %q, want %q", done, want)
			}
		})
	}
}

func readFASTAFile(path string) ([]seq.Sequence, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return seq.ReadFASTA(bytes.NewReader(data))
}
