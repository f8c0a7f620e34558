package scenario

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/trace"
)

// FuzzLoadCompile holds a spec file and a trace file beside it to what a
// run needs: Load and Compile refuse them with an error wrapping
// ErrScenario (or, from Load, naming the spec file), or compile them to a
// config an archive's readers accept — 1 to source.MaxManifestNodes nodes,
// at least sim.MinScaledSpanSec — whose manifest spec, written and loaded
// again, compiles to the same identity. Only the builtin trace and the
// fuzzed one (fuzzTrace) are read: a spec naming any other file is
// skipped, and so is a mixed workload on a floor or span large enough that
// the job count Validate allows it would take the fuzzer's memory to
// generate.
func FuzzLoadCompile(f *testing.F) {
	for _, s := range Catalog() {
		raw, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, []byte{})
	}
	f.Add([]byte(`{"version":1,"name":"x","nodes":1048577,"duration_sec":600}`), []byte{})
	f.Add([]byte(`{"version":1,"name":"x","nodes":1048576,"duration_sec":3153600000}`), []byte{})
	f.Add([]byte(`{"version":1,"name":"x","nodes":16,"duration_sec":599}`), []byte{})
	f.Add([]byte(`{"version":1,"name":"x","nodes":64,"duration_sec":604800,"workload":{"source":"mixed","jobs":100000000,"trace_path":"`+trace.BuiltinSampleName+`"}}`), []byte{})
	f.Add([]byte(`{"version":1,"name":"x","nodes":1,"duration_sec":600,"workload":{"source":"trace","trace_path":"`+trace.BuiltinSampleName+`"}}`), []byte{})
	f.Add([]byte(`{"version":1,"name":"x","nodes":16,"duration_sec":3600,"workload":{"source":"trace","trace_path":"`+fuzzTrace+`"}}`),
		[]byte("job_id,submit,duration,nodes\n1,100,600,2\n2,150,600,1\n"))
	f.Fuzz(func(t *testing.T, raw, traceRaw []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "spec.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fuzzTrace), traceRaw, 0o644); err != nil {
			t.Fatal(err)
		}
		spec, err := Load(path)
		if err != nil {
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("Load error does not name %s: %v", path, err)
			}
			return
		}
		if p := spec.Workload.TracePath; p != "" && p != trace.BuiltinSampleName && p != fuzzTrace {
			t.Skip("names a trace file")
		}
		if spec.Workload.Source == SourceMixed && (spec.Nodes > 64 || spec.DurationSec > 7*86400) {
			t.Skip("a mixed workload this large is generated in full at compile time")
		}
		r, err := Compile(spec, dir)
		if err != nil {
			if !errors.Is(err, ErrScenario) {
				t.Fatalf("Compile error does not wrap ErrScenario: %v", err)
			}
			return
		}
		if n := r.Config.Nodes; n < 1 || n > source.MaxManifestNodes || r.Config.DurationSec < sim.MinScaledSpanSec {
			t.Fatalf("compiled %d nodes over %d s", n, r.Config.DurationSec)
		}
		again, err := json.Marshal(r.Manifest().Spec)
		if err != nil {
			t.Fatal(err)
		}
		path = filepath.Join(dir, "again.json")
		if err := os.WriteFile(path, again, 0o644); err != nil {
			t.Fatal(err)
		}
		spec, err = Load(path)
		if err != nil {
			t.Fatalf("the manifest's spec does not load: %v\n%s", err, again)
		}
		r2, err := Compile(spec, dir)
		if err != nil {
			t.Fatalf("the manifest's spec does not compile: %v\n%s", err, again)
		}
		if r2.Identity() != r.Identity() {
			t.Fatalf("identity %s, %s after a round trip through\n%s", r.Identity(), r2.Identity(), again)
		}
	})
}

// fuzzTrace is the name of the fuzzed trace file, beside the spec.
const fuzzTrace = "trace.csv"
