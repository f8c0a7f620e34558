package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenCatalogReports pins every catalog scenario by its full
// objective report at tolerance zero: any change to the engine, the
// workload model, the trace converter or the spec compiler that moves a
// single bit of any catalog run fails here. Regenerate intentionally with
//
//	UPDATE_GOLDEN=1 go test ./internal/scenario -run TestGolden
//
// and review the diff like any other contract change.
func TestGoldenCatalogReports(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, spec := range Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			r, err := Compile(spec, "")
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			d, err := runOn(r, 2)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			rep, err := r.Assess(d.Source())
			if err != nil {
				t.Fatalf("assess: %v", err)
			}
			got, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')

			path := filepath.Join("testdata", "golden", spec.Name+".json")
			if update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report drifted from %s at tolerance 0:\n got: %s\nwant: %s",
					path, got, want)
			}
		})
	}
}
