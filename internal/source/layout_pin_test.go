package source_test

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/store"
)

// gunzippedSHA256 hashes every partition file in dir by its gunzipped
// payload, keyed by file name: the hash pins the format (columns, order,
// types, codec, bytes), not the deflate implementation around it. A file
// carrying a companion is cut where its base partition ends, and the
// companion hashed under the name of the file earlier builds wrote it to.
func gunzippedSHA256(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	gunzipped := func(name string, raw []byte) string {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		if _, err := io.Copy(h, zr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	sums := map[string]string{}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		br := bytes.NewReader(raw)
		err = store.SeekCompanion(br)
		at := len(raw) - br.Len()
		switch {
		case errors.Is(err, store.ErrNoCompanion):
			sums[e.Name()] = gunzipped(e.Name(), raw)
		case err != nil:
			t.Fatalf("%s: %v", e.Name(), err)
		default:
			sums[e.Name()] = gunzipped(e.Name(), raw[:at])
			sums[strings.Replace(e.Name(), "-day", ".rollup-day", 1)] = gunzipped(e.Name(), raw[at:])
		}
	}
	return sums
}

// pinnedMember is the pinned fleet member: 36 nodes, 0.1 day, cluster
// identity set.
func pinnedMember() sim.Config {
	cfg := sim.Scaled(36, 8640)
	cfg.Seed = sim.DeriveSeed(2020, 1)
	cfg.Cluster, cfg.Site = "frontier-1", "frontier"
	return cfg
}

// archivePinnedRun simulates and archives the pinned member into a fresh
// directory.
func archivePinnedRun(t *testing.T) string { return archiveRun(t, pinnedMember()) }

// archiveRun simulates and archives cfg, node dataset on, into a fresh
// directory.
func archiveRun(t *testing.T, cfg sim.Config) string {
	t.Helper()
	dir := t.TempDir()
	nodes, err := core.NewNodeDatasetWriter(dir, cfg.Nodes, cfg.Site)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := core.CollectRun(cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.WriteDatasets(dir, d); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestArchiveLayoutPin freezes the archive layout of one fleet member —
// 36 nodes, 0.1 day, node dataset on, cluster identity set. The literals
// were recorded at the commit before the layout moved behind
// source.WriteArchive; never regenerate them for a refactor. A change that
// is meant to alter the layout (a format version, a codec decision, a new
// column) re-records them in the same commit and says so. node-power's was
// re-recorded when its base days moved to CodecDeltaFast with float columns
// strided by the node count (the header's codec byte, the strided kind and
// the same-node XORs); core.TestStridedDaysDecodeToTheParentsValues shows
// the values under it did not move. node-power.rollup's is the companion
// node-power-day00000.spwr carries after its base, which was its own file
// when the literal was recorded: the payload did not move. allocations,
// job-series and gpu-exemplar were recorded when the run's logs they hold
// were first archived; the six literals before them did not move.
func TestArchiveLayoutPin(t *testing.T) {
	checkPins(t, gunzippedSHA256(t, archivePinnedRun(t)), map[string]string{
		"allocations-day00000.spwr":       "f188804a8028f461531d6af301773362128a3c855d784e3a8699c3069f2ae03d",
		"cluster-power-day00000.spwr":     "ffb95f9a36551e2163c040bf822c157c88ee90dd7f68016b8c2dcb8191c4b7d8",
		"gpu-exemplar-day00000.spwr":      "de7de0e85dc71cb78c0a1cbbde71060d91b22d8970c4c3af8e82683e03c3bf72",
		"gpu-xid-day00000.spwr":           "e9e2b483751d1216babd0423857952014223c9e7a8bfe2225c3955868f8764a8",
		"job-records-day00000.spwr":       "c376abe9b9e8ab2eca8760ef56635a4bce62b2ba61997159e20e9b84ad717009",
		"job-series-day00000.spwr":        "59c09d13552c6dd15cb0e816b33a3418ab355aff9a752352713dd0c23d6f5a7f",
		"node-power-day00000.spwr":        "b022758e27ad703dbb229b59b9ac8b977c7f0f315dd826f4acbb705cce507e23",
		"node-power.rollup-day00000.spwr": "15533aed08a31d653f143a6eb904a459d099ede988331b0760947b589b0834f5",
		"run-meta-day00000.spwr":          "d4e4dae4a35047d538fd8adfb5d5c4502b460e54925a3ead9d885aad5ff6893a",
	})
}

// TestArchiveLayoutPinUnderLoss freezes the pinned member with 5 % of its
// node-windows lost, on the summit floor: two 18-node cabinets, one of them
// dark (a 36-node frontier floor is one cabinet, which is never darkened:
// there would be no telemetry left). The collector's cluster
// sums, job records and per-job windows must skip exactly the node-windows
// the telemetry lost. The literals were recorded before the collector wrote
// its run straight into the memory source; never regenerate them for a
// refactor.
func TestArchiveLayoutPinUnderLoss(t *testing.T) {
	cfg := pinnedMember()
	cfg.Cluster, cfg.Site = "summit-1", ""
	cfg.TelemetryLossFrac = 0.05
	got := gunzippedSHA256(t, archiveRun(t, cfg))
	checkPins(t, map[string]string{
		"cluster-power-day00000.spwr": got["cluster-power-day00000.spwr"],
		"job-records-day00000.spwr":   got["job-records-day00000.spwr"],
		"job-series-day00000.spwr":    got["job-series-day00000.spwr"],
	}, map[string]string{
		"cluster-power-day00000.spwr": "30f20a368645716bdc8eeb93d0acefc081a542ff5e5997f1b2a83afdd1c66cb7",
		"job-records-day00000.spwr":   "aa4e93fbe0dd1436708dc43a047c9b941f6e32ff5693f85a20197c9cc9990a7d",
		"job-series-day00000.spwr":    "dd6e23ce0d2431df244538838d7e12c6b05dedb13324bed8fba81e31e411af16",
	})
}

// checkPins compares every partition hash in got with its pin in want.
func checkPins(t *testing.T, got, want map[string]string) {
	t.Helper()
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: payload sha256 %s, pinned %q", name, sum, want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned partition not written", name)
		}
	}
}
