package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
)

func TestValidateModes(t *testing.T) {
	cases := []struct {
		name string
		o    options
		ok   bool
	}{
		{"none", options{}, false},
		{"list", options{list: true}, true},
		{"two modes", options{list: true, describe: "x"}, false},
		{"diff one arg", options{diff: "a"}, false},
		{"diff pair", options{diff: "a,b"}, true},
	}
	for _, c := range cases {
		if err := c.o.validate(); (err == nil) != c.ok {
			t.Errorf("%s: validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestList(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, io.Discard, options{list: true}); err != nil {
		t.Fatalf("list: %v", err)
	}
	out := buf.String()
	for _, s := range scenario.Catalog() {
		if !strings.Contains(out, s.Name) {
			t.Errorf("listing lacks %q", s.Name)
		}
	}
}

func TestDescribe(t *testing.T) {
	var spec, info bytes.Buffer
	if err := run(&spec, &info, options{describe: "trace-replay"}); err != nil {
		t.Fatalf("describe: %v", err)
	}
	for _, want := range []string{"hash ", "compiled: ", "trace: ", "rows"} {
		if !strings.Contains(info.String(), want) {
			t.Errorf("describe's identity lines lack %q:\n%s", want, info.String())
		}
	}
	// Stdout is the spec alone: redirected to a file, it loads as the
	// catalog entry it describes.
	path := filepath.Join(t.TempDir(), "trace-replay.json")
	if err := os.WriteFile(path, spec.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := scenario.Load(path)
	if err != nil {
		t.Fatalf("describe's stdout does not load: %v\n%s", err, spec.String())
	}
	if want, _ := scenario.ByName("trace-replay"); !reflect.DeepEqual(got, want) {
		t.Errorf("describe's stdout loads as %+v, want %+v", got, want)
	}
	if err := run(io.Discard, io.Discard, options{describe: "no-such"}); err == nil {
		t.Error("describe of unknown scenario succeeded")
	}
}

func TestDiff(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, io.Discard, options{diff: "winter-economizer,heatwave-summer"}); err != nil {
		t.Fatalf("diff: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"winter-economizer", "heatwave-summer", "mean PUE", "delta"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output lacks %q:\n%s", want, out)
		}
	}
}
