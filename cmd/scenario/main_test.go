package main

import (
	"bytes"
	"io"
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
	if err := run(&buf, options{list: true}); err != nil {
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
	var buf bytes.Buffer
	if err := run(&buf, options{describe: "trace-replay"}); err != nil {
		t.Fatalf("describe: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"trace-replay", "hash ", "trace: ", "rows"} {
		if !strings.Contains(out, want) {
			t.Errorf("describe output lacks %q:\n%s", want, out)
		}
	}
	if err := run(io.Discard, options{describe: "no-such"}); err == nil {
		t.Error("describe of unknown scenario succeeded")
	}
}

func TestDiff(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, options{diff: "winter-economizer,heatwave-summer"}); err != nil {
		t.Fatalf("diff: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"winter-economizer", "heatwave-summer", "mean PUE", "delta"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output lacks %q:\n%s", want, out)
		}
	}
}
