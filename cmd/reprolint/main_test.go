package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestListAnalyzers pins the suite: exactly these seven, in this order.
func TestListAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run -list = %d, want 0 (stderr: %s)", code, stderr.String())
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	want := "determinism unitsafety floatcompare errwrap allocfree ctxflow leakcheck"
	if strings.Join(got, " ") != want {
		t.Errorf("-list names:\n got %s\nwant %s", strings.Join(got, " "), want)
	}
}

// TestFlagsAreAnalyzersAndList pins the CLI surface: the output is text and
// the gate's only green state is zero findings, so the JSON, SARIF and
// baseline flags are gone and must be refused as unknown.
func TestFlagsAreAnalyzersAndList(t *testing.T) {
	for _, flag := range []string{"-json", "-sarif", "-baseline=x", "-write-baseline"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{flag}, &stdout, &stderr); code != 2 {
			t.Errorf("run %s = %d, want 2 (usage error)", flag, code)
		}
	}
}

func TestUnknownAnalyzerFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-analyzers", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run -analyzers nope = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("stderr missing explanation: %s", stderr.String())
	}
}

// TestRepoIsLintClean is the merge gate in test form: the whole module must
// be violation-free under the full suite, matching what `make lint` runs.
func TestRepoIsLintClean(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.LintPackages(loader.ModuleDir(), nil, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestViolationsPrintAsRelativeTextWithChains drives the one output form end
// to end over a fixture that violates leakcheck: exit status 1, one line per
// finding with its path relative to the working directory, and the call
// chain as indented notes whose paths are relative too.
func TestViolationsPrintAsRelativeTextWithChains(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(loader.ModuleDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var stdout, stderr bytes.Buffer
	const fixture = "internal/lint/testdata/src/leakcheck/leak"
	if code := run([]string{"-analyzers", "leakcheck", "./" + fixture}, &stdout, &stderr); code != 1 {
		t.Fatalf("run over a violating fixture = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "3 violation(s)") {
		t.Errorf("stderr = %q, want the violation count", stderr.String())
	}
	out := stdout.String()
	findings, notes := 0, 0
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, fixture+"/leak.go:") && strings.Contains(line, ": leakcheck: goroutine "):
			findings++
		case strings.HasPrefix(line, "\t"+fixture+"/leak.go:"):
			notes++
		default:
			t.Errorf("line is neither a relative finding nor a relative note: %q", line)
		}
	}
	if findings != 3 || notes < findings {
		t.Errorf("got %d findings and %d chain notes, want 3 and at least one note each:\n%s", findings, notes, out)
	}
	if !strings.Contains(out, "leak.runForever runs on the spawned goroutine") {
		t.Errorf("output lacks the call chain to the loop:\n%s", out)
	}
}
