package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func testdata(elem string) string {
	return filepath.Join("testdata", "src", elem)
}

// fixture returns the real module import path of a fixture package (see
// linttest.Module).
func fixture(elem string) string {
	return "repro/internal/lint/testdata/src/" + elem
}

func TestDeterminismGolden(t *testing.T) {
	linttest.Run(t, lint.Determinism, linttest.Load(t, "example/determinism/core", testdata("determinism")))
}

// The serving layer is exempt wholesale: the same constructs that are
// violations under a simulation-package path are silent under telemetry's.
func TestDeterminismAllowsServingLayer(t *testing.T) {
	linttest.Run(t, lint.Determinism, linttest.Load(t, "example/determinism_ok/telemetry", testdata("determinism_ok")))
}

// TestDeterminismCoversCmd pins the cmd/ scope: the same fixture that is a
// violation under a simulation-package path must also be a violation when
// loaded as a cmd/ package — the shipped binaries are swept too.
func TestDeterminismCoversCmd(t *testing.T) {
	linttest.Run(t, lint.Determinism, linttest.Load(t, "repro/cmd/example", testdata("determinism")))
}

// TestDeterminismCoversSimulationTests pins the other edge of the sweep: a
// simulation package's _test.go files are held to the rule as well.
func TestDeterminismCoversSimulationTests(t *testing.T) {
	linttest.Run(t, lint.Determinism, linttest.Module(t, fixture("dettest/core"))...)
}

func TestUnitSafetyGolden(t *testing.T) {
	linttest.Run(t, lint.UnitSafety, linttest.Load(t, "example/facility", testdata("unitsafety")))
}

func TestErrWrapGolden(t *testing.T) {
	linttest.Run(t, lint.ErrWrap, linttest.Load(t, "repro/internal/store/fixture", testdata("errwrap")))
}

// Outside store/source/query, statement-level error discards are not
// errwrap's business.
func TestErrWrapDiscardScope(t *testing.T) {
	linttest.Run(t, lint.ErrWrap, linttest.Load(t, "example/util", testdata("errwrap_ok")))
}

// TestMalformedDirectives pins directive validation: a //lint:allow without
// a reason, or naming no analyzer of the suite (the retired detreach among
// them), is reported as a violation and suppresses nothing, while a
// well-formed directive suppresses its line.
func TestMalformedDirectives(t *testing.T) {
	prog := lint.BuildProgram([]*lint.Package{linttest.Load(t, "example/directive/core", testdata("directive"))})
	var malformed, determinism int
	for _, d := range lint.Run(prog, []*lint.Analyzer{lint.Determinism}) {
		switch d.Analyzer {
		case "lint":
			malformed++
			if !strings.Contains(d.Message, "malformed directive") {
				t.Errorf("unexpected lint diagnostic: %s", d)
			}
		case "determinism":
			determinism++
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if malformed != 3 {
		t.Errorf("got %d malformed-directive diagnostics, want 3", malformed)
	}
	if determinism != 3 {
		t.Errorf("got %d determinism diagnostics, want 3 (malformed directives must not suppress)", determinism)
	}
	if extra := lint.Run(prog, nil); len(extra) != malformed {
		t.Errorf("with no analyzer selected the runner reports %d directive diagnostics, want the same %d", len(extra), malformed)
	}
}

// reachFixture is the two-package reachability fixture: a wall-clock read
// two packages away from the //lint:detroot functions.
func reachFixture(t *testing.T) []*lint.Package {
	return append(linttest.Module(t, fixture("detreach/root")), linttest.Module(t, fixture("detreach/clock"))...)
}

// TestDetReachGolden pins determinism's call-graph half: the read is
// reported at the read — once, though two roots reach it — while an equally
// nondeterministic but unreachable function in an unswept package stays
// unreported and a //lint:allow determinism site is suppressed.
func TestDetReachGolden(t *testing.T) {
	linttest.Run(t, lint.Determinism, reachFixture(t)...)
}

// TestDetReachChainNotes asserts the shape of the evidence trail: the
// diagnostic at the time.Now call must carry the root hop first, then one
// hop per call edge from the root to the leaf.
func TestDetReachChainNotes(t *testing.T) {
	var chained []lint.Diagnostic
	for _, d := range lint.Run(lint.BuildProgram(reachFixture(t)), []*lint.Analyzer{lint.Determinism}) {
		if strings.Contains(d.Message, "time.Now reads the wall clock") {
			chained = append(chained, d)
		}
	}
	if len(chained) != 1 {
		t.Fatalf("want one diagnostic for the time.Now leaf, got %v", chained)
	}
	wantNotes := []string{
		"root.Step is the annotated root",
		"root.Step calls root.helper",
		"root.helper calls clock.NowUnix",
	}
	if len(chained[0].Notes) != len(wantNotes) {
		t.Fatalf("want %d chain notes (root, two call hops), got %v", len(wantNotes), chained[0].Notes)
	}
	for i, want := range wantNotes {
		if got := chained[0].Notes[i].Message; got != want {
			t.Errorf("note %d: got %q, want %q", i, got, want)
		}
	}
}

func TestAllocFreeGolden(t *testing.T) {
	linttest.Run(t, lint.AllocFree, linttest.Module(t, fixture("allocfree/hot"))...)
}

func TestCtxFlowGolden(t *testing.T) {
	linttest.Run(t, lint.CtxFlow, linttest.Module(t, fixture("ctxflow/query"))...)
}

func TestLeakCheckGolden(t *testing.T) {
	linttest.Run(t, lint.LeakCheck, linttest.Module(t, fixture("leakcheck/leak"))...)
}

// TestNoFalsePositivesOnUnits runs the full suite over the real
// internal/units package — the one place raw scale factors are sanctioned —
// and requires silence in every view (plain, in-package tests, external
// tests).
func TestNoFalsePositivesOnUnits(t *testing.T) {
	for _, d := range lint.Run(lint.BuildProgram(linttest.Module(t, "repro/internal/units")), lint.All()) {
		t.Errorf("false positive: %s", d)
	}
}
