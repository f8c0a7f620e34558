package trace

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/workload"
)

const header = "job_id,user,project,submit,start,end,nodes,walltime,class,power_w\n"

func mustParse(t *testing.T, csv string) []Row {
	t.Helper()
	rows, err := ParseCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatalf("ParseCSV: %v", err)
	}
	return rows
}

func TestParseCSVBasic(t *testing.T) {
	rows := mustParse(t, header+
		"1,alice,ASTRO1,1000,1060,4660,4,7200,gpu_phasic,\n"+
		"2,bob,CHEM2,2000,2000,5600,2,,,1500\n")
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	r := rows[0]
	if r.ID != 1 || r.User != "alice" || r.Project != "ASTRO1" ||
		r.Submit != 1000 || r.Start != 1060 || r.End != 4660 ||
		r.Nodes != 4 || r.Walltime != 7200 || r.Class != "gpu_phasic" {
		t.Errorf("row 0 parsed wrong: %+v", r)
	}
	if rows[1].PowerW != 1500 || rows[1].Class != "" {
		t.Errorf("row 1 parsed wrong: %+v", rows[1])
	}
}

func TestParseCSVEmpty(t *testing.T) {
	if _, err := ParseCSV(strings.NewReader("")); !errors.Is(err, ErrTrace) {
		t.Errorf("empty input err = %v, want ErrTrace", err)
	}
	// A header-only trace parses to zero rows; conversion then rejects it.
	rows := mustParse(t, header)
	if len(rows) != 0 {
		t.Fatalf("header-only trace gave %d rows", len(rows))
	}
	if _, _, err := Jobs(rows, Options{MaxNodes: 8}); !errors.Is(err, ErrTrace) {
		t.Errorf("no-rows Jobs err = %v, want ErrTrace", err)
	}
}

func TestParseCSVMissingNodesColumn(t *testing.T) {
	_, err := ParseCSV(strings.NewReader("job_id,submit,end\n1,5,10\n"))
	if !errors.Is(err, ErrTrace) || !strings.Contains(err.Error(), "nodes") {
		t.Errorf("missing nodes column err = %v", err)
	}
}

func TestParseCSVDuplicateColumn(t *testing.T) {
	_, err := ParseCSV(strings.NewReader("nodes,node_count\n1,2\n"))
	if !errors.Is(err, ErrTrace) {
		t.Errorf("duplicate column err = %v, want ErrTrace", err)
	}
}

func TestParseCSVTrailingComma(t *testing.T) {
	// One trailing empty field beyond the header width is the common
	// exporter artifact and must be tolerated...
	rows := mustParse(t, "job_id,nodes,submit,duration\n1,4,1000,600,\n")
	if len(rows) != 1 || rows[0].Nodes != 4 {
		t.Fatalf("trailing comma row parsed wrong: %+v", rows)
	}
	// ...but a genuinely short row is an error naming the line.
	_, err := ParseCSV(strings.NewReader("job_id,nodes,submit,duration\n1,4\n"))
	if !errors.Is(err, ErrTrace) || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("short row err = %v", err)
	}
	// Two extra fields overflow, trailing-empty or not.
	_, err = ParseCSV(strings.NewReader("job_id,nodes,submit,duration\n1,4,1000,600,,\n"))
	if !errors.Is(err, ErrTrace) {
		t.Errorf("overflow row err = %v, want ErrTrace", err)
	}
}

func TestParseCSVBadCell(t *testing.T) {
	_, err := ParseCSV(strings.NewReader(header + "x,alice,P,1,1,2,4,,,\n"))
	if !errors.Is(err, ErrTrace) || !strings.Contains(err.Error(), "job_id") {
		t.Errorf("bad integer cell err = %v", err)
	}
	_, err = ParseCSV(strings.NewReader(header + "1,alice,P,1,1,2,4,,,watts\n"))
	if !errors.Is(err, ErrTrace) || !strings.Contains(err.Error(), "power") {
		t.Errorf("bad power cell err = %v", err)
	}
}

func TestParseCSVComments(t *testing.T) {
	rows := mustParse(t, "# a comment\n"+header+"# another\n1,a,P,1000,1000,2000,2,,,\n")
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
}

func TestParseJSON(t *testing.T) {
	rows, err := ParseJSON(strings.NewReader(
		`[{"job_id":7,"nodes":3,"submit":100,"duration":50,"class":"cpu_heavy"}]`))
	if err != nil {
		t.Fatalf("ParseJSON: %v", err)
	}
	if len(rows) != 1 || rows[0].ID != 7 || rows[0].Nodes != 3 || rows[0].Class != "cpu_heavy" {
		t.Errorf("parsed wrong: %+v", rows)
	}
	if _, err := ParseJSON(strings.NewReader(`[{"nodes":1,"bogus":2}]`)); !errors.Is(err, ErrTrace) {
		t.Errorf("unknown field err = %v, want ErrTrace", err)
	}
}

func TestJobsUnsortedRowsDeterministicOrder(t *testing.T) {
	rows := []Row{
		{ID: 3, Nodes: 1, Submit: 3000, Duration: 60},
		{ID: 1, Nodes: 1, Submit: 1000, Duration: 60},
		{ID: 5, Nodes: 1, Submit: 1000, Duration: 60}, // ties on submit: ID breaks
		{ID: 2, Nodes: 1, Submit: 2000, Duration: 60},
	}
	jobs, _, err := Jobs(rows, Options{MaxNodes: 4})
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	want := []int64{1, 5, 2, 3}
	for i, j := range jobs {
		if j.ID != want[i] {
			t.Fatalf("job order %d = ID %d, want %d", i, j.ID, want[i])
		}
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].SubmitTime < jobs[i-1].SubmitTime {
			t.Fatalf("jobs not sorted by submit at %d", i)
		}
	}
}

func TestJobsExceedingCapacity(t *testing.T) {
	rows := []Row{{ID: 1, Nodes: 100, Submit: 1000, Duration: 60}}
	if _, _, err := Jobs(rows, Options{MaxNodes: 64}); !errors.Is(err, ErrTrace) {
		t.Errorf("oversized job err = %v, want ErrTrace", err)
	}
	if _, _, err := Jobs(rows, Options{}); !errors.Is(err, ErrTrace) {
		t.Errorf("zero capacity err = %v, want ErrTrace", err)
	}
}

func TestJobsZeroDurationDropped(t *testing.T) {
	rows := []Row{
		{ID: 1, Nodes: 1, Submit: 1000, Duration: 60},
		{ID: 2, Nodes: 1, Submit: 1000, Start: 1000, End: 1000}, // zero runtime
		{ID: 3, Nodes: 1, Submit: 2000, Duration: 0, End: 0},    // no end at all
	}
	jobs, st, err := Jobs(rows, Options{MaxNodes: 4})
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	if len(jobs) != 1 || st.ZeroDuration != 2 || st.Jobs != 1 {
		t.Errorf("jobs %d, stats %+v; want 1 job, 2 zero-duration", len(jobs), st)
	}
}

func TestJobsRebaseAndHorizon(t *testing.T) {
	rows := []Row{
		{ID: 1, Nodes: 2, Submit: 1_000_000, Duration: 600},
		{ID: 2, Nodes: 2, Submit: 1_000_500, Duration: 600},
		{ID: 3, Nodes: 2, Submit: 1_009_999, Duration: 600}, // beyond horizon
	}
	jobs, st, err := Jobs(rows, Options{MaxNodes: 8, StartTime: 5000, HorizonSec: 3600})
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	if st.RebaseShiftSec != 5000-1_000_000 {
		t.Errorf("rebase shift = %d", st.RebaseShiftSec)
	}
	if len(jobs) != 2 || st.BeyondHorizon != 1 {
		t.Fatalf("jobs %d beyond %d, want 2 and 1", len(jobs), st.BeyondHorizon)
	}
	if jobs[0].SubmitTime != 5000 || jobs[1].SubmitTime != 5500 {
		t.Errorf("rebased submits = %d, %d", jobs[0].SubmitTime, jobs[1].SubmitTime)
	}
	if jobs[0].Duration != 600 {
		t.Errorf("duration changed by rebase: %d", jobs[0].Duration)
	}
}

func TestJobsInvalidRows(t *testing.T) {
	cases := []struct {
		name string
		csv  string
		want string // in the error, when set
	}{
		{"no nodes", "submit,duration,nodes\n1,60,\n", ""},
		{"no times", "duration,nodes\n60,1\n", ""},
		{"start before submit", "submit,start,duration,nodes\n100,50,60,1\n", ""},
		{"end before start", "submit,start,end,nodes\n100,100,40,1\n", ""},
		{"duplicate job ID", duplicateIDTrace, "rows 1 and 3 share job ID 7"},
		{"job ID repeating a row number", "job_id,submit,duration,nodes\n,100,60,1\n1,200,60,1\n", "rows 1 and 2 share job ID 1"},
	}
	for _, c := range cases {
		_, _, err := Jobs(mustParse(t, c.csv), Options{MaxNodes: 4})
		if !errors.Is(err, ErrTrace) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want ErrTrace naming %q", c.name, err, c.want)
		}
	}
}

// duplicateIDTrace repeats job ID 7 on rows 1 and 3. Replayed, both jobs
// would key one power series and one project in every analysis.
const duplicateIDTrace = "job_id,submit,duration,nodes\n7,100,600,2\n8,150,600,1\n7,200,600,2\n"

func TestJobsProfileResolution(t *testing.T) {
	rows := []Row{
		{ID: 1, Nodes: 1, Submit: 1000, Duration: 600, Class: "gpu_phasic"},
		{ID: 2, Nodes: 1, Submit: 1001, Duration: 600, PowerW: 1500},
		{ID: 3, Nodes: 1, Submit: 1002, Duration: 600}, // neither: hashed archetype
	}
	jobs, _, err := Jobs(rows, Options{MaxNodes: 4, Seed: 42})
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	want, _ := workload.ArchetypeByName("gpu_phasic")
	if jobs[0].Profile != want.Profile {
		t.Errorf("class-tagged job got profile %+v", jobs[0].Profile)
	}
	if jobs[1].Profile.SwingFrac != 0 || jobs[1].Profile.Duty != 1 {
		t.Errorf("power-hint job profile not flat: %+v", jobs[1].Profile)
	}
	if !archetypeProfile(jobs[2].Profile) {
		t.Errorf("hashed profile is no archetype's: %+v", jobs[2].Profile)
	}
	// The untagged draw is deterministic in (seed, ID).
	again, _, err := Jobs(rows, Options{MaxNodes: 4, Seed: 42})
	if err != nil {
		t.Fatalf("Jobs again: %v", err)
	}
	if jobs[2].Profile != again[2].Profile {
		t.Errorf("hashed archetype not deterministic")
	}
}

func TestJobsPeakConcurrency(t *testing.T) {
	rows := []Row{
		{ID: 1, Nodes: 4, Submit: 10, Start: 10, End: 110},
		{ID: 2, Nodes: 4, Submit: 10, Start: 60, End: 160},
		{ID: 3, Nodes: 4, Submit: 10, Start: 110, End: 210}, // 1 ends exactly as 3 starts
	}
	_, st, err := Jobs(rows, Options{MaxNodes: 8})
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	if st.PeakNodes != 8 {
		t.Errorf("peak = %d, want 8 (release-before-claim at boundaries)", st.PeakNodes)
	}
}

func TestJobsIDOffsetAndDefaults(t *testing.T) {
	rows := []Row{{Nodes: 2, Submit: 1000, Duration: 600, Walltime: 100}}
	jobs, _, err := Jobs(rows, Options{MaxNodes: 4, IDOffset: 1 << 20})
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	j := jobs[0]
	if j.ID != 1+1<<20 {
		t.Errorf("ID = %d, want offset row order", j.ID)
	}
	if j.Project != "TRACE" || j.User == "" {
		t.Errorf("defaults not applied: %+v", j)
	}
	if j.WalltimeReq != 600 { // requested walltime below runtime is raised
		t.Errorf("walltime = %d, want 600", j.WalltimeReq)
	}
}

func TestBuiltinSample(t *testing.T) {
	rows, err := BuiltinSample()
	if err != nil {
		t.Fatalf("BuiltinSample: %v", err)
	}
	if len(rows) < 30 {
		t.Fatalf("sample has %d rows, want a realistic population", len(rows))
	}
	jobs, st, err := Jobs(rows, Options{MaxNodes: 64, StartTime: 1_577_836_800, Seed: 2020})
	if err != nil {
		t.Fatalf("sample conversion: %v", err)
	}
	if st.ZeroDuration != 2 {
		t.Errorf("sample zero-duration rows = %d, want 2", st.ZeroDuration)
	}
	// Peak concurrency reflects the source machine's schedule; it may
	// exceed the replay capacity (the sim scheduler queues), so it is
	// reported as a statistic rather than enforced.
	if st.PeakNodes <= 0 {
		t.Errorf("sample peak nodes = %d, want > 0", st.PeakNodes)
	}
	for i, j := range jobs {
		// A sample profile is an archetype's, or the flat one a power hint
		// resolves to, whose one free field is the utilization.
		p := j.Profile
		flat := p.Duty == 1 && p.SwingFrac == 0 && p.GPUUtil >= 0 && p.GPUUtil <= 1
		if j.Nodes <= 0 || j.Duration <= 0 || !(flat || archetypeProfile(p)) {
			t.Fatalf("sample job %d invalid: %+v", i, j)
		}
	}
	// The builtin bytes accessor returns a defensive copy.
	b := BuiltinSampleBytes()
	b[0] ^= 0xff
	if b2 := BuiltinSampleBytes(); b2[0] == b[0] {
		t.Error("BuiltinSampleBytes aliases the embedded data")
	}
}

// FuzzParseTrace drives the CSV parser with arbitrary inputs: it must
// never panic, and whatever parses must convert without panicking either.
func FuzzParseTrace(f *testing.F) {
	f.Add(header + "1,a,P,1000,1060,4660,4,7200,gpu_phasic,\n")
	f.Add(header)
	f.Add("job_id,nodes\n1,1\n")
	f.Add("nodes\n1,\n")
	f.Add("# comment\nnodes,duration,submit\n3,60,5\n")
	f.Add(string(BuiltinSampleBytes()))
	f.Fuzz(func(t *testing.T, input string) {
		rows, err := ParseCSV(strings.NewReader(input))
		if err != nil {
			if !errors.Is(err, ErrTrace) {
				t.Fatalf("non-ErrTrace parse error: %v", err)
			}
			return
		}
		jobs, _, err := Jobs(rows, Options{MaxNodes: 64, StartTime: 1000, HorizonSec: 86400})
		if err != nil {
			return
		}
		for i := 1; i < len(jobs); i++ {
			if jobs[i].SubmitTime < jobs[i-1].SubmitTime {
				t.Fatalf("converted jobs unsorted at %d", i)
			}
		}
	})
}

// archetypeProfile reports whether p is one of the workload archetypes'
// profiles, which the workload tests hold valid.
func archetypeProfile(p workload.Profile) bool {
	return slices.ContainsFunc(workload.Archetypes(), func(a workload.Archetype) bool { return a.Profile == p })
}
