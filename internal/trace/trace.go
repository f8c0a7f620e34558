// Package trace ingests external job schedules — CSV or JSON traces of a
// real system's scheduler log — and converts them into the simulator's
// workload form, so the twin replays recorded campaigns instead of (or
// mixed with) the calibrated synthetic generator. Following the MIT
// SuperCloud trace-replay methodology, a replayed trace is rebased onto
// the simulated span and driven through the same scheduler as generated
// jobs: the trace supplies submit times, sizes and application behaviour;
// the twin supplies placement, power, thermals and failures.
//
// # Column mapping
//
// A trace is a table with one row per job. CSV traces carry a header row;
// JSON traces are an array of objects. Recognized columns (aliases in
// parentheses; times are unix seconds):
//
//	job_id   (id)                  optional  unique job identity; default row number
//	user                           optional
//	project                        optional  also selects the simulated science domain
//	submit   (submit_time)         *         submit time; defaults to start
//	start    (start_time, begin)   *         recorded start; defaults to submit
//	end      (end_time)            *         recorded end; or use duration
//	duration (duration_sec)        *         alternative to end
//	nodes    (node_count)          required  allocation size
//	walltime (walltime_sec, req)   optional  requested walltime; default duration
//	class    (app_class, app)      optional  application archetype tag
//	power    (power_w, power_hint_w) optional mean node power hint, watts
//
// (*) every row needs at least one of submit/start and one of
// end/duration. Rows with an application-class tag replay that archetype's
// power profile; rows with only a power hint replay a flat profile
// matching the hinted mean node power; rows with neither draw a
// deterministic archetype from the job identity.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

// ErrTrace marks an invalid trace file or row; specific violations wrap it.
var ErrTrace = errors.New("trace: invalid trace")

// Row is one parsed trace record, before conversion to a workload job.
// Zero-valued optional fields mean "absent".
type Row struct {
	ID       int64   `json:"job_id,omitempty"`
	User     string  `json:"user,omitempty"`
	Project  string  `json:"project,omitempty"`
	Submit   int64   `json:"submit,omitempty"`
	Start    int64   `json:"start,omitempty"`
	End      int64   `json:"end,omitempty"`
	Duration int64   `json:"duration,omitempty"`
	Nodes    int     `json:"nodes"`
	Walltime int64   `json:"walltime,omitempty"`
	Class    string  `json:"class,omitempty"`
	PowerW   float64 `json:"power_w,omitempty"`
}

// column indexes the recognized header names onto Row fields.
type column int

const (
	colID column = iota
	colUser
	colProject
	colSubmit
	colStart
	colEnd
	colDuration
	colNodes
	colWalltime
	colClass
	colPower
	colUnknown
)

// columnOf resolves a header cell (case-insensitive, trimmed) to a column.
func columnOf(name string) column {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "job_id", "id":
		return colID
	case "user":
		return colUser
	case "project":
		return colProject
	case "submit", "submit_time":
		return colSubmit
	case "start", "start_time", "begin":
		return colStart
	case "end", "end_time":
		return colEnd
	case "duration", "duration_sec":
		return colDuration
	case "nodes", "node_count":
		return colNodes
	case "walltime", "walltime_sec", "req":
		return colWalltime
	case "class", "app_class", "app":
		return colClass
	case "power", "power_w", "power_hint_w":
		return colPower
	default:
		return colUnknown
	}
}

// ParseCSV reads a header-mapped CSV trace. Lines starting with '#' are
// comments. A single trailing empty field (the trailing-comma artifact
// common in exported scheduler logs) is tolerated; genuinely short rows
// are an error naming the offending line.
func ParseCSV(r io.Reader) ([]Row, error) {
	cr := csv.NewReader(r)
	cr.Comment = '#'
	cr.FieldsPerRecord = -1 // row widths validated against the header below
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("%w: empty trace (no header)", ErrTrace)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrTrace, err)
	}
	cols := make([]column, len(header))
	seen := map[column]bool{}
	for i, h := range header {
		c := columnOf(h)
		cols[i] = c
		if c == colUnknown {
			continue
		}
		if seen[c] {
			return nil, fmt.Errorf("%w: duplicate column %q", ErrTrace, h)
		}
		seen[c] = true
	}
	if !seen[colNodes] {
		return nil, fmt.Errorf("%w: missing required column nodes", ErrTrace)
	}
	var rows []Row
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrTrace, line, err)
		}
		if len(rec) == len(header)+1 && rec[len(rec)-1] == "" {
			rec = rec[:len(rec)-1] // trailing comma
		}
		if len(rec) < len(header) {
			return nil, fmt.Errorf("%w: line %d: %d field(s), header has %d",
				ErrTrace, line, len(rec), len(header))
		}
		if len(rec) > len(header) {
			return nil, fmt.Errorf("%w: line %d: %d field(s) overflow the %d-column header",
				ErrTrace, line, len(rec), len(header))
		}
		var row Row
		for i, cell := range rec {
			if err := setField(&row, cols[i], cell); err != nil {
				return nil, fmt.Errorf("%w: line %d column %q: %v",
					ErrTrace, line, header[i], err)
			}
		}
		rows = append(rows, row)
	}
}

// setField parses one cell into its Row field. Empty cells leave the
// zero value (absent).
func setField(row *Row, c column, cell string) error {
	cell = strings.TrimSpace(cell)
	if cell == "" || c == colUnknown {
		return nil
	}
	switch c {
	case colUser:
		row.User = cell
		return nil
	case colProject:
		row.Project = cell
		return nil
	case colClass:
		row.Class = cell
		return nil
	case colPower:
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return fmt.Errorf("bad power %q", cell)
		}
		row.PowerW = v
		return nil
	}
	v, err := strconv.ParseInt(cell, 10, 64)
	if err != nil {
		return fmt.Errorf("bad integer %q", cell)
	}
	switch c {
	case colID:
		row.ID = v
	case colSubmit:
		row.Submit = v
	case colStart:
		row.Start = v
	case colEnd:
		row.End = v
	case colDuration:
		row.Duration = v
	case colNodes:
		row.Nodes = int(v)
	case colWalltime:
		row.Walltime = v
	}
	return nil
}

// ParseJSON reads a JSON trace: an array of objects with the Row field
// names of the column mapping.
func ParseJSON(r io.Reader) ([]Row, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var rows []Row
	if err := dec.Decode(&rows); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTrace, err)
	}
	return rows, nil
}

// Options parameterizes the Row → workload.Job conversion.
type Options struct {
	// MaxNodes is the simulated system size; any single job above it is
	// rejected (it could never schedule).
	MaxNodes int
	// StartTime, when non-zero, rebases the trace: every submit time is
	// shifted so the earliest submit lands exactly on StartTime. A 2019
	// trace then replays onto any simulated span.
	StartTime int64
	// HorizonSec, when positive, clips the (rebased) trace to the span:
	// jobs submitting at or after StartTime+HorizonSec are dropped. Jobs
	// may still run past the horizon, exactly as generated jobs do.
	HorizonSec int64
	// Seed keys the deterministic archetype assignment for rows carrying
	// neither an application class nor a power hint.
	Seed uint64
	// IDOffset shifts every job ID, keeping replayed identities disjoint
	// from a generated population when the two are mixed.
	IDOffset int64
}

// Stats summarizes a conversion: what was kept, dropped, and the trace's
// recorded concurrency against the configured capacity.
type Stats struct {
	Rows           int   // parsed input rows
	Jobs           int   // jobs produced
	ZeroDuration   int   // rows dropped for zero recorded runtime
	BeyondHorizon  int   // rows dropped by horizon clipping
	PeakNodes      int   // peak concurrent node demand of the recorded schedule
	RebaseShiftSec int64 // seconds the trace was shifted by rebasing
	SpanSec        int64 // submit-time span of the produced jobs
}

// Jobs converts parsed trace rows into a workload job population sorted by
// submit time with deterministic tie-breaking (submit, job ID, input
// order), validating sizes against the system capacity and job IDs for
// uniqueness (a job ID keys the job in every analysis), rebasing onto the
// simulated span, and clipping to the horizon.
//
//lint:detroot
func Jobs(rows []Row, opt Options) ([]workload.Job, Stats, error) {
	var st Stats
	st.Rows = len(rows)
	if opt.MaxNodes <= 0 {
		return nil, st, fmt.Errorf("%w: non-positive capacity %d", ErrTrace, opt.MaxNodes)
	}
	type cand struct {
		row      Row
		order    int
		submit   int64
		duration int64
	}
	cands := make([]cand, 0, len(rows))
	rowOf := make(map[int64]int, len(rows)) // job ID -> the row that has it
	for i, row := range rows {
		if row.Nodes <= 0 {
			return nil, st, fmt.Errorf("%w: row %d: non-positive nodes %d", ErrTrace, i+1, row.Nodes)
		}
		if row.Nodes > opt.MaxNodes {
			return nil, st, fmt.Errorf("%w: row %d: %d nodes exceed the %d-node system",
				ErrTrace, i+1, row.Nodes, opt.MaxNodes)
		}
		if row.ID == 0 {
			row.ID = int64(i + 1)
		}
		if first, dup := rowOf[row.ID]; dup {
			return nil, st, fmt.Errorf("%w: rows %d and %d share job ID %d", ErrTrace, first, i+1, row.ID)
		}
		rowOf[row.ID] = i + 1
		submit := row.Submit
		if submit == 0 {
			submit = row.Start
		}
		start := row.Start
		if start == 0 {
			start = submit
		}
		if submit == 0 && start == 0 {
			return nil, st, fmt.Errorf("%w: row %d: no submit or start time", ErrTrace, i+1)
		}
		if start < submit {
			return nil, st, fmt.Errorf("%w: row %d: start %d before submit %d",
				ErrTrace, i+1, start, submit)
		}
		dur := row.Duration
		if dur == 0 && row.End != 0 {
			dur = row.End - start
		}
		if dur < 0 {
			return nil, st, fmt.Errorf("%w: row %d: negative runtime (end %d before start %d)",
				ErrTrace, i+1, row.End, start)
		}
		if dur == 0 {
			st.ZeroDuration++
			continue
		}
		cands = append(cands, cand{row: row, order: i, submit: submit, duration: dur})
	}
	if len(cands) == 0 {
		return nil, st, fmt.Errorf("%w: no runnable jobs (of %d row(s), %d zero-duration)",
			ErrTrace, len(rows), st.ZeroDuration)
	}
	// The recorded schedule's peak concurrency, for capacity reporting:
	// sweep the start/end events of the rows as the source system ran them
	// (falling back to submit when the trace carries no recorded start).
	windows := make([]candTimes, len(cands))
	for i, c := range cands {
		start := c.row.Start
		if start == 0 {
			start = c.submit
		}
		windows[i] = candTimes{start: start, end: start + c.duration, nodes: c.row.Nodes}
	}
	st.PeakNodes = peakConcurrency(windows)
	// Rebase: shift so the earliest submit lands on StartTime.
	var shift int64
	if opt.StartTime != 0 {
		minSubmit := cands[0].submit
		for _, c := range cands[1:] {
			if c.submit < minSubmit {
				minSubmit = c.submit
			}
		}
		shift = opt.StartTime - minSubmit
	}
	st.RebaseShiftSec = shift
	kept := cands[:0]
	for _, c := range cands {
		c.submit += shift
		if opt.HorizonSec > 0 && c.submit >= opt.StartTime+opt.HorizonSec {
			st.BeyondHorizon++
			continue
		}
		kept = append(kept, c)
	}
	if len(kept) == 0 {
		return nil, st, fmt.Errorf("%w: horizon clipping dropped every job", ErrTrace)
	}
	sort.SliceStable(kept, func(a, b int) bool {
		if kept[a].submit != kept[b].submit {
			return kept[a].submit < kept[b].submit
		}
		if kept[a].row.ID != kept[b].row.ID {
			return kept[a].row.ID < kept[b].row.ID
		}
		return kept[a].order < kept[b].order
	})
	jobs := make([]workload.Job, len(kept))
	for i, c := range kept {
		row := c.row
		walltime := row.Walltime
		if walltime < c.duration {
			walltime = c.duration
		}
		user := row.User
		if user == "" {
			user = fmt.Sprintf("trace%03d", row.ID%1000)
		}
		project := row.Project
		if project == "" {
			project = "TRACE"
		}
		jobs[i] = workload.Job{
			ID:          row.ID + opt.IDOffset,
			User:        user,
			Project:     project,
			Domain:      domainFor(project),
			Class:       units.ClassForNodes(row.Nodes),
			Nodes:       row.Nodes,
			SubmitTime:  c.submit,
			WalltimeReq: walltime,
			Duration:    c.duration,
			Profile:     profileFor(row, opt.Seed),
		}
	}
	st.Jobs = len(jobs)
	st.SpanSec = jobs[len(jobs)-1].SubmitTime - jobs[0].SubmitTime
	return jobs, st, nil
}

// candTimes is the minimal view peakConcurrency needs.
type candTimes struct {
	start, end int64
	nodes      int
}

// peakConcurrency sweeps the recorded schedule's start/end events and
// returns the peak simultaneous node demand.
func peakConcurrency(cs []candTimes) int {
	type event struct {
		t     int64
		delta int
	}
	evs := make([]event, 0, 2*len(cs))
	for _, c := range cs {
		evs = append(evs, event{c.start, c.nodes}, event{c.end, -c.nodes})
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		return evs[a].delta < evs[b].delta // releases before claims at a boundary
	})
	cur, peak := 0, 0
	for _, e := range evs {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// domainFor assigns a stable science domain from the project label (FNV-1a
// over the string), so a project's jobs always land in one domain.
func domainFor(project string) workload.Domain {
	return workload.Domain(rng.HashString(project) % uint64(workload.NumDomains))
}

// profileFor resolves a row's power profile: the tagged archetype when
// present, a flat profile matching the power hint otherwise, and failing
// both a deterministic archetype keyed by (seed, job ID).
func profileFor(row Row, seed uint64) workload.Profile {
	if row.Class != "" {
		if a, ok := workload.ArchetypeByName(row.Class); ok {
			return a.Profile
		}
	}
	if row.PowerW > 0 {
		return workload.MeanPowerProfile(units.Watts(row.PowerW))
	}
	arch := workload.Archetypes()
	z := rng.Mix64(seed + uint64(row.ID)*0x9e3779b97f4a7c15)
	return arch[z%uint64(len(arch))].Profile
}
