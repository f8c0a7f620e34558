package scheduler

import (
	"errors"
	"math"
	"testing"

	"repro/internal/topology"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestParsePlacement(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Placement
	}{
		{"", PlaceContiguous},
		{"contiguous", PlaceContiguous},
		{"packed", PlacePacked},
		{"scatter", PlaceScatter},
	} {
		got, err := ParsePlacement(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePlacement(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if got.String() == "" {
			t.Errorf("Placement(%v).String() empty", got)
		}
	}
	if _, err := ParsePlacement("ring"); !errors.Is(err, ErrPolicy) {
		t.Errorf("ParsePlacement(ring) = %v, want ErrPolicy", err)
	}
}

func TestTakePacked(t *testing.T) {
	f := newFreePool(8)
	got := f.take(3, PlacePacked)
	want := []topology.NodeID{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("packed take = %v, want %v", got, want)
		}
	}
	// Fragment the pool and take again: still lowest free first.
	f.release([]topology.NodeID{1})
	got = f.take(2, PlacePacked)
	if got[0] != 1 || got[1] != 3 {
		t.Fatalf("packed take after fragmenting = %v, want [1 3]", got)
	}
}

func TestTakeScatterSpreads(t *testing.T) {
	f := newFreePool(16)
	got := f.take(4, PlaceScatter)
	// 4 nodes over 16 free: evenly spaced, stride 4.
	want := []topology.NodeID{0, 4, 8, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scatter take = %v, want %v", got, want)
		}
	}
}

func TestSchedulePlacementsDiffer(t *testing.T) {
	// Same workload, different placements: scatter must produce a less
	// compact first allocation than contiguous, and all placements must
	// run the same jobs.
	jobs := []workload.Job{mkJob(1, 0, 4, 100), mkJob(2, 0, 4, 100)}
	spans := map[Placement]topology.NodeID{}
	for _, pl := range []Placement{PlaceContiguous, PlacePacked, PlaceScatter} {
		res, err := ScheduleWithPolicy(jobs, 16, Policy{Placement: pl})
		if err != nil {
			t.Fatalf("%v: %v", pl, err)
		}
		if len(res.Allocations) != 2 {
			t.Fatalf("%v: %d allocations, want 2", pl, len(res.Allocations))
		}
		ids := res.Allocations[0].NodeIDs
		spans[pl] = ids[len(ids)-1] - ids[0]
	}
	if spans[PlaceScatter] <= spans[PlaceContiguous] {
		t.Errorf("scatter span %d must exceed contiguous span %d",
			spans[PlaceScatter], spans[PlaceContiguous])
	}
}

func TestPolicyValidate(t *testing.T) {
	cases := []struct {
		name string
		pol  Policy
		ok   bool
	}{
		{"zero", Policy{}, true},
		{"placement out of range", Policy{Placement: Placement(7)}, false},
		{"negative cap", Policy{PowerCap: -1}, false},
		{"negative schedule cap", Policy{CapSchedule: []CapStep{{AtSec: 0, Cap: -5}}}, false},
		{"non-monotone schedule", Policy{CapSchedule: []CapStep{
			{AtSec: 100, Cap: 1e6}, {AtSec: 100, Cap: 2e6}}}, false},
		{"decreasing schedule times", Policy{CapSchedule: []CapStep{
			{AtSec: 200, Cap: 1e6}, {AtSec: 100, Cap: 2e6}}}, false},
		{"valid schedule", Policy{CapSchedule: []CapStep{
			{AtSec: 100, Cap: 1e6}, {AtSec: 200, Cap: 0}}}, true},
		// A NaN cap blocks no admission (every comparison with it is
		// false), so it would schedule as if uncapped.
		{"NaN cap", Policy{PowerCap: units.Watts(math.NaN())}, false},
		{"+Inf cap", Policy{PowerCap: units.Watts(math.Inf(1))}, false},
		{"NaN schedule cap", Policy{CapSchedule: []CapStep{
			{AtSec: 0, Cap: 1e6}, {AtSec: 100, Cap: units.Watts(math.NaN())}}}, false},
		{"+Inf schedule cap", Policy{CapSchedule: []CapStep{{AtSec: 0, Cap: units.Watts(math.Inf(1))}}}, false},
	}
	for _, tc := range cases {
		err := tc.pol.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: expected error", tc.name)
			} else if !errors.Is(err, ErrPolicy) {
				t.Errorf("%s: error %v does not wrap ErrPolicy", tc.name, err)
			}
		}
	}
}

func TestCapAt(t *testing.T) {
	p := Policy{PowerCap: 10e6, CapSchedule: []CapStep{
		{AtSec: 100, Cap: 5e6},
		{AtSec: 200, Cap: 0},
		{AtSec: 300, Cap: 8e6},
	}}
	for _, tc := range []struct {
		t    int64
		want units.Watts
	}{{0, 10e6}, {99, 10e6}, {100, 5e6}, {199, 5e6}, {200, 0}, {300, 8e6}, {1e6, 8e6}} {
		if got := p.capAt(tc.t); math.Abs(float64(got-tc.want)) > 0.5 {
			t.Errorf("capAt(%d) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestCapScheduleDelaysAdmission(t *testing.T) {
	// One hot job submitted during a tight cap window must wait for the
	// scheduled cap raise at t=500 rather than being skipped.
	job := gpuHeavyJob(1, 0, 4, 100)
	est := float64(DefaultNodePowerEstimate(&job)) * 4
	tight := est * 0.5 // below the job's own draw: blocks admission
	loose := est * 4
	res, err := ScheduleWithPolicy([]workload.Job{job}, 8, Policy{
		PowerCap: 20e6, // generous until the schedule takes over
		CapSchedule: []CapStep{
			{AtSec: -1000, Cap: units.Watts(tight)},
			{AtSec: 500, Cap: units.Watts(loose)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skipped) != 0 {
		t.Fatalf("job skipped under a schedule that later admits it")
	}
	if len(res.Allocations) != 1 {
		t.Fatalf("%d allocations, want 1", len(res.Allocations))
	}
	if got := res.Allocations[0].StartTime; got != 500 {
		t.Errorf("start = %d, want 500 (the cap-raise boundary)", got)
	}
}

func TestCapScheduleTerminalSkip(t *testing.T) {
	// A job that the final cap can never admit ends up in Skipped, not a
	// "stuck in queue" error.
	job := gpuHeavyJob(1, 0, 4, 100)
	est := float64(DefaultNodePowerEstimate(&job)) * 4
	res, err := ScheduleWithPolicy([]workload.Job{job}, 8, Policy{
		CapSchedule: []CapStep{{AtSec: -1000, Cap: units.Watts(est * 0.5)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skipped) != 1 || len(res.Allocations) != 0 {
		t.Errorf("skipped=%d allocs=%d, want 1/0", len(res.Skipped), len(res.Allocations))
	}
}
