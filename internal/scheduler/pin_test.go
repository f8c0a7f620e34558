package scheduler_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/scheduler"
	"repro/internal/sim"
)

// uncappedPin is the sha256 of pinWorkloads' uncapped schedules, recorded
// from the FCFS+backfill loop that ran before the power-aware loop became
// the only one. Never re-record it for a refactor: a change that moves it
// changes who runs when.
const uncappedPin = "5996d68a7644fee57f78e2eb650c8a61173c97765b405bd66e69174befebfe0d"

// pinWorkloads are generated workloads of the sizes the twin runs. In
// Summit at 48 h, seed 4, jobs end in the very second others arrive, and
// the order matters: a loop that queues those arrivals before it fills the
// freed nodes schedules it differently.
var pinWorkloads = []struct {
	nodes int
	hours int64
	seed  uint64
}{
	{8, 168, 1}, {36, 48, 2}, {64, 96, 3}, {256, 12, 5}, {1024, 12, 1}, {4626, 48, 4},
}

// writeSchedule hashes what a schedule decides: every allocation's job,
// start, end and nodes, then the skipped jobs.
func writeSchedule(h hash.Hash, res *scheduler.Result) {
	put := func(v int64) { _ = binary.Write(h, binary.LittleEndian, v) }
	put(int64(len(res.Allocations)))
	for _, a := range res.Allocations {
		put(a.Job.ID)
		put(a.StartTime)
		put(a.EndTime)
		put(int64(len(a.NodeIDs)))
		for _, id := range a.NodeIDs {
			put(int64(id))
		}
	}
	put(int64(len(res.Skipped)))
	for _, j := range res.Skipped {
		put(j.ID)
	}
}

func TestUncappedSchedulePin(t *testing.T) {
	h := sha256.New()
	for _, w := range pinWorkloads {
		cfg := sim.Scaled(w.nodes, w.hours*3600)
		cfg.Seed = w.seed
		jobs, err := cfg.GenerateWorkload()
		if err != nil {
			t.Fatal(err)
		}
		res, err := scheduler.ScheduleWithPolicy(jobs, w.nodes, scheduler.Policy{})
		if err != nil {
			t.Fatalf("%d nodes, %d h, seed %d: %v", w.nodes, w.hours, w.seed, err)
		}
		fmt.Fprintf(h, "%d/%d/%d:", w.nodes, w.hours, w.seed)
		writeSchedule(h, res)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != uncappedPin {
		t.Errorf("uncapped schedules hash %s, pinned %s", got, uncappedPin)
	}
}
