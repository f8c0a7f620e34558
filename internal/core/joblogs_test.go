package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/topology"
)

func TestAllocationCSVRoundTrip(t *testing.T) {
	d := testData(t)
	var buf bytes.Buffer
	if err := WriteAllocationCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	rows, err := ReadAllocationCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(d.Allocations) {
		t.Fatalf("rows = %d, want %d", len(rows), len(d.Allocations))
	}
	for i, row := range rows {
		a := &d.Allocations[i]
		if row.ID != a.Job.ID || row.Nodes != a.Job.Nodes ||
			row.BeginTime != a.StartTime || row.EndTime != a.EndTime ||
			row.Class != a.Job.Class || row.Project != a.Job.Project {
			t.Fatalf("row %d mismatch: %+v vs alloc %+v", i, row, a)
		}
		if dom, ok := DomainByName(row.Domain); !ok || dom != a.Job.Domain {
			t.Fatalf("row %d domain %q unresolvable", i, row.Domain)
		}
	}
}

func TestPerNodeCSV(t *testing.T) {
	d := testData(t)
	var buf bytes.Buffer
	if err := WritePerNodeCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	wantRows := 0
	for i := range d.Allocations {
		wantRows += len(d.Allocations[i].NodeIDs)
	}
	if len(lines) != wantRows+1 {
		t.Fatalf("lines = %d, want %d (+header)", len(lines), wantRows+1)
	}
	// Every hostname must name a node of the floor.
	floor, err := topology.New(topology.ScaledConfig(d.Nodes))
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[string]bool{}
	for id := topology.NodeID(0); int(id) < floor.Nodes(); id++ {
		hosts[floor.Hostname(id)] = true
	}
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != 4 {
			t.Fatalf("bad row %q", line)
		}
		if !hosts[fields[1]] {
			t.Fatalf("hostname %q names no node of the floor", fields[1])
		}
	}
}

func TestReadAllocationCSVErrors(t *testing.T) {
	cases := []string{
		"",      // no header
		"a,b,c", // wrong column count
		// Wrong column name.
		"allocation_id,user,project,domain,class,num_nodes,submit_time,begin_time,WRONG\n",
		// Bad class value.
		"allocation_id,user,project,domain,class,num_nodes,submit_time,begin_time,end_time\n" +
			"1,u,p,d,9,4,0,10,20\n",
		// Times out of order.
		"allocation_id,user,project,domain,class,num_nodes,submit_time,begin_time,end_time\n" +
			"1,u,p,d,3,100,50,40,60\n",
		// Non-numeric node count.
		"allocation_id,user,project,domain,class,num_nodes,submit_time,begin_time,end_time\n" +
			"1,u,p,d,3,xx,0,10,20\n",
	}
	for i, in := range cases {
		if _, err := ReadAllocationCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted: %q", i, in)
		}
	}
	// Valid single row parses.
	good := "allocation_id,user,project,domain,class,num_nodes,submit_time,begin_time,end_time\n" +
		"7,user001,MAT01,Materials,3,100,5,10,20\n"
	rows, err := ReadAllocationCSV(strings.NewReader(good))
	if err != nil || len(rows) != 1 || rows[0].ID != 7 {
		t.Errorf("good row failed: %v, %v", rows, err)
	}
}

func TestDomainByNameUnknown(t *testing.T) {
	if _, ok := DomainByName("Astrology"); ok {
		t.Error("unknown domain resolved")
	}
}
