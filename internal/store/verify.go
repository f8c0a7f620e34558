package store

import (
	"fmt"
	"io"
	"os"
)

// DayCheck is what VerifyDay found in one partition.
type DayCheck struct {
	Members bool // read member by member, by its directory
	// Strided: some float column XORs each value with one further back than
	// the previous row (Column.Stride).
	Strided  bool
	Problems []error
}

// VerifyDay is the offline check of one partition (`analyze -cmd fsck`): it
// reads the day the way no serving read does — every column decoded, none
// stepped over — so every gzip member's CRC-32 and length are checked, and
// holds what the directory claims (member lengths, each column's kind and
// stride, each integer column's range and order, no bytes after the last
// member) to what was decoded. Each problem names the partition and, where
// there is one, the column. Nothing after a column that fails to read is
// looked at: where it ends is no longer known.
func (d *Dataset) VerifyDay(day int) (check DayCheck) {
	fail := func(err error) { check.Problems = append(check.Problems, d.partitionErr(day, err)) }
	f, err := os.Open(d.dayPath(day))
	if err != nil {
		fail(err)
		return check
	}
	defer f.Close()
	sr, err := NewReader(f)
	if err != nil {
		fail(err)
		return check
	}
	defer sr.Close()
	if sr.dirErr != nil {
		fail(sr.dirErr) // and the partition is read as the stream it still is
	}
	check.Members = sr.seek != nil
	for {
		info, err := sr.Next()
		if err == io.EOF {
			break
		}
		var col *Column
		if err == nil {
			col, err = sr.Column() // in members, also holds the member's kind and stride to the directory's
		}
		if err != nil {
			fail(err)
			return check
		}
		check.Strided = check.Strided || sr.stride > 1
		if check.Members && info.Int {
			e := sr.dir.cols[sr.read-1]
			if lo, hi, sorted := intStats(col.Ints); lo != e.min || hi != e.max || sorted != e.sorted {
				fail(fmt.Errorf("store: column %q: the directory says min %d, max %d, non-decreasing %v; the values say %d, %d, %v",
					info.Name, e.min, e.max, e.sorted, lo, hi, sorted))
			}
		}
	}
	if check.Members {
		if fi, err := f.Stat(); err != nil {
			fail(err)
		} else if fi.Size() != sr.next {
			fail(fmt.Errorf("store: the last member ends at byte %d, the file at %d", sr.next, fi.Size()))
		}
	}
	return check
}
