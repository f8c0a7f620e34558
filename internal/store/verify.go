package store

import (
	"fmt"
	"io"
	"os"
)

// DayCheck is what VerifyDay found in one partition.
type DayCheck struct {
	// Strided: some float column XORs each value with one further back than
	// the previous row (Column.Stride).
	Strided bool
	// Companion: one more whole partition follows the day's own in its file
	// (Dataset.Companion), and was read the same way.
	Companion bool
	Problems  []error
}

// VerifyDay is the offline check of one partition (`summitsim -fsck`): it
// reads the day the way no serving read does — every column decoded, none
// stepped over — so every gzip member's CRC-32 and length are checked, and
// holds what the directory claims (member lengths, each column's kind and
// stride, each integer column's range and order) to what was decoded. What
// follows the last member must be one whole partition, the day's companion,
// checked the same way and ending with the file. Each problem names the
// partition and, where there is one, the column. Nothing after a column that
// fails to read is looked at: where it ends is no longer known.
func (d *Dataset) VerifyDay(day int) (check DayCheck) {
	fail := func(err error) { check.Problems = append(check.Problems, d.partitionErr(day, err)) }
	f, err := os.Open(d.dayPath(day))
	var sr *Reader
	if err == nil {
		defer f.Close()
		sr, err = NewReader(f)
	}
	if err != nil {
		fail(err)
		return check
	}
	var end int64
	end, check.Strided = verifyColumns(sr, fail)
	fi, err := f.Stat()
	if err != nil || end < 0 || end == fi.Size() {
		if err != nil {
			fail(err)
		}
		return check
	}
	if _, err = f.Seek(end, io.SeekStart); err == nil {
		sr, err = NewReader(f)
	}
	if err != nil {
		fail(fmt.Errorf("store: the last member ends at byte %d, the file at %d", end, fi.Size()))
		return check
	}
	check.Companion = true
	if cend, _ := verifyColumns(sr, func(err error) { fail(fmt.Errorf("companion: %w", err)) }); cend >= 0 && end+cend != fi.Size() {
		fail(fmt.Errorf("store: the companion's last member ends at byte %d, the file at %d", end+cend, fi.Size()))
	}
	return check
}

// verifyColumns decodes every column of sr, reporting through fail what does
// not hold. It returns where the partition ends, from where sr began — -1
// when that is not known (a column failed to read) — and whether a float
// column is strided.
func verifyColumns(sr *Reader, fail func(error)) (end int64, strided bool) {
	defer sr.Close()
	for {
		info, err := sr.Next()
		if err == io.EOF {
			break
		}
		var col *Column
		if err == nil {
			col, err = sr.Column() // also holds the member's kind and stride to the directory's
		}
		if err != nil {
			fail(err)
			return -1, strided
		}
		strided = strided || sr.stride > 1
		if info.Int {
			e := sr.dir.cols[sr.read-1]
			if lo, hi, sorted := intStats(col.Ints); lo != e.min || hi != e.max || sorted != e.sorted {
				fail(fmt.Errorf("store: column %q: the directory says min %d, max %d, non-decreasing %v; the values say %d, %d, %v",
					info.Name, e.min, e.max, e.sorted, lo, hi, sorted))
			}
		}
	}
	return sr.next, strided
}
