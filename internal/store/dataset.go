package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Dataset is a named, daily-partitioned collection of tables in a
// directory — the on-disk layout of the paper's archive (one file per day
// per dataset).
type Dataset struct {
	Dir  string
	Name string
}

// NewDataset validates the name and returns the handle. It touches nothing
// on disk: opening an archive to read must not create a mistyped path (the
// first write creates the directory).
func NewDataset(dir, name string) (*Dataset, error) {
	if name == "" || strings.ContainsAny(name, "/\\") {
		return nil, fmt.Errorf("store: invalid dataset name %q", name)
	}
	return &Dataset{Dir: dir, Name: name}, nil
}

func (d *Dataset) dayPath(day int) string {
	return filepath.Join(d.Dir, fmt.Sprintf("%s-day%05d.spwr", d.Name, day))
}

// WriteDay stores the table as the partition for the given day index.
func (d *Dataset) WriteDay(day int, t *Table) error {
	return d.WriteDayCodec(day, t, CodecDelta)
}

// WriteDayCodec stores the table as the partition for the given day index
// with an explicit codec.
func (d *Dataset) WriteDayCodec(day int, t *Table, codec Codec) error {
	if day < 0 {
		return fmt.Errorf("store: negative day %d", day)
	}
	if err := os.MkdirAll(d.Dir, 0o755); err != nil {
		return fmt.Errorf("store: create dataset dir: %w", err)
	}
	tmp := d.dayPath(day) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := WriteCodec(f, t, codec); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, d.dayPath(day))
}

// partitionErr wraps a decode failure with the partition it came from, so a
// truncated or corrupt day file is reported by name instead of failing
// opaquely mid-scan.
func (d *Dataset) partitionErr(day int, err error) error {
	return fmt.Errorf("store: dataset %q partition %s: %w",
		d.Name, filepath.Base(d.dayPath(day)), err)
}

// ReadDay loads the partition for the given day index.
func (d *Dataset) ReadDay(day int) (*Table, error) {
	f, err := os.Open(d.dayPath(day))
	if err != nil {
		return nil, fmt.Errorf("store: dataset %q day %d: %w", d.Name, day, err)
	}
	defer f.Close()
	t, err := Read(f)
	if err != nil {
		return nil, d.partitionErr(day, err)
	}
	return t, nil
}

// Days lists the day indices present, sorted ascending. Stray files — other
// datasets, in-flight .tmp files, directories, or names that do not
// round-trip through the canonical partition format — are skipped.
func (d *Dataset) Days() ([]int, error) {
	entries, err := os.ReadDir(d.Dir)
	if err != nil {
		return nil, err
	}
	prefix := d.Name + "-day"
	var days []int
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".spwr") {
			continue
		}
		numPart := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".spwr")
		day, err := strconv.Atoi(numPart)
		if err != nil || day < 0 {
			continue
		}
		// Require the canonical zero-padded form so ReadDay(day) opens
		// exactly this file (e.g. "x-day7.spwr" is stray, not day 7).
		if fmt.Sprintf("%05d", day) != numPart {
			continue
		}
		days = append(days, day)
	}
	sort.Ints(days)
	return days, nil
}

// SizeOnDisk returns the dataset's total bytes across partitions.
func (d *Dataset) SizeOnDisk() (int64, error) {
	days, err := d.Days()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, day := range days {
		fi, err := os.Stat(d.dayPath(day))
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}
