package store

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Dataset is a named, daily-partitioned collection of tables in a
// directory — the on-disk layout of the paper's archive (one file per day
// per dataset). A partition may be followed in its file by one more whole
// partition, its companion (WriteDayFunc, Companion); every read of the
// dataset stops where its own partition ends.
type Dataset struct {
	Dir  string
	Name string
	base string // set on a Companion handle: the dataset whose files it reads
}

// ErrNoCompanion is a companion read of a file holding its partition alone.
var ErrNoCompanion = errors.New("store: no companion follows the partition")

// Companion returns the handle, called name, that reads the companions of
// d's partitions: d's days and files, each read from where d's partition ends.
func (d *Dataset) Companion(name string) *Dataset {
	return &Dataset{Dir: d.Dir, Name: name, base: d.Name}
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

// DayFile returns the file name (without directory) of the given day's
// partition. Partition naming — <dataset>-day<NNNNN>.spwr — is decided here
// and in the inverse below, and nowhere else.
func (d *Dataset) DayFile(day int) string {
	return fmt.Sprintf("%s-day%05d.spwr", cmp.Or(d.base, d.Name), day)
}

func (d *Dataset) dayPath(day int) string { return filepath.Join(d.Dir, d.DayFile(day)) }

// readDay runs read over the day's partition — for a Companion handle, from
// where the base partition ends — naming the partition in any error.
func readDay[T any](d *Dataset, day int, read func(io.ReadSeeker) (T, error)) (v T, err error) {
	f, err := os.Open(d.dayPath(day))
	if err != nil {
		return v, fmt.Errorf("store: dataset %q day %d: %w", d.Name, day, err)
	}
	defer f.Close()
	if d.base != "" {
		err = SeekCompanion(f)
	}
	if err == nil {
		v, err = read(f)
	}
	if err != nil {
		var zero T
		return zero, d.partitionErr(day, err)
	}
	return v, nil
}

// parseDayFile is DayFile's inverse. Only a name DayFile produces parses —
// ReadDay(day) must open exactly this file — so "x-day7.spwr" is stray, not
// day 7 of x.
func parseDayFile(name string) (dataset string, day int, ok bool) {
	i := strings.LastIndex(name, "-day")
	if i <= 0 {
		return "", 0, false
	}
	d := Dataset{Name: name[:i]}
	day, err := strconv.Atoi(strings.TrimSuffix(name[i+len("-day"):], ".spwr"))
	return d.Name, day, err == nil && day >= 0 && d.DayFile(day) == name
}

// partitions lists the days present in dir per dataset, skipping stray
// files: in-flight .tmp files, directories, names that are not canonical.
func partitions(dir string) (map[string][]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	parts := map[string][]int{}
	for _, e := range entries {
		if dataset, day, ok := parseDayFile(e.Name()); ok && !e.IsDir() {
			parts[dataset] = append(parts[dataset], day)
		}
	}
	return parts, nil
}

// Datasets lists the datasets holding at least one partition in dir, sorted.
func Datasets(dir string) ([]string, error) {
	parts, err := partitions(dir)
	names := make([]string, 0, len(parts))
	for name := range parts {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, err
}

// WriteDay stores the table as the partition for the given day index.
func (d *Dataset) WriteDay(day int, t *Table) error {
	return d.WriteDayCodec(day, t, CodecDelta)
}

// WriteDayCodec stores the table as the partition for the given day index
// with an explicit codec.
func (d *Dataset) WriteDayCodec(day int, t *Table, codec Codec) error {
	return d.WriteDayFunc(day, func(w io.Writer) error { return WriteCodec(w, t, codec) })
}

// WriteDayFunc stores what write writes — a partition, and after it in the
// same file its companion, if any — as the file of the given day: into a
// .tmp, then one rename, so a reader finds the day's old file or all of the
// new one, and a day is never read beside another write's companion. A failed
// write leaves the old file and no .tmp.
func (d *Dataset) WriteDayFunc(day int, write func(io.Writer) error) error {
	if day < 0 {
		return fmt.Errorf("store: negative day %d", day)
	}
	if d.base != "" {
		return fmt.Errorf("store: %q is a companion: it is written with its base", d.Name)
	}
	if err := os.MkdirAll(d.Dir, 0o755); err != nil {
		return fmt.Errorf("store: create dataset dir: %w", err)
	}
	tmp := d.dayPath(day) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err = write(f); err != nil {
		err = d.partitionErr(day, err)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, d.dayPath(day))
	}
	if err != nil {
		_ = os.Remove(tmp) // whichever step failed: nothing sweeps a staged file
	}
	return err
}

// partitionErr wraps an encode or decode failure with the partition it came
// from, so a malformed table or a truncated or corrupt day file is reported
// by name instead of failing opaquely mid-scan.
func (d *Dataset) partitionErr(day int, err error) error {
	return fmt.Errorf("store: dataset %q partition %s: %w",
		d.Name, d.DayFile(day), err)
}

// ReadDay loads the partition for the given day index.
func (d *Dataset) ReadDay(day int) (*Table, error) { return d.ReadDayColumns(day, nil) }

// Days lists the day indices present, sorted ascending.
func (d *Dataset) Days() ([]int, error) {
	parts, err := partitions(d.Dir)
	days := parts[cmp.Or(d.base, d.Name)]
	sort.Ints(days)
	return days, err
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
