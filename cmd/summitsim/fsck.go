package main

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/source"
	"repro/internal/store"
)

// fsck verifies every partition under dir — one archive, or each member of
// a fleet root — with store's VerifyDay, the companion a day's file carries
// after its partition included, and each archive's commit record: a
// run-meta with all its columns, and no partition at a day outside its
// span. One line per dataset, one per problem; any problem is an error.
func fsck(w io.Writer, dir string) error {
	dirs := []string{dir}
	manifest, err := source.DiscoverFleet(dir)
	switch {
	case err == nil:
		dirs = dirs[:0]
		for _, e := range manifest.Clusters {
			dirs = append(dirs, e.Path(dir))
		}
	case !errors.Is(err, source.ErrNotFleet):
		return err
	}
	problems := 0
	for _, dir := range dirs {
		names, err := store.Datasets(dir)
		if err != nil {
			return err
		}
		for _, name := range names {
			ds := &store.Dataset{Dir: dir, Name: name}
			days, err := ds.Days()
			if err != nil {
				return err
			}
			strided, companions := 0, 0
			var found []error
			for _, day := range days {
				c := ds.VerifyDay(day)
				if c.Strided {
					strided++
				}
				if c.Companion {
					companions++
				}
				found = append(found, c.Problems...)
			}
			fmt.Fprintf(w, "%s: %s: %d partitions, %d with strided columns, %d with a companion, %d problems\n",
				dir, name, len(days), strided, companions, len(found))
			for _, err := range found {
				fmt.Fprintf(w, "%s: %v\n", dir, err)
			}
			problems += len(found)
		}
		if err := checkRecord(dir); err != nil {
			fmt.Fprintf(w, "%s: %v\n", dir, err)
			problems++
		}
	}
	if problems > 0 {
		return fmt.Errorf("fsck: %d problems", problems)
	}
	return nil
}

// checkRecord reports what is wrong with dir's commit record: a missing or
// incomplete run-meta, or partitions at a day index outside its span, which
// no run of that span writes (the rule source.BeginArchive refuses by).
func checkRecord(dir string) error {
	m, err := source.ReadManifest(dir)
	if err != nil {
		return err
	}
	stale, err := source.StaleFiles(dir, m.SpanSec())
	if err == nil && len(stale) > 0 {
		err = fmt.Errorf("run-meta: partitions outside the run's %d s span: %s", m.SpanSec(), strings.Join(stale, ", "))
	}
	return err
}
