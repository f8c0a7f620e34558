// Package store is an errwrap fixture loaded under a path below
// repro/internal/store, which puts it inside the error-discard scope.
package store

import (
	"fmt"
	"os"
)

func BadWrap(err error) error {
	return fmt.Errorf("read day: %v", err) // want `error err formatted without %w`
}

func GoodWrap(err error) error {
	return fmt.Errorf("read day: %w", err)
}

func BadDiscard(f *os.File) {
	f.Close() // want `error result of f.Close discarded`
}

// GoodDiscard drops the error explicitly, which is reviewable.
func GoodDiscard(f *os.File) {
	_ = f.Close()
}

// Annotated shows the per-line escape hatch.
func Annotated(f *os.File) {
	f.Sync() //lint:allow errwrap best-effort flush on shutdown
}
