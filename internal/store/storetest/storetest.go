// Package storetest builds, for tests outside internal/store, partitions the
// archive's writer no longer produces but its readers must still serve.
package storetest

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"
)

// SingleStream re-frames a partition the way every build before the column
// directory wrote it: the whole payload in one gzip member, no directory. The
// payload moves by no byte, so the file decodes to the same values; a reader
// has to inflate it end to end.
func SingleStream(t testing.TB, raw []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	if _, err := io.Copy(zw, zr); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}
