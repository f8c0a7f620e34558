package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 100, 1e-7, 9.99e-7, 1e-6, 1.0000001e-6,
	1e20, 9.999999e20, 1e21, 1.5e21, 1e-9, 1.25e-9, 1e-10, 1e-300, 1e300,
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1), 2212.3400000000001, 1.0 / 3, 123456789.123456789,
}

// checkFloat compares AppendJSONFloat with encoding/json for one value.
func checkFloat(t testing.TB, f float64) {
	t.Helper()
	got := string(AppendJSONFloat(nil, f))
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if got != "null" {
			t.Fatalf("AppendJSONFloat(%v) = %q, want null", f, got)
		}
		return
	}
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("AppendJSONFloat(%v) = %q, encoding/json says %q", f, got, want)
	}
	// Float goes through the same formatter.
	if viaF, _ := json.Marshal(Float(f)); string(viaF) != string(want) {
		t.Fatalf("Float(%v) marshals %q, want %q", f, viaF, want)
	}
}

func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range awkwardFloats {
		checkFloat(t, f)
	}
	if got := string(AppendJSONFloat(nil, 1e-9)); got != "1e-9" {
		t.Errorf("exponent cleanup: %q, want 1e-9", got)
	}
}

func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range awkwardFloats {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) { checkFloat(t, math.Float64frombits(bits)) })
}

func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "node-power", "input_power.mean", `a"b\c`, "tab\there", "nl\nrl\r", "\b\f\x00\x1f\x7f",
		"<html>&amp;", "caf\u00e9 \u4e16\u754c \U0001F600", "bad\xffutf8\xc3", "sep\u2028and\u2029end",
	} {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
		want := string(bytes.TrimSuffix(buf.Bytes(), []byte("\n")))
		if got := string(AppendJSONString(nil, s)); got != want {
			t.Errorf("AppendJSONString(%q) = %s, encoding/json says %s", s, got, want)
		}
		if got := string(AppendKeyString([]byte("{"), `"k":`, s)); got != `{"k":`+want {
			t.Errorf("AppendKeyString(%q) = %s", s, got)
		}
	}
}
