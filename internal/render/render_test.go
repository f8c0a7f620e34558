package render

import (
	"math"
	"strings"
	"testing"
)

func TestTable(t *testing.T) {
	tab := NewTable("name", "count", "value")
	tab.Row("alpha", 3, 1.5)
	tab.Row("b", 12345, 2.0)
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "alpha") || !strings.Contains(lines[2], "1.500") {
		t.Errorf("row = %q", lines[2])
	}
	// Integral floats print without decimals.
	if !strings.Contains(lines[3], "2") || strings.Contains(lines[3], "2.000") {
		t.Errorf("int-valued float formatting: %q", lines[3])
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{math.NaN(), "NaN"},
		{3, "3"},
		{3.14159, "3.142"},
		{1.5e7, "1.500e+07"},
		{1e-5, "1.000e-05"},
		{0, "0"},
	}
	for _, c := range cases {
		if got := formatFloat(c.in); got != c.want {
			t.Errorf("formatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCSV(t *testing.T) {
	var b strings.Builder
	err := CSV(&b, []string{"x", "y"}, []float64{1, 2}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := "x,y\n1,3\n2,4\n"
	if b.String() != want {
		t.Errorf("csv = %q, want %q", b.String(), want)
	}
	if err := CSV(&b, []string{"x"}, nil, nil); err == nil {
		t.Error("mismatched header count accepted")
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 5, 10})
	if len([]rune(s)) != 3 {
		t.Fatalf("sparkline = %q", s)
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[2] != '█' {
		t.Errorf("sparkline ends = %q", s)
	}
	if Sparkline(nil) != "" {
		t.Error("empty sparkline must be empty")
	}
	withNaN := Sparkline([]float64{1, math.NaN(), 2})
	if []rune(withNaN)[1] != ' ' {
		t.Errorf("NaN cell = %q", withNaN)
	}
	flat := Sparkline([]float64{7, 7})
	if []rune(flat)[0] != '▁' {
		t.Errorf("flat sparkline = %q", flat)
	}
}

func TestHeatmap(t *testing.T) {
	var b strings.Builder
	cells := map[int]float64{0: 10, 1: 20, 3: 30}
	if err := Heatmap(&b, cells, 4, 2); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, ".") {
		t.Errorf("missing cabinet marker absent: %q", out)
	}
	if !strings.Contains(out, "scale:") {
		t.Errorf("no scale line: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // 2 grid rows + scale
		t.Errorf("lines = %d: %q", len(lines), out)
	}
	if err := Heatmap(&b, cells, 4, 0); err == nil {
		t.Error("zero row width accepted")
	}
	// Uniform values render mid-scale without dividing by zero.
	var u strings.Builder
	if err := Heatmap(&u, map[int]float64{0: 5, 1: 5}, 2, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(u.String(), "5") {
		t.Errorf("uniform heatmap = %q", u.String())
	}
}

func TestCorrelationMatrix(t *testing.T) {
	var b strings.Builder
	labels := []string{"aa", "bb", "cc"}
	err := CorrelationMatrix(&b, labels, func(i, j int) (float64, bool) {
		if i == 2 && j == 0 {
			return 0.75, true
		}
		return 0, false
	})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "+0.7") {
		t.Errorf("matrix = %q", out)
	}
	if !strings.HasPrefix(out, "bb") {
		t.Errorf("matrix starts with %q", out[:4])
	}
}

func TestDensityGrid(t *testing.T) {
	z := [][]float64{
		{0, 0.1, 0},
		{0.1, 1.0, 0.1},
		{0, 0.1, 0},
	}
	var b strings.Builder
	if err := DensityGrid(&b, z, 0, 10, 0, 10); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 4 { // 3 rows + legend
		t.Fatalf("lines = %d: %q", len(lines), b.String())
	}
	// Center row has the peak '9'.
	if !strings.Contains(lines[1], "9") {
		t.Errorf("peak cell missing: %q", lines[1])
	}
	if !strings.Contains(lines[0], ".") {
		t.Errorf("near-zero cells must be dots: %q", lines[0])
	}
	if !strings.Contains(lines[3], "peak density") {
		t.Errorf("legend missing: %q", lines[3])
	}
	if err := DensityGrid(&b, nil, 0, 1, 0, 1); err == nil {
		t.Error("empty grid accepted")
	}
}
