// Package render turns analysis results into the textual equivalents of
// the paper's tables and figures: aligned tables, CDF and snapshot series
// in CSV form, correlation matrices, and ASCII floor heatmaps. The cmd/
// binaries compose these into per-experiment reports.
package render

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple aligned-column text table writer.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given header.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row; values are formatted with %v.
func (t *Table) Row(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = formatFloat(x)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(x float64) string {
	switch {
	case math.IsNaN(x):
		return "NaN"
	case math.Abs(x) >= 1e7 || (x != 0 && math.Abs(x) < 1e-3):
		return fmt.Sprintf("%.3e", x)
	case x == math.Trunc(x):
		return fmt.Sprintf("%.0f", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var total int64
	emit := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
		n, err := io.WriteString(w, b.String())
		total += int64(n)
		return err
	}
	if err := emit(t.header); err != nil {
		return total, err
	}
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := emit(sep); err != nil {
		return total, err
	}
	for _, row := range t.rows {
		if err := emit(row); err != nil {
			return total, err
		}
	}
	return total, nil
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.WriteTo(&b)
	return b.String()
}

// CSV writes parallel series as comma-separated columns with a header.
// All series must share a length.
func CSV(w io.Writer, headers []string, cols ...[]float64) error {
	if len(headers) != len(cols) {
		return fmt.Errorf("render: %d headers for %d columns", len(headers), len(cols))
	}
	n := 0
	for i, c := range cols {
		if i == 0 || len(c) < n {
			n = len(c)
		}
	}
	if _, err := io.WriteString(w, strings.Join(headers, ",")+"\n"); err != nil {
		return err
	}
	for r := 0; r < n; r++ {
		cells := make([]string, len(cols))
		for i, c := range cols {
			cells[i] = formatFloat(c[r])
		}
		if _, err := io.WriteString(w, strings.Join(cells, ",")+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// Sparkline renders values as a unicode mini-chart (NaNs become spaces).
func Sparkline(vals []float64) string {
	ramp := []rune("▁▂▃▄▅▆▇█")
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if math.IsInf(lo, 1) {
		return ""
	}
	var b strings.Builder
	for _, v := range vals {
		if math.IsNaN(v) {
			b.WriteByte(' ')
			continue
		}
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(ramp)-1))
		}
		b.WriteRune(ramp[idx])
	}
	return b.String()
}

// Heatmap renders cabinet-indexed values as an ASCII floor grid with the
// given row width (cabinets per floor row). Missing cabinets render as
// "  . ". Values are binned into a 0-9 intensity scale.
func Heatmap(w io.Writer, cells map[int]float64, cabinets, perRow int) error {
	if perRow <= 0 {
		return fmt.Errorf("render: non-positive row width")
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range cells {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	for cab := 0; cab < cabinets; cab++ {
		v, ok := cells[cab]
		var cell string
		switch {
		case !ok:
			cell = "  . "
		case hi == lo:
			cell = "  5 "
		default:
			cell = fmt.Sprintf(" %2.0f ", (v-lo)/(hi-lo)*9)
		}
		if _, err := io.WriteString(w, cell); err != nil {
			return err
		}
		if (cab+1)%perRow == 0 || cab == cabinets-1 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
	}
	if len(cells) > 0 {
		_, err := fmt.Fprintf(w, "scale: 0=%s 9=%s\n", formatFloat(lo), formatFloat(hi))
		return err
	}
	return nil
}

// CorrelationMatrix renders significant pairwise correlations as a lower-
// triangular matrix keyed by the provided labels; insignificant or absent
// pairs print as blanks.
func CorrelationMatrix(w io.Writer, labels []string, get func(i, j int) (float64, bool)) error {
	// Label column width.
	width := 0
	for _, l := range labels {
		if len(l) > width {
			width = len(l)
		}
	}
	for i := 1; i < len(labels); i++ {
		if _, err := fmt.Fprintf(w, "%-*s", width+1, labels[i]); err != nil {
			return err
		}
		for j := 0; j < i; j++ {
			r, ok := get(i, j)
			cell := "     "
			if ok {
				cell = fmt.Sprintf(" %+.2f", r)[0:5]
			}
			if _, err := io.WriteString(w, cell+" "); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// DensityGrid renders a KDE grid as an ASCII intensity map (0-9 per cell,
// '.' for near-zero density), highest y at the top — the textual analogue
// of the paper's contour figures.
func DensityGrid(w io.Writer, z [][]float64, x0, x1, y0, y1 float64) error {
	if len(z) == 0 {
		return fmt.Errorf("render: empty density grid")
	}
	max := 0.0
	for _, row := range z {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	for iy := len(z) - 1; iy >= 0; iy-- {
		var b strings.Builder
		for _, v := range z[iy] {
			switch {
			case max == 0 || v < max*0.02:
				b.WriteByte('.')
			default:
				d := int(v / max * 9.999)
				if d > 9 {
					d = 9
				}
				b.WriteByte(byte('0' + d))
			}
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "x: [%s, %s]  y: [%s, %s]  peak density %s\n",
		formatFloat(x0), formatFloat(x1), formatFloat(y0), formatFloat(y1),
		formatFloat(max))
	return err
}
