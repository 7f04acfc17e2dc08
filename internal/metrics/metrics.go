// Package metrics provides the recorders and table/series printers the
// experiment harness uses to report results in the same form as the paper's
// tables and figures: accuracy-over-iterations curves, throughput rows, and
// per-iteration latency breakdowns.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Point is one (x, y) sample of a figure series.
type Point struct {
	X float64
	Y float64
}

// Series is a named sequence of points (one line of a figure).
type Series struct {
	Name   string
	Points []Point
}

// Append adds a sample.
func (s *Series) Append(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Last returns the final Y value, or 0 for an empty series.
func (s *Series) Last() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].Y
}

// MaxY returns the maximum Y value, or 0 for an empty series.
func (s *Series) MaxY() float64 {
	var maxY float64
	for i, p := range s.Points {
		if i == 0 || p.Y > maxY {
			maxY = p.Y
		}
	}
	return maxY
}

// Figure is a set of series sharing x/y axes, printable as the tabular
// equivalent of one paper figure.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// AddSeries registers and returns a new named series.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// SeriesByName returns the named series, or nil.
func (f *Figure) SeriesByName(name string) *Series {
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Render prints the figure as an aligned table: one row per distinct X,
// one column per series. Rows are sorted by X.
func (f *Figure) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", f.Title); err != nil {
		return err
	}
	// Collect the union of X values.
	xsSet := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xsSet[p.X] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	header := make([]string, 0, len(f.Series)+1)
	header = append(header, f.XLabel)
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	rows := make([][]string, 0, len(xs))
	for _, x := range xs {
		row := make([]string, 0, len(f.Series)+1)
		row = append(row, trimFloat(x))
		for _, s := range f.Series {
			cell := ""
			for _, p := range s.Points {
				if p.X == x {
					cell = trimFloat(p.Y)
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	return renderTable(w, header, rows)
}

// Table is a free-form table (for Table 1 / Table 2 style output).
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render prints the table aligned.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
		return err
	}
	return renderTable(w, t.Header, t.Rows)
}

func renderTable(w io.Writer, header []string, rows [][]string) error {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(header)); err != nil {
		return err
	}
	for _, row := range rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// trimFloat formats a float compactly (no trailing zeros).
func trimFloat(v float64) string {
	s := fmt.Sprintf("%.6g", v)
	return s
}

// Breakdown accumulates per-phase latency for the Figure 7/16 stacked bars.
// It is safe for concurrent use (nodes record from multiple goroutines). The
// Add methods accept a nil receiver and record nothing, so a runner can hand
// the breakdown to the one node it observes and nil to the rest.
type Breakdown struct {
	mu      sync.Mutex
	compute time.Duration
	comm    time.Duration
	agg     time.Duration
	iters   int
}

// AddCompute records gradient-computation time.
func (b *Breakdown) AddCompute(d time.Duration) {
	if b != nil {
		b.add(&b.compute, d)
	}
}

// AddComm records communication time.
func (b *Breakdown) AddComm(d time.Duration) {
	if b != nil {
		b.add(&b.comm, d)
	}
}

// AddAgg records aggregation time.
func (b *Breakdown) AddAgg(d time.Duration) {
	if b != nil {
		b.add(&b.agg, d)
	}
}

func (b *Breakdown) add(dst *time.Duration, d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	*dst += d
}

// EndIteration advances the iteration counter used by the Mean* methods.
func (b *Breakdown) EndIteration() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.iters++
}

// Merge folds another breakdown's accumulated phase times and iteration
// count into b — used when one logical run is driven as several protocol
// segments (e.g. around injected faults).
func (b *Breakdown) Merge(o *Breakdown) {
	o.mu.Lock()
	compute, comm, agg, iters := o.compute, o.comm, o.agg, o.iters
	o.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.compute += compute
	b.comm += comm
	b.agg += agg
	b.iters += iters
}

// Means returns average per-iteration compute, comm, and aggregation times.
func (b *Breakdown) Means() (compute, comm, agg time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.iters == 0 {
		return 0, 0, 0
	}
	n := time.Duration(b.iters)
	return b.compute / n, b.comm / n, b.agg / n
}

// Stopwatch measures one phase; use as:
//
//	done := metrics.Start()
//	...work...
//	breakdown.AddComm(done())
func Start() func() time.Duration {
	t0 := time.Now()
	return func() time.Duration { return time.Since(t0) }
}
