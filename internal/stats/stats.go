// Package stats collects the metrics every experiment reports: message
// counts, rollback counts, GVT rounds, resource utilization and the modeled
// execution time that reproduces the paper's y-axes.
//
// The simulator is single-goroutine and deterministic, so the metric types
// are deliberately unsynchronized; they are plain accumulators with
// formatting helpers.
package stats

import (
	"fmt"
	"strings"

	"nicwarp/internal/vtime"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds delta (which may not be negative) to the counter.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("stats: Counter.Add with negative delta")
	}
	c.n += delta
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// BusyTime integrates the busy time of a hardware resource so that
// experiments can report utilization. The caller marks busy intervals; the
// accumulator tolerates back-to-back intervals.
type BusyTime struct {
	total vtime.ModelTime
}

// AddInterval accrues a busy interval of the given length.
func (b *BusyTime) AddInterval(d vtime.ModelTime) {
	if d < 0 {
		panic("stats: negative busy interval")
	}
	b.total += d
}

// Total returns the accumulated busy time.
func (b *BusyTime) Total() vtime.ModelTime { return b.total }

// Utilization returns busy/elapsed in [0,1]; 0 when elapsed is zero.
func (b *BusyTime) Utilization(elapsed vtime.ModelTime) float64 {
	if elapsed <= 0 {
		return 0
	}
	u := float64(b.total) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}

// Table renders aligned experiment output, mirroring the row/series layout
// of the paper's figures so results can be compared by eye.
type Table struct {
	header     []string
	rows       [][]string
	rightAlign bool
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AlignRight switches every column after the first to right alignment,
// which keeps numeric columns of very different magnitudes (8 vs 1024
// nodes, microseconds vs seconds) comparable by eye. Opt-in: the default
// left alignment is part of the byte format of every committed table, so
// only new tables should call it. Returns the table for chaining.
func (t *Table) AlignRight() *Table {
	t.rightAlign = true
	return t
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if t.rightAlign && i > 0 {
				fmt.Fprintf(&b, "%*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.header, ","))
	b.WriteByte('\n')
	for _, r := range t.rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
