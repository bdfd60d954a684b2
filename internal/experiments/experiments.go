// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 5) on the synthetic substrates described
// in DESIGN.md ("Substitutions"). Each experiment returns a Table whose
// rows mirror what the paper reports; cmd/experiments prints them
// (-list names every experiment).
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Table is one experiment's output.
type Table struct {
	// ID is the paper artifact this reproduces, e.g. "table3", "fig7".
	ID string
	// Title describes the experiment.
	Title string
	// Header names the columns.
	Header []string
	// Rows are the data, stringified.
	Rows [][]string
	// Notes records scale substitutions and expectations about shape.
	Notes string
}

// Render formats the table for terminals.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "-- %s\n", t.Notes)
	}
	return b.String()
}

// Scale shrinks experiment workloads: 1.0 runs the paper's parameters
// (minutes of wall-clock); smaller values shrink node counts
// proportionally for quick runs and benchmarks.
type Scale float64

func (s Scale) nodes(n int) int {
	v := int(float64(n) * float64(s))
	if v < 10 {
		v = 10
	}
	return v
}

// fmtDur renders durations in seconds with millisecond resolution,
// matching how the paper reports times.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

func itoa(v int) string     { return fmt.Sprintf("%d", v) }
func i64toa(v int64) string { return fmt.Sprintf("%d", v) }
