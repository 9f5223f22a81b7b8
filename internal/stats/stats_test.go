package stats

import (
	"strings"
	"testing"

	"nicwarp/internal/vtime"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative Add")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestBusyTimeUtilization(t *testing.T) {
	var b BusyTime
	b.AddInterval(250 * vtime.Microsecond)
	b.AddInterval(250 * vtime.Microsecond)
	u := b.Utilization(vtime.Millisecond)
	if u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	if b.Utilization(0) != 0 {
		t.Fatal("utilization with zero elapsed should be 0")
	}
	// Utilization is clamped to 1 even if accounting overlaps.
	b.AddInterval(vtime.Second)
	if b.Utilization(vtime.Millisecond) != 1 {
		t.Fatal("utilization must clamp to 1")
	}
}

func TestBusyTimeRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative interval")
		}
	}()
	var b BusyTime
	b.AddInterval(-1)
}

func TestTableFormatting(t *testing.T) {
	tb := NewTable("period", "warped_sec", "nicgvt_sec")
	tb.AddRow(1, 35.5, 12.25)
	tb.AddRow(100000, 11.0, 11.5)
	out := tb.String()
	if !strings.Contains(out, "period") || !strings.Contains(out, "100000") {
		t.Fatalf("table output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "period,warped_sec,nicgvt_sec\n") {
		t.Fatalf("bad CSV header:\n%s", csv)
	}
	if !strings.Contains(csv, "1,35.5,12.25") {
		t.Fatalf("bad CSV rows:\n%s", csv)
	}
}
