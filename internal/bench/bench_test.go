package bench

import (
	"strings"
	"testing"
	"time"
)

func TestTableRender(t *testing.T) {
	tab := Table{
		ID:      "EX",
		Title:   "demo",
		Claim:   "a claim",
		Headers: []string{"col-a", "b"},
		Rows:    [][]string{{"1", "longer-cell"}, {"22", "x"}},
		Notes:   []string{"a note"},
	}
	out := tab.Render()
	for _, want := range []string{"EX — demo", "claim: a claim", "col-a", "longer-cell", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Columns align: both rows render the first cell padded to width 5.
	if !strings.Contains(out, "1      longer-cell") {
		t.Fatalf("column padding wrong:\n%s", out)
	}
}

func TestByIDKnowsAllExperiments(t *testing.T) {
	want := "E2 E7 E17 E18 E22"
	if got := strings.Join(IDs(), " "); got != want {
		t.Fatalf("IDs() = %s, want %s", got, want)
	}
	for _, id := range append(IDs(), "e2") {
		if _, ok := ByID(id); !ok {
			t.Fatalf("ByID(%s) unknown", id)
		}
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("unknown id resolved")
	}
}

func TestScalePick(t *testing.T) {
	if (Scale{Quick: true}).pick(1, 2) != 1 || (Scale{}).pick(1, 2) != 2 {
		t.Fatal("pick wrong")
	}
}

func TestDurationsStats(t *testing.T) {
	d := durations{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}
	if d.p(0) != time.Millisecond || d.p(1) != 3*time.Millisecond {
		t.Fatalf("quantiles wrong: %v %v", d.p(0), d.p(1))
	}
	if d.mean() != 2*time.Millisecond {
		t.Fatalf("mean = %v", d.mean())
	}
	var empty durations
	if empty.p(0.5) != 0 || empty.mean() != 0 {
		t.Fatal("empty stats should be zero")
	}
}

func TestFormatters(t *testing.T) {
	if ms(1500*time.Microsecond) != "1.50" {
		t.Fatalf("ms = %q", ms(1500*time.Microsecond))
	}
	if mbPerSec(2<<20, time.Second) != "2.0" {
		t.Fatalf("mbPerSec = %q", mbPerSec(2<<20, time.Second))
	}
	if mbPerSec(1, 0) != "inf" {
		t.Fatal("zero-duration rate should be inf")
	}
}

// TestE2SmokeShape runs the cheapest experiment end to end and sanity
// checks its output shape; the full suite runs via bench_test.go at the
// repository root and cmd/liquid-bench.
func TestE2SmokeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab := E2ThroughputVsLogSize(Scale{Quick: true})
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %v (notes %v)", tab.Rows, tab.Notes)
	}
	for _, row := range tab.Rows {
		if len(row) != 3 || row[1] == "" || row[2] == "" {
			t.Fatalf("malformed row %v", row)
		}
	}
}
