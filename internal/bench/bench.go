// Package bench holds the frozen paper-reproduction experiments: one
// function per experiment, each reproducing a claim of the paper as a
// printed table. The registry below lists them in run order;
// cmd/liquid-bench runs them from the command line and bench_test.go at
// the repository root wraps them as testing.B benchmarks. Absolute numbers
// depend on the machine; the reproduction target is the shape — who wins,
// by what magnitude, where the crossovers fall. Numbers tracked across
// changes come from the standing benchmark under benchmark/, not from here.
// An experiment goes once a benchmark cell, a test or a failing example
// holds its claim (docs/ARCHITECTURE.md lists what holds each retired one).
package bench

import (
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/core"
)

// Table is one experiment's result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper claim under test
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Render formats the table for terminals.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
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
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Scale selects experiment sizing: Quick keeps every experiment under a
// few seconds for CI; the zero value runs the full sizes.
type Scale struct {
	Quick bool
}

// pick returns quick or full depending on the scale.
func (s Scale) pick(quick, full int) int {
	if s.Quick {
		return quick
	}
	return full
}

// quietLogger discards routine broker chatter during experiments.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
}

// newStack boots an experiment stack.
func newStack(brokers int, mutate func(*core.Config)) (*core.Stack, error) {
	cfg := core.Config{
		Brokers:        brokers,
		SessionTimeout: 750 * time.Millisecond,
		Logger:         quietLogger(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return core.Start(cfg)
}

// produceValues publishes n messages of size valueBytes, round-robin keyed
// by keyspace (0 = unkeyed), returning when all are flushed.
func produceValues(s *core.Stack, topic string, n, valueBytes, keyspace int, acks int16) error {
	p := s.NewProducer(client.ProducerConfig{Acks: acks, BatchBytes: 256 << 10})
	defer p.Close()
	value := make([]byte, valueBytes)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	for i := 0; i < n; i++ {
		msg := client.Message{Topic: topic, Value: value}
		if keyspace > 0 {
			msg.Key = []byte(fmt.Sprintf("key-%d", i%keyspace))
		}
		if err := p.Send(msg); err != nil {
			return err
		}
	}
	return p.Flush()
}

// consumeCount reads messages from all partitions until n arrive or the
// deadline passes, returning the count.
func consumeCount(s *core.Stack, topic string, partitions int32, n int, timeout time.Duration) (int, error) {
	cons := s.NewConsumer(client.ConsumerConfig{})
	defer cons.Close()
	for p := int32(0); p < partitions; p++ {
		if err := cons.Assign(topic, p, client.StartEarliest); err != nil {
			return 0, err
		}
	}
	got := 0
	deadline := time.Now().Add(timeout)
	for got < n && time.Now().Before(deadline) {
		msgs, err := cons.Poll(200 * time.Millisecond)
		if err != nil {
			continue
		}
		got += len(msgs)
	}
	return got, nil
}

// durations summarises a latency sample set.
type durations []time.Duration

func (d durations) sortCopy() durations {
	c := append(durations(nil), d...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// p returns the q-quantile (0..1).
func (d durations) p(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	c := d.sortCopy()
	idx := int(q * float64(len(c)-1))
	return c[idx]
}

func (d durations) mean() time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return sum / time.Duration(len(d))
}

// ms renders a duration in milliseconds with two decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// mbPerSec renders bytes/duration as MB/s.
func mbPerSec(bytes int64, d time.Duration) string {
	if d == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1f", float64(bytes)/d.Seconds()/(1<<20))
}

// experiments is the one registry: All runs it in order, ByID and IDs
// read it.
var experiments = []struct {
	id  string
	run func(Scale) Table
}{
	{"E2", E2ThroughputVsLogSize},
	{"E7", E7AcksTradeoff},
	{"E17", E17Availability},
	{"E18", E18RewindScan},
	{"E22", E22TableReads},
}

// All runs every experiment at the given scale.
func All(scale Scale) []Table {
	tables := make([]Table, 0, len(experiments))
	for _, e := range experiments {
		tables = append(tables, e.run(scale))
	}
	return tables
}

// ByID returns the experiment runner for an id like "E7" (any case).
func ByID(id string) (func(Scale) Table, bool) {
	for _, e := range experiments {
		if strings.EqualFold(e.id, id) {
			return e.run, true
		}
	}
	return nil, false
}

// IDs lists the experiment ids in run order.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}
