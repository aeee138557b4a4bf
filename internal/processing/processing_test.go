package processing_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/processing"
	"repro/internal/state"
)

// startStack boots a small single-broker stack for job tests.
func startStack(t *testing.T) *core.Stack {
	t.Helper()
	s, err := core.Start(core.Config{
		Brokers:        1,
		SessionTimeout: 800 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

func produceN(t *testing.T, s *core.Stack, topic string, n int, keyFn func(int) string, valFn func(int) string) {
	t.Helper()
	p := s.NewProducer(client.ProducerConfig{})
	defer p.Close()
	for i := 0; i < n; i++ {
		var key []byte
		if keyFn != nil {
			key = []byte(keyFn(i))
		}
		if err := p.Send(client.Message{Topic: topic, Key: key, Value: []byte(valFn(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
}

// drain reads n messages from all partitions of a topic.
func drain(t *testing.T, s *core.Stack, topic string, parts int32, n int, timeout time.Duration) []client.Message {
	t.Helper()
	cons := s.NewConsumer(client.ConsumerConfig{})
	defer cons.Close()
	for p := int32(0); p < parts; p++ {
		if err := cons.Assign(topic, p, client.StartEarliest); err != nil {
			t.Fatal(err)
		}
	}
	var out []client.Message
	deadline := time.Now().Add(timeout)
	for len(out) < n && time.Now().Before(deadline) {
		msgs, err := cons.Poll(200 * time.Millisecond)
		if err != nil {
			continue
		}
		out = append(out, msgs...)
	}
	if len(out) < n {
		t.Fatalf("drained %d/%d from %s", len(out), n, topic)
	}
	return out
}

// upperTask is a stateless transform: value -> upper-cased value.
type upperTask struct{}

func (upperTask) Process(msg client.Message, _ *processing.TaskContext, out *processing.Collector) error {
	up := make([]byte, len(msg.Value))
	for i, b := range msg.Value {
		if b >= 'a' && b <= 'z' {
			b -= 32
		}
		up[i] = b
	}
	return out.Send("clean", msg.Key, up)
}

func TestStatelessTransformJob(t *testing.T) {
	s := startStack(t)
	if err := s.CreateFeed("raw", 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateFeed("clean", 2, 1); err != nil {
		t.Fatal(err)
	}
	job, err := s.RunJob(processing.JobConfig{
		Name:    "upper",
		Inputs:  []string{"raw"},
		Factory: func() processing.StreamTask { return upperTask{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.NumTasks() != 2 {
		t.Fatalf("NumTasks = %d, want 2 (one per partition)", job.NumTasks())
	}
	produceN(t, s, "raw", 40, nil, func(i int) string { return fmt.Sprintf("event-%d", i) })
	msgs := drain(t, s, "clean", 2, 40, 15*time.Second)
	seen := map[string]bool{}
	for _, m := range msgs {
		seen[string(m.Value)] = true
		// Derived feeds carry lineage annotations (paper §3).
		found := false
		for _, h := range m.Headers {
			if h.Key == "liquid.lineage" && string(h.Value) == "upper" {
				found = true
			}
		}
		if !found {
			t.Fatalf("message lacks lineage header: %+v", m.Headers)
		}
	}
	for i := 0; i < 40; i++ {
		if !seen[fmt.Sprintf("EVENT-%d", i)] {
			t.Fatalf("missing EVENT-%d", i)
		}
	}
	if got := job.Metrics().Counter("upper.processed").Value(); got < 40 {
		t.Fatalf("processed counter = %d", got)
	}
}

// countTask counts occurrences per key into the "counts" store.
type countTask struct{}

func (countTask) Process(msg client.Message, ctx *processing.TaskContext, _ *processing.Collector) error {
	store := ctx.Store("counts")
	cur := 0
	if v, ok, err := store.Get(msg.Key); err != nil {
		return err
	} else if ok {
		cur, _ = strconv.Atoi(string(v))
	}
	return store.Put(msg.Key, []byte(strconv.Itoa(cur+1)))
}

// readCounts replays a job's final counts from its store via a fresh task
// context — here we read them from the changelog-backed store by
// restarting the job and exposing state through an output; simpler: the
// test queries the store via a probe task. For directness the tests below
// read the changelog topic.
func TestStatefulJobRestoresFromChangelog(t *testing.T) {
	s := startStack(t)
	if err := s.CreateFeed("updates", 1, 1); err != nil {
		t.Fatal(err)
	}
	cfg := processing.JobConfig{
		Name:               "counter",
		Inputs:             []string{"updates"},
		Factory:            func() processing.StreamTask { return countTask{} },
		Stores:             []processing.StoreSpec{{Name: "counts"}},
		CheckpointInterval: 100 * time.Millisecond,
	}
	job, err := s.RunJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const keys, rounds = 5, 10
	produceN(t, s, "updates", keys*rounds,
		func(i int) string { return fmt.Sprintf("user-%d", i%keys) },
		func(i int) string { return "update" })

	waitCounter(t, job.Metrics().Counter("counter.processed"), keys*rounds, 10*time.Second)
	if err := job.Stop(); err != nil {
		t.Fatal(err)
	}

	// Restart the job under the same name: state must be rebuilt from
	// the changelog, and processing must resume from the checkpoint
	// (no reprocessing of old input).
	job2, err := s.RunJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	produceN(t, s, "updates", keys,
		func(i int) string { return fmt.Sprintf("user-%d", i%keys) },
		func(i int) string { return "update" })
	waitCounter(t, job2.Metrics().Counter("counter.processed"), keys, 10*time.Second)
	if err := job2.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := job2.Metrics().Counter("counter.restored.records").Value(); got == 0 {
		t.Fatal("no records were restored from the changelog")
	}

	// Final counts: replay the changelog's latest values.
	counts := changelogState(t, s, "counter-counts-changelog", 1)
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("user-%d", k)
		if counts[key] != strconv.Itoa(rounds+1) {
			t.Fatalf("count[%s] = %q, want %d", key, counts[key], rounds+1)
		}
	}
	// Incremental processing: the restarted job only processed the delta.
	if got := job2.Metrics().Counter("counter.processed").Value(); got != keys {
		t.Fatalf("restarted job processed %d messages, want %d (delta only)", got, keys)
	}
}

// changelogState replays a changelog topic into its latest per-key values.
func changelogState(t *testing.T, s *core.Stack, topic string, parts int32) map[string]string {
	t.Helper()
	cons := s.NewConsumer(client.ConsumerConfig{})
	defer cons.Close()
	state := make(map[string]string)
	for p := int32(0); p < parts; p++ {
		end, err := s.Client().ListOffset(topic, p, -1)
		if err != nil {
			t.Fatal(err)
		}
		if end == 0 {
			continue
		}
		if err := cons.Assign(topic, p, client.StartEarliest); err != nil {
			t.Fatal(err)
		}
		for cons.Position(topic, p) < end {
			msgs, err := cons.Poll(500 * time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range msgs {
				if m.Value == nil {
					delete(state, string(m.Key))
				} else {
					state[string(m.Key)] = string(m.Value)
				}
			}
		}
		cons.Unassign(topic, p)
	}
	return state
}

func waitCounter(t *testing.T, c interface{ Value() int64 }, want int64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for c.Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter reached %d, want %d", c.Value(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// flakyTask fails once on a marker message, then succeeds — exercising the
// restart/restore path.
type flakyTask struct {
	failed *atomic.Bool
}

func (f flakyTask) Process(msg client.Message, ctx *processing.TaskContext, out *processing.Collector) error {
	if string(msg.Value) == "poison" && !f.failed.Swap(true) {
		return errors.New("injected failure")
	}
	store := ctx.Store("seen")
	n := 0
	if v, ok, _ := store.Get([]byte("n")); ok {
		n, _ = strconv.Atoi(string(v))
	}
	if err := store.Put([]byte("n"), []byte(strconv.Itoa(n+1))); err != nil {
		return err
	}
	return out.Send("survived", msg.Key, msg.Value)
}

func TestTaskRestartAfterProcessingFailure(t *testing.T) {
	s := startStack(t)
	s.CreateFeed("in", 1, 1)
	s.CreateFeed("survived", 1, 1)
	var failed atomic.Bool
	job, err := s.RunJob(processing.JobConfig{
		Name:               "flaky",
		Inputs:             []string{"in"},
		Factory:            func() processing.StreamTask { return flakyTask{failed: &failed} },
		Stores:             []processing.StoreSpec{{Name: "seen"}},
		CheckpointInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := s.NewProducer(client.ProducerConfig{})
	defer p.Close()
	for i := 0; i < 10; i++ {
		v := fmt.Sprintf("m%d", i)
		if i == 5 {
			v = "poison"
		}
		if _, err := p.SendSync(client.Message{Topic: "in", Value: []byte(v)}); err != nil {
			t.Fatal(err)
		}
	}
	// All 10 messages eventually come out (at-least-once: duplicates
	// possible around the failure, loss is not). Read until every value
	// has been seen, not until ten messages have: a restart that replays
	// from offset 0 re-sends m0..m4 first, and those duplicates can make
	// up ten messages before m6..m9 arrive.
	cons := s.NewConsumer(client.ConsumerConfig{})
	defer cons.Close()
	if err := cons.Assign("survived", 0, client.StartEarliest); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for deadline := time.Now().Add(15 * time.Second); len(seen) < 10 && time.Now().Before(deadline); {
		msgs, _ := cons.Poll(200 * time.Millisecond)
		for _, m := range msgs {
			seen[string(m.Value)] = true
		}
	}
	for i := 0; i < 10; i++ {
		v := fmt.Sprintf("m%d", i)
		if i == 5 {
			v = "poison"
		}
		if !seen[v] {
			t.Fatalf("lost message %q across task restart", v)
		}
	}
	if job.Metrics().Counter("flaky.task.failures").Value() == 0 {
		t.Fatal("failure was not recorded")
	}
}

// windowTask accumulates values and emits a JSON summary on each window.
type windowTask struct {
	count int
}

func (w *windowTask) Process(msg client.Message, _ *processing.TaskContext, _ *processing.Collector) error {
	w.count++
	return nil
}

func (w *windowTask) Window(_ *processing.TaskContext, out *processing.Collector) error {
	if w.count == 0 {
		return nil
	}
	b, _ := json.Marshal(map[string]int{"count": w.count})
	w.count = 0
	return out.Send("summaries", nil, b)
}

func TestWindowedAggregation(t *testing.T) {
	s := startStack(t)
	s.CreateFeed("ticks", 1, 1)
	s.CreateFeed("summaries", 1, 1)
	_, err := s.RunJob(processing.JobConfig{
		Name:           "windows",
		Inputs:         []string{"ticks"},
		Factory:        func() processing.StreamTask { return &windowTask{} },
		WindowInterval: 100 * time.Millisecond,
		PollWait:       20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	produceN(t, s, "ticks", 30, nil, func(i int) string { return "tick" })
	// At least one summary arrives, and the sum of counts equals 30.
	cons := s.NewConsumer(client.ConsumerConfig{})
	defer cons.Close()
	cons.Assign("summaries", 0, client.StartEarliest)
	total := 0
	deadline := time.Now().Add(15 * time.Second)
	for total < 30 && time.Now().Before(deadline) {
		msgs, err := cons.Poll(200 * time.Millisecond)
		if err != nil {
			continue
		}
		for _, m := range msgs {
			var s map[string]int
			if err := json.Unmarshal(m.Value, &s); err != nil {
				t.Fatalf("bad summary %q: %v", m.Value, err)
			}
			total += s["count"]
		}
	}
	if total != 30 {
		t.Fatalf("window totals = %d, want 30", total)
	}
}

// annotateTask does nothing; used to exercise checkpoint annotations.
type annotateTask struct{}

func (annotateTask) Process(client.Message, *processing.TaskContext, *processing.Collector) error {
	return nil
}

func TestCheckpointsCarryVersionAnnotations(t *testing.T) {
	s := startStack(t)
	s.CreateFeed("src", 1, 1)
	job, err := s.RunJob(processing.JobConfig{
		Name:               "annot",
		Inputs:             []string{"src"},
		Factory:            func() processing.StreamTask { return annotateTask{} },
		Annotations:        map[string]string{"version": "v1"},
		CheckpointInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	produceN(t, s, "src", 10, nil, func(i int) string { return fmt.Sprintf("e%d", i) })
	waitCounter(t, job.Metrics().Counter("annot.processed"), 10, 10*time.Second)
	job.Stop()

	// The offset manager can answer "where was version v1?" — the rewind
	// primitive of paper §4.2.
	off, found, err := s.Client().QueryOffset("job-annot", "src", 0, "version", "v1")
	if err != nil || !found {
		t.Fatalf("QueryOffset: off=%d found=%v err=%v", off, found, err)
	}
	if off != 10 {
		t.Fatalf("checkpointed offset = %d, want 10", off)
	}
}

func TestJobValidation(t *testing.T) {
	s := startStack(t)
	if _, err := processing.NewJob(s.Client(), processing.JobConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := processing.NewJob(s.Client(), processing.JobConfig{Name: "x"}); err == nil {
		t.Fatal("missing inputs accepted")
	}
	if _, err := processing.NewJob(s.Client(), processing.JobConfig{Name: "x", Inputs: []string{"t"}}); err == nil {
		t.Fatal("missing factory accepted")
	}
	j, err := processing.NewJob(s.Client(), processing.JobConfig{
		Name: "x", Inputs: []string{"missing-topic"},
		Factory: func() processing.StreamTask { return annotateTask{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Start(); err == nil {
		t.Fatal("start with missing input topic should fail")
	}
	if _, err := processing.NewJob(s.Client(), processing.JobConfig{
		Name: "x", Inputs: []string{"t"},
		Factory: func() processing.StreamTask { return annotateTask{} },
		Stores:  []processing.StoreSpec{{Name: "s", Persistent: true}},
	}); err == nil {
		t.Fatal("persistent store without DataDir accepted")
	}
}

// persistentCountTask is countTask over a persistent store.
func TestPersistentStoreJob(t *testing.T) {
	s := startStack(t)
	s.CreateFeed("pin", 1, 1)
	job, err := s.RunJob(processing.JobConfig{
		Name:               "pcount",
		Inputs:             []string{"pin"},
		Factory:            func() processing.StreamTask { return countTask{} },
		Stores:             []processing.StoreSpec{{Name: "counts", Persistent: true}},
		CheckpointInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	produceN(t, s, "pin", 20, func(i int) string { return fmt.Sprintf("k%d", i%4) }, func(i int) string { return "u" })
	waitCounter(t, job.Metrics().Counter("pcount.processed"), 20, 10*time.Second)
	job.Stop()
	counts := changelogState(t, s, "pcount-counts-changelog", 1)
	for i := 0; i < 4; i++ {
		if counts[fmt.Sprintf("k%d", i)] != "5" {
			t.Fatalf("counts = %v", counts)
		}
	}
}

func TestMultiInputJob(t *testing.T) {
	s := startStack(t)
	s.CreateFeed("a", 2, 1)
	s.CreateFeed("b", 2, 1)
	s.CreateFeed("merged", 2, 1)
	type mergeTask struct{ upperTask } // reuse transform to "merged"
	_ = mergeTask{}
	job, err := s.RunJob(processing.JobConfig{
		Name:   "merge",
		Inputs: []string{"a", "b"},
		Factory: func() processing.StreamTask {
			return processing.TaskFunc(func(msg client.Message, _ *processing.TaskContext, out *processing.Collector) error {
				return out.Send("merged", msg.Key, msg.Value)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.NumTasks() != 2 {
		t.Fatalf("NumTasks = %d", job.NumTasks())
	}
	produceN(t, s, "a", 10, nil, func(i int) string { return fmt.Sprintf("a%d", i) })
	produceN(t, s, "b", 10, nil, func(i int) string { return fmt.Sprintf("b%d", i) })
	msgs := drain(t, s, "merged", 2, 20, 15*time.Second)
	if len(msgs) < 20 {
		t.Fatalf("merged %d messages", len(msgs))
	}
}

// persistentCounter is a countTask job over a persistent "counts" store.
func persistentCounter(name, input, dataDir string) processing.JobConfig {
	return processing.JobConfig{
		Name:               name,
		Inputs:             []string{input},
		Factory:            func() processing.StreamTask { return countTask{} },
		Stores:             []processing.StoreSpec{{Name: "counts", Persistent: true}},
		CheckpointInterval: 50 * time.Millisecond,
		DataDir:            dataDir,
	}
}

// runCounts runs cfg on s over n inputs keyed by keyFn, stops it, and
// returns the job for its metrics.
func runCounts(t *testing.T, s *core.Stack, cfg processing.JobConfig, n int, keyFn func(int) string) *processing.Job {
	t.Helper()
	job, err := s.RunJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	produceN(t, s, cfg.Inputs[0], n, keyFn, func(int) string { return "u" })
	waitCounter(t, job.Metrics().Counter(cfg.Name+".processed"), int64(n), 10*time.Second)
	if err := job.Stop(); err != nil {
		t.Fatal(err)
	}
	return job
}

// A write that reached the store's disk but never the changelog — what a
// task killed between Put and the changelog ack leaves — does not survive
// restore: the restored store is the changelog's fold.
func TestRestoreDropsUnackedWrite(t *testing.T) {
	s := startStack(t)
	s.CreateFeed("unacked-in", 1, 1)
	dataDir := t.TempDir()
	kv, err := state.OpenKV(filepath.Join(dataDir, "unacked-counts-0"))
	if err != nil {
		t.Fatal(err)
	}
	kv.Put([]byte("g"), []byte("7"))
	kv.Close()

	runCounts(t, s, persistentCounter("unacked", "unacked-in", dataDir), 1, func(int) string { return "g" })
	if got := changelogState(t, s, "unacked-counts-changelog", 1)["g"]; got != "1" {
		t.Fatalf("changelog holds g = %q, want \"1\": a write the changelog never received was restored", got)
	}
}

// A persistent store restores from its checkpoint: a restart after a clean
// stop replays nothing, and the counts stay right after more input.
func TestRestoreReplaysOnlySuffix(t *testing.T) {
	s := startStack(t)
	s.CreateFeed("suffix-in", 1, 1)
	cfg := persistentCounter("suffix", "suffix-in", t.TempDir())
	key := func(i int) string { return fmt.Sprintf("k%d", i%4) }
	runCounts(t, s, cfg, 20, key)
	job := runCounts(t, s, cfg, 4, key)
	if got := job.Metrics().Counter("suffix.restored.records").Value(); got != 0 {
		t.Fatalf("second start replayed %d changelog records, want 0: the checkpoint covers them", got)
	}
	counts := changelogState(t, s, "suffix-counts-changelog", 1)
	for i := 0; i < 4; i++ {
		if counts[key(i)] != "6" {
			t.Fatalf("counts = %v, want 6 per key", counts)
		}
	}
}

// A checkpoint ahead of its changelog — a new stack over an old DataDir —
// came from another history: the store is discarded and rebuilt from 0.
func TestCheckpointAheadOfChangelogDiscarded(t *testing.T) {
	dataDir := t.TempDir()
	key := func(int) string { return "g" }
	old := startStack(t)
	old.CreateFeed("ahead-in", 1, 1)
	runCounts(t, old, persistentCounter("ahead", "ahead-in", dataDir), 10, key)
	old.Shutdown()

	s := startStack(t)
	s.CreateFeed("ahead-in", 1, 1)
	runCounts(t, s, persistentCounter("ahead", "ahead-in", dataDir), 1, key)
	if got := changelogState(t, s, "ahead-counts-changelog", 1)["g"]; got != "1" {
		t.Fatalf("changelog holds g = %q, want \"1\": the old stack's checkpoint was trusted", got)
	}
}
