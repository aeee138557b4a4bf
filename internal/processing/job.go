package processing

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/isolation"
	"repro/internal/metrics"
)

// JobConfig declares one processing-layer job.
type JobConfig struct {
	// Name identifies the job; it prefixes changelog topics, the
	// checkpoint group and lineage annotations.
	Name string
	// Inputs are the feeds the job consumes. Task i consumes partition i
	// of every input that has at least i+1 partitions.
	Inputs []string
	// Factory builds the per-task processing logic.
	Factory TaskFactory
	// Stores declares the job's local state.
	Stores []StoreSpec
	// WindowInterval enables periodic Window calls on WindowedTasks.
	WindowInterval time.Duration
	// CheckpointInterval bounds how often consumed offsets are
	// checkpointed to the offset manager (default 1s).
	CheckpointInterval time.Duration
	// Annotations are attached to every checkpoint — e.g. the job's
	// software version, enabling rewind-by-version (paper §4.2).
	Annotations map[string]string
	// StartFrom applies when no checkpoint exists (default earliest).
	StartFrom int64
	// DataDir hosts persistent stores; a job with one requires it.
	// core.Stack.RunJob defaults it into the stack's data directory.
	DataDir string
	// PollWait is the long-poll budget per fetch (default 100ms).
	PollWait time.Duration
	// Governor optionally bounds the job's resources (ETL-as-a-service,
	// paper §4.4). Nil means unconstrained.
	Governor *isolation.Governor
	// ChangelogReplication sets the changelog topics' replication factor.
	ChangelogReplication int16
	// ChangelogCodec compresses changelog batches on the wire and in the
	// log (client.CodecNone or client.CodecFlate). Restore decompresses
	// transparently, so it can be toggled at any point in a changelog's life.
	ChangelogCodec client.Codec
	// MaxTaskRestarts bounds automatic task restarts after processing
	// errors before the task gives up (default 5).
	MaxTaskRestarts int
	// Logger receives job events; nil discards.
	Logger *slog.Logger
	// Metrics receives job counters; nil creates a private registry.
	Metrics *metrics.Registry
}

func (c JobConfig) withDefaults() JobConfig {
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = time.Second
	}
	if c.StartFrom == 0 {
		c.StartFrom = client.StartEarliest
	}
	if c.PollWait == 0 {
		c.PollWait = 100 * time.Millisecond
	}
	if c.ChangelogReplication == 0 {
		c.ChangelogReplication = 1
	}
	if c.MaxTaskRestarts == 0 {
		c.MaxTaskRestarts = 5
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	return c
}

// group names the job's checkpoint group at the offset manager.
func (c JobConfig) group() string { return "job-" + c.Name }

// Job is a running processing-layer job: a set of partition-parallel
// stateful tasks consuming input feeds and producing derived feeds.
type Job struct {
	cfg    JobConfig
	client *client.Client
	logger *slog.Logger

	collectorProducer *client.Producer
	changelogProducer *client.Producer

	mu      sync.Mutex
	tasks   []*taskRunner
	started bool
	stopped bool

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// NewJob validates the config and prepares a job; Start launches it.
func NewJob(c *client.Client, cfg JobConfig) (*Job, error) {
	cfg = cfg.withDefaults()
	if cfg.Name == "" {
		return nil, errors.New("processing: job name is required")
	}
	if len(cfg.Inputs) == 0 {
		return nil, errors.New("processing: at least one input feed is required")
	}
	if cfg.Factory == nil {
		return nil, errors.New("processing: task factory is required")
	}
	for _, spec := range cfg.Stores {
		if spec.Persistent && cfg.DataDir == "" {
			return nil, fmt.Errorf("processing: persistent store %q requires DataDir", spec.Name)
		}
	}
	return &Job{
		cfg:    cfg,
		client: c,
		logger: cfg.Logger.With("job", cfg.Name),
		stopCh: make(chan struct{}),
	}, nil
}

// Metrics returns the job's metrics registry. Notable entries:
// "<job>.processed" (counter), "<job>.process.ns" (histogram),
// "<job>.checkpoints", "<job>.restores", "<job>.restored.records".
func (j *Job) Metrics() *metrics.Registry { return j.cfg.Metrics }

// Name returns the job name.
func (j *Job) Name() string { return j.cfg.Name }

// NumTasks returns the task (partition) count; valid after Start.
func (j *Job) NumTasks() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.tasks)
}

// Start resolves input partitions, creates changelog topics, restores
// state and launches one task per partition.
func (j *Job) Start() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started {
		return errors.New("processing: job already started")
	}
	numTasks := int32(0)
	for _, topic := range j.cfg.Inputs {
		n, err := j.client.PartitionCount(topic)
		if err != nil {
			return fmt.Errorf("processing: input %s: %w", topic, err)
		}
		if n > numTasks {
			numTasks = n
		}
	}
	if numTasks == 0 {
		return errors.New("processing: inputs have no partitions")
	}
	if err := j.ensureChangelogTopics(numTasks); err != nil {
		return err
	}
	j.collectorProducer = client.NewProducer(j.client, client.ProducerConfig{})
	// acks=all: a flushed changelog is committed, so a store checkpoint at
	// its end covers no write a leader change could take back.
	j.changelogProducer = client.NewProducer(j.client, client.ProducerConfig{Codec: j.cfg.ChangelogCodec, Acks: client.AcksAll})

	for i := int32(0); i < numTasks; i++ {
		tr := &taskRunner{job: j, id: i}
		j.tasks = append(j.tasks, tr)
		j.wg.Add(1)
		go func() {
			defer j.wg.Done()
			tr.run()
		}()
	}
	j.started = true
	j.logger.Info("job started", "tasks", numTasks, "inputs", j.cfg.Inputs)
	return nil
}

// Stop gracefully halts all tasks: each takes a final checkpoint after
// flushing its outputs, so a restart resumes exactly where it left off.
func (j *Job) Stop() error {
	j.mu.Lock()
	if !j.started || j.stopped {
		j.mu.Unlock()
		return nil
	}
	j.stopped = true
	j.mu.Unlock()
	close(j.stopCh)
	j.wg.Wait()
	var first error
	if err := j.collectorProducer.Close(); err != nil {
		first = err
	}
	if err := j.changelogProducer.Close(); err != nil && first == nil {
		first = err
	}
	j.logger.Info("job stopped")
	return first
}

// taskRunner drives one task: poll -> process -> window -> checkpoint,
// with restart-on-error recovery through changelog replay.
type taskRunner struct {
	job *Job
	id  int32
	// assignedOnce guards the tasks.assigned counter: restarts re-run the
	// assignment loop, but each task must count exactly once so waiters
	// comparing the counter to NumTasks() see distinct tasks.
	assignedOnce sync.Once
}

// run executes the task until the job stops, restarting after processing
// failures up to the configured budget.
func (t *taskRunner) run() {
	cfg := t.job.cfg
	for attempt := 0; ; attempt++ {
		err := t.runOnce()
		if err == nil {
			return // graceful stop
		}
		t.job.cfg.Metrics.Counter(cfg.Name + ".task.failures").Inc()
		t.job.logger.Warn("task failed", "task", t.id, "attempt", attempt, "err", err)
		if attempt >= cfg.MaxTaskRestarts {
			t.job.logger.Error("task giving up", "task", t.id)
			return
		}
		select {
		case <-t.job.stopCh:
			return
		case <-time.After(backoff(attempt, 50*time.Millisecond, 2*time.Second)):
		}
	}
}

// runOnce builds state, restores, and processes until stop (nil) or
// failure (error).
func (t *taskRunner) runOnce() error {
	cfg := t.job.cfg
	reg := cfg.Metrics

	restoreStart := time.Now()
	stores, replayed, err := t.job.openStores(t.id)
	if err != nil {
		return err
	}
	closeStores := func() {
		for _, s := range stores {
			s.Close()
		}
	}
	if replayed > 0 {
		reg.Counter(cfg.Name + ".restores").Inc()
		reg.Counter(cfg.Name + ".restored.records").Add(int64(replayed))
		reg.Histogram(cfg.Name + ".restore.ns").ObserveSince(restoreStart)
	}

	ctx := &TaskContext{Job: cfg.Name, TaskID: t.id, Metrics: reg, stores: stores}
	task := cfg.Factory()
	if init, ok := task.(InitableTask); ok {
		if err := init.Init(ctx); err != nil {
			closeStores()
			return err
		}
	}
	defer func() {
		if cl, ok := task.(ClosableTask); ok {
			cl.Close()
		}
		closeStores()
	}()

	collector := &Collector{
		job:      cfg.Name,
		producer: t.job.collectorProducer,
		sent:     reg.Counter(cfg.Name + ".sent"),
	}

	// Assign inputs from the last checkpoint (incremental processing:
	// already-processed data is skipped, paper §4.2).
	consumer := client.NewConsumer(t.job.client, client.ConsumerConfig{})
	defer consumer.Close()
	positions := make(map[string]int64)
	for _, topic := range cfg.Inputs {
		n, err := t.job.client.PartitionCount(topic)
		if err != nil || t.id >= n {
			continue
		}
		committed, err := t.job.client.FetchOffsets(cfg.group(), topic, []int32{t.id})
		if err != nil {
			return err
		}
		start := committed[t.id]
		if start < 0 {
			start = cfg.StartFrom
		}
		if err := consumer.Assign(topic, t.id, start); err != nil {
			return err
		}
		positions[topic] = consumer.Position(topic, t.id)
	}
	// Signal that start offsets are resolved: tests and operators can wait
	// for counter == NumTasks() instead of sleeping (a StartLatest job's
	// point-in-time "now" is fixed exactly here). Counted once per task —
	// restarts must not inflate it past the task count.
	t.assignedOnce.Do(func() { reg.Counter(cfg.Name + ".tasks.assigned").Inc() })

	processed := reg.Counter(cfg.Name + ".processed")
	procNS := reg.Histogram(cfg.Name + ".process.ns")
	e2eNS := reg.Histogram(cfg.Name + ".e2e.ns")
	lastCheckpoint := time.Now()
	lastWindow := time.Now()
	windowed, hasWindow := task.(WindowedTask)

	checkpoint := func() error {
		if err := collector.Flush(); err != nil {
			return err
		}
		if err := t.job.changelogProducer.Flush(); err != nil {
			return err
		}
		for _, s := range stores {
			if cs, ok := s.(*changelogStore); ok {
				if err := cs.checkpoint(t.job.client); err != nil {
					return err
				}
			}
		}
		commit := make(map[string]map[int32]int64)
		for topic := range positions {
			pos := consumer.Position(topic, t.id)
			if pos < 0 {
				continue
			}
			commit[topic] = map[int32]int64{t.id: pos}
		}
		if len(commit) == 0 {
			return nil
		}
		if err := t.job.client.CommitOffsets(cfg.group(), commit, cfg.Annotations); err != nil {
			return err
		}
		reg.Counter(cfg.Name + ".checkpoints").Inc()
		return nil
	}

	for {
		select {
		case <-t.job.stopCh:
			return checkpoint() // final checkpoint; nil error = done
		default:
		}
		msgs, err := consumer.Poll(cfg.PollWait)
		if err != nil {
			// Transient broker churn: back off briefly and retry.
			select {
			case <-t.job.stopCh:
				return checkpoint()
			case <-time.After(20 * time.Millisecond):
			}
			continue
		}
		for _, msg := range msgs {
			start := time.Now()
			var perr error
			cfg.Governor.Meter(func() {
				perr = task.Process(msg, ctx, collector)
			})
			procNS.ObserveSince(start)
			if msg.Timestamp > 0 {
				e2e := time.Now().UnixMilli() - msg.Timestamp
				e2eNS.Observe(e2e * int64(time.Millisecond))
			}
			if perr != nil {
				return fmt.Errorf("processing: task %d: %w", t.id, perr)
			}
			processed.Inc()
		}
		now := time.Now()
		if hasWindow && cfg.WindowInterval > 0 && now.Sub(lastWindow) >= cfg.WindowInterval {
			lastWindow = now
			var werr error
			cfg.Governor.Meter(func() {
				werr = windowed.Window(ctx, collector)
			})
			if werr != nil {
				return fmt.Errorf("processing: task %d window: %w", t.id, werr)
			}
		}
		if now.Sub(lastCheckpoint) >= cfg.CheckpointInterval {
			lastCheckpoint = now
			if err := checkpoint(); err != nil {
				return err
			}
		}
	}
}
