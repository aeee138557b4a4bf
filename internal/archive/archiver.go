package archive

import (
	"errors"
	"log/slog"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/dfs"
)

// ArchiverConfig parameterises an Archiver.
type ArchiverConfig struct {
	// Topic is the feed to archive.
	Topic string
	// FS is the destination file system.
	FS *dfs.FS
	// Root is the archive tree's DFS root (default "/archive").
	Root string
	// Name distinguishes independent archivers of one topic; it names the
	// consumer group ("__archiver-<Name>", default Name = Topic).
	Name string
	// SegmentBytes rolls a segment when its stored batch bytes reach this
	// size (default 4 MiB).
	SegmentBytes int64
	// SegmentRecords rolls a segment at this record count (0 = no bound).
	// Both bounds are met at batch granularity: segments are cut between
	// the log's batches.
	SegmentRecords int
	// FlushInterval rolls a non-empty buffer after this much time even if
	// undersized, bounding archive staleness (default 2s).
	FlushInterval time.Duration
	// PollWait is the fetch long-poll bound (default 250ms).
	PollWait time.Duration
	// StartFrom applies to partitions with no committed offset and no
	// manifest (default StartEarliest).
	StartFrom int64
	// SessionTimeout / RebalanceTimeout size the consumer group protocol;
	// zero uses the client defaults.
	SessionTimeout   time.Duration
	RebalanceTimeout time.Duration
	// Logger receives operational events.
	Logger *slog.Logger
}

func (c ArchiverConfig) withDefaults() ArchiverConfig {
	if c.Root == "" {
		c.Root = "/archive"
	}
	if c.Name == "" {
		c.Name = c.Topic
	}
	if c.SegmentBytes == 0 {
		c.SegmentBytes = 4 << 20
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = 2 * time.Second
	}
	if c.PollWait == 0 {
		c.PollWait = 250 * time.Millisecond
	}
	if c.StartFrom == 0 {
		c.StartFrom = client.StartEarliest
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// ArchiverStats summarises an archiver's progress.
type ArchiverStats struct {
	// Records / Bytes / Segments count committed archive output.
	Records  int64
	Bytes    int64
	Segments int64
	// Partitions is the current assignment size.
	Partitions int
	// CommitErrors counts failed offset checkpoints (the manifest still
	// guarantees exactly-once resume; the checkpoint lags until retried).
	CommitErrors int64
}

// Archiver continuously exports a feed into the archive tree: it joins a
// consumer group (one export task per assigned partition), drains messages
// into rolled segments, and checkpoints each roll through the offset
// manager with offset↔segment annotations. Multiple Archiver instances
// with the same Name share the group and split the partitions.
type Archiver struct {
	c   *client.Client
	cfg ArchiverConfig
	gc  *client.GroupConsumer

	exporters map[int32]*exporter // touched only by the run goroutine

	mu      sync.Mutex
	stats   ArchiverStats
	started bool
	stopped bool

	// skipCommits suppresses offset checkpoints; tests use it to model a
	// crash window between manifest commit and offset commit.
	skipCommits bool

	stop chan struct{}
	kill chan struct{}
	done chan struct{}
}

// NewArchiver creates an archiver (not yet running).
func NewArchiver(c *client.Client, cfg ArchiverConfig) (*Archiver, error) {
	cfg = cfg.withDefaults()
	if cfg.Topic == "" {
		return nil, errors.New("archive: Topic is required")
	}
	if cfg.FS == nil {
		return nil, errors.New("archive: FS is required")
	}
	return &Archiver{
		c:         c,
		cfg:       cfg,
		exporters: make(map[int32]*exporter),
		stop:      make(chan struct{}),
		kill:      make(chan struct{}),
		done:      make(chan struct{}),
	}, nil
}

// exporterConfig renders the per-partition exporter sizing.
func (a *Archiver) exporterConfig() exporterConfig {
	return exporterConfig{
		segmentBytes:   a.cfg.SegmentBytes,
		segmentRecords: a.cfg.SegmentRecords,
		flushAge:       a.cfg.FlushInterval,
	}
}

// Group returns the archiver's consumer group id.
func (a *Archiver) Group() string { return "__archiver-" + a.cfg.Name }

// Topic returns the archived feed.
func (a *Archiver) Topic() string { return a.cfg.Topic }

// Stats returns progress counters.
func (a *Archiver) Stats() ArchiverStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Start joins the group and launches the export loop.
func (a *Archiver) Start() error {
	a.mu.Lock()
	if a.started {
		a.mu.Unlock()
		return errors.New("archive: archiver already started")
	}
	a.started = true
	a.mu.Unlock()
	gc, err := client.NewGroupConsumer(a.c,
		client.ConsumerConfig{OnReset: client.ResetEarliest},
		client.GroupConfig{
			Group:            a.Group(),
			Topics:           []string{a.cfg.Topic},
			StartFrom:        a.cfg.StartFrom,
			SessionTimeout:   a.cfg.SessionTimeout,
			RebalanceTimeout: a.cfg.RebalanceTimeout,
			OnAssigned:       a.onAssigned,
		})
	if err != nil {
		return err
	}
	a.gc = gc
	go a.run()
	return nil
}

// onAssigned rebuilds the per-partition exporters for a new assignment and
// aligns the consumer with each manifest. It runs on the run goroutine
// (inside Poll's rejoin), so it may touch exporters directly.
func (a *Archiver) onAssigned(assignment map[string][]int32) {
	parts := assignment[a.cfg.Topic]
	next := make(map[int32]*exporter, len(parts))
	for _, p := range parts {
		exp, err := openExporter(a.cfg.FS, a.cfg.Root, a.cfg.Topic, p, a.exporterConfig())
		if err != nil {
			a.cfg.Logger.Error("archive: open exporter", "topic", a.cfg.Topic, "partition", p, "err", err)
			continue
		}
		// The manifest, not the committed offset, is the resume truth: a
		// crash between manifest commit and offset commit leaves the
		// checkpoint behind, and redelivered records would be duplicates.
		if pos := a.gc.Position(a.cfg.Topic, p); pos != exp.man.NextOffset && exp.man.NextOffset > 0 {
			if err := a.gc.Seek(a.cfg.Topic, p, exp.man.NextOffset); err != nil {
				a.cfg.Logger.Error("archive: seek", "topic", a.cfg.Topic, "partition", p, "err", err)
			}
		}
		next[p] = exp
	}
	a.exporters = next
	a.mu.Lock()
	a.stats.Partitions = len(next)
	a.mu.Unlock()
}

// run is the export loop: poll, buffer, roll, checkpoint.
func (a *Archiver) run() {
	defer close(a.done)
	for {
		select {
		case <-a.kill:
			return
		case <-a.stop:
			a.rollDue(true)
			return
		default:
		}
		batches, err := a.gc.PollBatches(a.cfg.PollWait)
		if err != nil {
			if errors.Is(err, client.ErrGroupClosed) {
				return
			}
			a.cfg.Logger.Warn("archive: poll", "topic", a.cfg.Topic, "err", err)
			time.Sleep(50 * time.Millisecond)
			continue
		}
		// Partitions whose exporter failed to open during onAssigned are
		// retried here on their next batch, so a transient DFS error
		// cannot silently stall a partition until the next rebalance. The
		// consumer is re-seeked to the manifest and the rest of the poll
		// skipped for the partition, so the retry never leaves an offset
		// gap; the same realignment answers a batch the exporter refuses.
		skip := make(map[int32]bool)
		for _, b := range batches {
			if b.Topic != a.cfg.Topic || skip[b.Partition] {
				continue
			}
			exp, ok := a.exporters[b.Partition]
			if !ok {
				fresh, err := openExporter(a.cfg.FS, a.cfg.Root, a.cfg.Topic, b.Partition, a.exporterConfig())
				if err != nil {
					a.cfg.Logger.Warn("archive: open exporter retry", "topic", a.cfg.Topic, "partition", b.Partition, "err", err)
					skip[b.Partition] = true
					continue
				}
				a.exporters[b.Partition] = fresh
				exp = fresh
			} else if exp.add(b) {
				continue
			}
			_ = a.gc.Seek(a.cfg.Topic, b.Partition, exp.nextOffset())
			skip[b.Partition] = true
		}
		a.rollDue(false)
	}
}

// rollDue rolls every exporter whose buffer crossed a threshold (or every
// non-empty one when force is set) and checkpoints each roll. A buffer
// holding several segments' worth rolls repeatedly until under threshold.
func (a *Archiver) rollDue(force bool) {
	for p, exp := range a.exporters {
		for exp.shouldRoll() || (force && len(exp.batches) > 0) {
			info, err := exp.roll()
			if errors.Is(err, ErrManifestConflict) {
				// Another export task owns this partition now (it moved
				// during a rebalance this member hasn't seen yet). Reload
				// from the committed manifest and realign the consumer.
				a.cfg.Logger.Warn("archive: stale exporter", "topic", a.cfg.Topic, "partition", p, "err", err)
				fresh, oerr := openExporter(a.cfg.FS, a.cfg.Root, a.cfg.Topic, p, a.exporterConfig())
				if oerr != nil {
					delete(a.exporters, p)
					break
				}
				a.exporters[p] = fresh
				_ = a.gc.Seek(a.cfg.Topic, p, fresh.man.NextOffset)
				break
			}
			if err != nil {
				a.cfg.Logger.Error("archive: roll", "topic", a.cfg.Topic, "partition", p, "err", err)
				break
			}
			a.mu.Lock()
			a.stats.Records += info.Records
			a.stats.Bytes += info.Bytes
			a.stats.Segments++
			skip := a.skipCommits
			a.mu.Unlock()
			if skip {
				continue
			}
			err = a.c.CommitOffsets(a.Group(),
				map[string]map[int32]int64{a.cfg.Topic: {p: exp.man.NextOffset}},
				segmentAnnotations(info))
			if err != nil {
				a.cfg.Logger.Warn("archive: offset commit", "topic", a.cfg.Topic, "partition", p, "err", err)
				a.mu.Lock()
				a.stats.CommitErrors++
				a.mu.Unlock()
			}
		}
	}
}

// Stop drains gracefully: buffered batches are rolled into final segments
// and checkpointed before the group is left.
func (a *Archiver) Stop() error {
	if !a.markStopped() {
		return nil
	}
	close(a.stop)
	<-a.done
	return a.gc.Close()
}

// Kill models a crash: the loop halts immediately, abandoning buffered
// records and uncommitted checkpoints. A restarted archiver must recover
// from the manifests and committed offsets alone.
func (a *Archiver) Kill() {
	if !a.markStopped() {
		return
	}
	close(a.kill)
	<-a.done
	_ = a.gc.Close()
}

// markStopped flips the stopped flag, reporting whether this call won.
func (a *Archiver) markStopped() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.started || a.stopped {
		return false
	}
	a.stopped = true
	return true
}

// FailCheckpoints is a failure-injection hook for recovery tests: segments
// and manifests keep committing, offset checkpoints stop — modelling a
// crash in the window between manifest commit and checkpoint, the widest
// window exactly-once recovery must close. Combine with Kill.
func (a *Archiver) FailCheckpoints() {
	a.mu.Lock()
	a.skipCommits = true
	a.mu.Unlock()
}
