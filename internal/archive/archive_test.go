package archive_test

import (
	"bytes"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/mapreduce"
)

// newStack boots a single-broker stack with fast timeouts.
func newStack(t *testing.T) *core.Stack {
	t.Helper()
	s, err := core.Start(core.Config{
		Brokers:        1,
		SessionTimeout: 700 * time.Millisecond,
		Logger:         slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError})),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

// produceN publishes n keyed messages "k<i>" -> "v<i>" and returns when
// they are all acknowledged.
func produceN(t *testing.T, s *core.Stack, topic string, from, n int) {
	t.Helper()
	p := s.NewProducer(client.ProducerConfig{})
	defer p.Close()
	for i := from; i < from+n; i++ {
		if err := p.Send(client.Message{
			Topic: topic,
			Key:   []byte(fmt.Sprintf("k%d", i)),
			Value: []byte(fmt.Sprintf("v%d", i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
}

// archivedValues reads every committed segment of a topic and returns the
// values in manifest order per partition, failing on offset regressions or
// duplicates within a partition.
func archivedValues(t *testing.T, s *core.Stack, root, topic string) map[int32][]string {
	t.Helper()
	fs, err := s.ArchiveFS()
	if err != nil {
		t.Fatal(err)
	}
	manifests, err := archive.ListManifests(fs, root, topic)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int32][]string)
	for _, m := range manifests {
		last := int64(-1)
		for _, seg := range m.Segments {
			data, err := fs.ReadFile(seg.Path)
			if err != nil {
				t.Fatalf("segment %s: %v", seg.Path, err)
			}
			records, err := archive.DecodeSegment(data)
			if err != nil {
				t.Fatalf("segment %s: %v", seg.Path, err)
			}
			if int64(len(records)) != seg.Records {
				t.Fatalf("segment %s holds %d records, manifest says %d", seg.Path, len(records), seg.Records)
			}
			for _, r := range records {
				if r.Offset <= last {
					t.Fatalf("partition %d: offset %d after %d (duplicate or disorder)", m.Partition, r.Offset, last)
				}
				last = r.Offset
				out[m.Partition] = append(out[m.Partition], string(r.Value))
			}
		}
		if m.NextOffset != last+1 {
			t.Fatalf("partition %d: NextOffset %d, last archived %d", m.Partition, m.NextOffset, last)
		}
	}
	return out
}

// waitArchived polls until the archive of topic holds want records total.
func waitArchived(t *testing.T, s *core.Stack, root, topic string, want int, timeout time.Duration) {
	t.Helper()
	fs, err := s.ArchiveFS()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var total int64
		if manifests, err := archive.ListManifests(fs, root, topic); err == nil {
			for _, m := range manifests {
				total += m.Records()
			}
		}
		if total >= int64(want) {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("archive did not reach %d records in %v", want, timeout)
}

func TestArchiverExportsFeed(t *testing.T) {
	s := newStack(t)
	const topic, n = "arch-events", 200
	if err := s.CreateFeed(topic, 2, 1); err != nil {
		t.Fatal(err)
	}
	produceN(t, s, topic, 0, n)

	a, err := s.StartArchiver(archive.ArchiverConfig{
		Topic:          topic,
		SegmentRecords: 32,
		FlushInterval:  100 * time.Millisecond,
		PollWait:       100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitArchived(t, s, "/archive", topic, n, 15*time.Second)
	if err := a.Stop(); err != nil {
		t.Fatal(err)
	}

	byPart := archivedValues(t, s, "/archive", topic)
	total := 0
	seen := make(map[string]bool)
	for _, vals := range byPart {
		for _, v := range vals {
			if seen[v] {
				t.Fatalf("value %s archived twice", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != n {
		t.Fatalf("archived %d records, want %d", total, n)
	}

	// The annotated checkpoints record the offset↔segment mapping: asking
	// the offset manager for a segment path must return that segment's
	// covered offset.
	fs, _ := s.ArchiveFS()
	manifests, err := archive.ListManifests(fs, "/archive", topic)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range manifests {
		committed, err := s.Client().FetchOffsets(a.Group(), topic, []int32{m.Partition})
		if err != nil {
			t.Fatal(err)
		}
		if committed[m.Partition] != m.NextOffset {
			t.Fatalf("partition %d: committed %d, manifest %d", m.Partition, committed[m.Partition], m.NextOffset)
		}
		lastSeg := m.Segments[len(m.Segments)-1]
		off, found, err := s.Client().QueryOffset(a.Group(), topic, m.Partition, "archive.segment", lastSeg.Path)
		if err != nil || !found {
			t.Fatalf("partition %d: segment annotation not queryable: %v %v", m.Partition, found, err)
		}
		if off != lastSeg.LastOffset+1 {
			t.Fatalf("partition %d: annotation offset %d, want %d", m.Partition, off, lastSeg.LastOffset+1)
		}
	}
	if st := a.Stats(); st.Records != int64(n) || st.Segments == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestArchiverCrashRecovery kills an archiver in the widest crash window —
// segments and manifests committed, offset checkpoints suppressed — then
// restarts it and proves the archive converges with no record lost or
// archived twice.
func TestArchiverCrashRecovery(t *testing.T) {
	s := newStack(t)
	const topic = "arch-crash"
	const firstBatch, secondBatch = 150, 100
	if err := s.CreateFeed(topic, 2, 1); err != nil {
		t.Fatal(err)
	}
	produceN(t, s, topic, 0, firstBatch)

	a1, err := s.StartArchiver(archive.ArchiverConfig{
		Topic:          topic,
		SegmentRecords: 20,
		FlushInterval:  100 * time.Millisecond,
		PollWait:       100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	a1.FailCheckpoints()
	// Let it commit a few segments (manifests ahead of checkpoints), then
	// crash mid-export.
	waitArchived(t, s, "/archive", topic, 40, 15*time.Second)
	a1.Kill()

	// No offset checkpoint may exist: recovery must come from manifests.
	committed, err := s.Client().FetchOffsets(a1.Group(), topic, []int32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for p, off := range committed {
		if off != -1 {
			t.Fatalf("partition %d has committed offset %d despite FailCheckpoints", p, off)
		}
	}

	// More traffic lands while the archiver is down.
	produceN(t, s, topic, firstBatch, secondBatch)

	a2, err := s.StartArchiver(archive.ArchiverConfig{
		Topic:          topic,
		SegmentRecords: 20,
		FlushInterval:  100 * time.Millisecond,
		PollWait:       100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := firstBatch + secondBatch
	waitArchived(t, s, "/archive", topic, total, 20*time.Second)
	if err := a2.Stop(); err != nil {
		t.Fatal(err)
	}

	byPart := archivedValues(t, s, "/archive", topic)
	seen := make(map[string]bool)
	count := 0
	for _, vals := range byPart {
		for _, v := range vals {
			if seen[v] {
				t.Fatalf("value %s archived twice across crash", v)
			}
			seen[v] = true
			count++
		}
	}
	if count != total {
		t.Fatalf("archived %d records across crash, want %d", count, total)
	}
	for i := 0; i < total; i++ {
		if !seen[fmt.Sprintf("v%d", i)] {
			t.Fatalf("record v%d lost across crash", i)
		}
	}
}

func TestSnapshotThenMapReduce(t *testing.T) {
	s := newStack(t)
	const topic = "arch-words"
	if err := s.CreateFeed(topic, 2, 1); err != nil {
		t.Fatal(err)
	}
	words := []string{"log", "feed", "log", "archive", "feed", "log"}
	p := s.NewProducer(client.ProducerConfig{})
	for i, w := range words {
		if err := p.Send(client.Message{Topic: topic, Key: []byte(strconv.Itoa(i)), Value: []byte(w)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	p.Close()

	stats, err := s.ArchiveSnapshot(archive.SnapshotConfig{Topic: topic, SegmentRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != int64(len(words)) {
		t.Fatalf("snapshot exported %d records, want %d", stats.Records, len(words))
	}
	// Idempotent: a second snapshot with no new traffic exports nothing.
	again, err := s.ArchiveSnapshot(archive.SnapshotConfig{Topic: topic, SegmentRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	if again.Records != 0 || again.Segments != 0 {
		t.Fatalf("re-snapshot exported %+v, want nothing", again)
	}

	// A MapReduce word count straight over the archived segments.
	fs, err := s.ArchiveFS()
	if err != nil {
		t.Fatal(err)
	}
	files, decode, err := archive.MRInput(fs, "/archive", topic)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no segment inputs")
	}
	engine := mapreduce.NewEngine(fs, mapreduce.EngineConfig{})
	_, err = engine.Run(mapreduce.JobSpec{
		Name:       "wordcount",
		InputFiles: files,
		Decode:     decode,
		OutputDir:  "/out/wordcount",
		Map: func(_, value string, emit func(k, v string)) error {
			emit(value, "1")
			return nil
		},
		Reduce: func(key string, values []string, emit func(k, v string)) error {
			emit(key, strconv.Itoa(len(values)))
			return nil
		},
		NumReducers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]string)
	for _, info := range fs.List("/out/wordcount/") {
		data, err := fs.ReadFile(info.Path)
		if err != nil {
			t.Fatal(err)
		}
		for _, kv := range mapreduce.DecodeLines(data) {
			counts[kv.Key] = kv.Value
		}
	}
	if counts["log"] != "3" || counts["feed"] != "2" || counts["archive"] != "1" {
		t.Fatalf("word counts = %v", counts)
	}

	// Incremental: new traffic, new snapshot, only the delta exports.
	produceN(t, s, topic, 100, 10)
	delta, err := s.ArchiveSnapshot(archive.SnapshotConfig{Topic: topic, SegmentRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	if delta.Records != 10 {
		t.Fatalf("delta snapshot exported %d records, want 10", delta.Records)
	}

	// A corrupted segment must fail the MR job loudly, never undercount.
	files, decode, err = archive.MRInput(fs, "/archive", topic)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete(files[0]); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(files[0], []byte("garbage, not a segment")); err != nil {
		t.Fatal(err)
	}
	_, err = engine.Run(mapreduce.JobSpec{
		Name:       "wordcount-corrupt",
		InputFiles: files,
		Decode:     decode,
		OutputDir:  "/out/wordcount-corrupt",
	})
	if err == nil {
		t.Fatal("MR over a corrupted segment succeeded; want a decode error")
	}
}

func TestBackfillExactlyOnce(t *testing.T) {
	s := newStack(t)
	const src, dst = "arch-src", "arch-dst"
	const n = 120
	if err := s.CreateFeed(src, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateFeed(dst, 2, 1); err != nil {
		t.Fatal(err)
	}
	produceN(t, s, src, 0, n)
	snap, err := s.ArchiveSnapshot(archive.SnapshotConfig{Topic: src, SegmentRecords: 25})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Records != n {
		t.Fatalf("snapshot %d records, want %d", snap.Records, n)
	}

	stats, err := s.Backfill(archive.BackfillConfig{
		SourceTopic:        src,
		TargetTopic:        dst,
		PreservePartitions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != n {
		t.Fatalf("backfill republished %d records, want %d", stats.Records, n)
	}

	// Consume the target feed and verify the republished stream matches
	// the archive: same values, same partitions, original offsets carried
	// in headers and strictly increasing per partition.
	cons := s.NewConsumer(client.ConsumerConfig{})
	defer cons.Close()
	cons.Assign(dst, 0, client.StartEarliest)
	cons.Assign(dst, 1, client.StartEarliest)
	type replayed struct {
		value      string
		origOffset int64
	}
	got := make(map[int32][]replayed)
	count := 0
	deadline := time.Now().Add(15 * time.Second)
	for count < n && time.Now().Before(deadline) {
		msgs, err := cons.Poll(200 * time.Millisecond)
		if err != nil {
			continue
		}
		for _, m := range msgs {
			var orig int64 = -1
			var seg string
			for _, h := range m.Headers {
				switch h.Key {
				case archive.HeaderBackfillOffset:
					orig, _ = strconv.ParseInt(string(h.Value), 10, 64)
				case archive.HeaderBackfillSegment:
					seg = string(h.Value)
				}
			}
			if orig < 0 || seg == "" {
				t.Fatalf("backfilled message lacks provenance headers: %+v", m.Headers)
			}
			got[m.Partition] = append(got[m.Partition], replayed{value: string(m.Value), origOffset: orig})
			count++
		}
	}
	if count != n {
		t.Fatalf("consumed %d backfilled records, want %d", count, n)
	}
	want := archivedValues(t, s, "/archive", src)
	for p, records := range got {
		if len(records) != len(want[p]) {
			t.Fatalf("partition %d: replayed %d records, archived %d", p, len(records), len(want[p]))
		}
		last := int64(-1)
		for i, r := range records {
			if r.value != want[p][i] {
				t.Fatalf("partition %d record %d: value %q, archived %q", p, i, r.value, want[p][i])
			}
			if r.origOffset <= last {
				t.Fatalf("partition %d: original offsets disordered (%d after %d)", p, r.origOffset, last)
			}
			last = r.origOffset
		}
	}

	// Exactly-once handoff: a re-run under the same group skips every
	// segment and republishes nothing.
	rerun, err := s.Backfill(archive.BackfillConfig{
		SourceTopic:        src,
		TargetTopic:        dst,
		PreservePartitions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rerun.Records != 0 || rerun.Segments != 0 {
		t.Fatalf("re-run republished %+v, want nothing", rerun)
	}
	if rerun.SkippedSegments != stats.Segments {
		t.Fatalf("re-run skipped %d segments, want %d", rerun.SkippedSegments, stats.Segments)
	}
}

func TestBackfillRateBound(t *testing.T) {
	s := newStack(t)
	const src, dst = "rate-src", "rate-dst"
	const n = 50
	if err := s.CreateFeed(src, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateFeed(dst, 1, 1); err != nil {
		t.Fatal(err)
	}
	produceN(t, s, src, 0, n)
	if _, err := s.ArchiveSnapshot(archive.SnapshotConfig{Topic: src}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	stats, err := s.Backfill(archive.BackfillConfig{
		SourceTopic:        src,
		TargetTopic:        dst,
		PreservePartitions: true,
		RecordsPerSec:      200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != n {
		t.Fatalf("republished %d, want %d", stats.Records, n)
	}
	// 50 records at 200/s must take at least ~240ms.
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Fatalf("rate-bounded backfill finished in %v, too fast for 200/s", elapsed)
	}
}

// produceBatches publishes count batches of per keyed messages to partition
// 0 of topic, one Flush per batch, from offset-numbered values "v<i>".
func produceBatches(s *core.Stack, topic string, from, count, per int) error {
	p := s.NewProducer(client.ProducerConfig{Codec: client.CodecFlate, Linger: time.Hour})
	defer p.Close()
	for i := from; i < from+count*per; i++ {
		if err := p.SendExplicit(client.Message{
			Topic: topic, Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte(fmt.Sprintf("v%d", i)),
		}); err != nil {
			return err
		}
		if (i-from+1)%per == 0 {
			if err := p.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// logBatches reads partition 0 of topic from offset 0 to end as whole
// batches: the log's own bytes.
func logBatches(t *testing.T, s *core.Stack, topic string, end int64) []client.Batch {
	t.Helper()
	cons := s.NewConsumer(client.ConsumerConfig{})
	defer cons.Close()
	if err := cons.Assign(topic, 0, 0); err != nil {
		t.Fatal(err)
	}
	var out []client.Batch
	deadline := time.Now().Add(10 * time.Second)
	for cons.Position(topic, 0) < end && time.Now().Before(deadline) {
		batches, err := cons.PollBatches(100 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, batches...)
	}
	return out
}

// An archiver started inside a batch archives exactly the records at or
// after its start: the straddling batch is re-sealed from the start offset
// and every later batch is archived as the log stored it.
func TestArchiverStartFromInsideBatch(t *testing.T) {
	s := newStack(t)
	const topic, start = "arch-mid", 37
	if err := s.CreateFeed(topic, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := produceBatches(s, topic, 0, 4, 25); err != nil { // batches [0,24] [25,49] [50,74] [75,99]
		t.Fatal(err)
	}
	a, err := s.StartArchiver(archive.ArchiverConfig{
		Topic:         topic,
		StartFrom:     start,
		FlushInterval: 100 * time.Millisecond,
		PollWait:      100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitArchived(t, s, "/archive", topic, 100-start, 15*time.Second)
	if err := a.Stop(); err != nil {
		t.Fatal(err)
	}
	vals := archivedValues(t, s, "/archive", topic)[0]
	if len(vals) != 100-start || vals[0] != fmt.Sprintf("v%d", start) || vals[len(vals)-1] != "v99" {
		t.Fatalf("archived %d values %v..., want v%d..v99", len(vals), vals[:min(3, len(vals))], start)
	}
	fs, _ := s.ArchiveFS()
	manifests, err := archive.ListManifests(fs, "/archive", topic)
	if err != nil {
		t.Fatal(err)
	}
	var archived []byte
	for _, seg := range manifests[0].Segments {
		data, err := fs.ReadFile(seg.Path)
		if err != nil {
			t.Fatal(err)
		}
		archived = append(archived, data...)
	}
	var tail []byte
	for _, b := range logBatches(t, s, topic, 100) {
		if b.Info.BaseOffset > start {
			tail = append(tail, b.Data...)
		}
	}
	if !bytes.HasSuffix(archived, tail) {
		t.Fatal("the batches after the start are not archived as the log stored them")
	}
	if manifests[0].Segments[0].BaseOffset != start {
		t.Fatalf("first segment starts at %d, want %d", manifests[0].Segments[0].BaseOffset, start)
	}
}

// A snapshot racing a writer archives a batch-aligned prefix of the log:
// it stops at a batch boundary at or after the end it read, every archived
// batch is byte-identical to the log's, and the next snapshot continues
// from there with no gap and no duplicate.
func TestSnapshotStopsAtBatchBoundary(t *testing.T) {
	s := newStack(t)
	const topic = "arch-race"
	if err := s.CreateFeed(topic, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := produceBatches(s, topic, 0, 10, 10); err != nil {
		t.Fatal(err)
	}
	racing := make(chan error, 1)
	go func() { racing <- produceBatches(s, topic, 100, 20, 10) }()
	first, err := s.ArchiveSnapshot(archive.SnapshotConfig{Topic: topic, SegmentRecords: 15})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-racing; err != nil {
		t.Fatal(err)
	}
	next := first.NextOffsets[0]
	if next < 100 || next > 300 || next%10 != 0 || first.Records != next {
		t.Fatalf("snapshot exported %d records to offset %d; want a batch boundary in [100, 300]", first.Records, next)
	}
	second, err := s.ArchiveSnapshot(archive.SnapshotConfig{Topic: topic, SegmentRecords: 15})
	if err != nil {
		t.Fatal(err)
	}
	if second.NextOffsets[0] != 300 || first.Records+second.Records != 300 {
		t.Fatalf("snapshots exported %d + %d records to offset %d, want 300", first.Records, second.Records, second.NextOffsets[0])
	}
	vals := archivedValues(t, s, "/archive", topic)[0]
	for i, v := range vals {
		if v != fmt.Sprintf("v%d", i) {
			t.Fatalf("archived value %d = %s", i, v)
		}
	}
	fs, _ := s.ArchiveFS()
	manifests, err := archive.ListManifests(fs, "/archive", topic)
	if err != nil {
		t.Fatal(err)
	}
	var archived, logged []byte
	for _, seg := range manifests[0].Segments {
		data, err := fs.ReadFile(seg.Path)
		if err != nil {
			t.Fatal(err)
		}
		archived = append(archived, data...)
	}
	for _, b := range logBatches(t, s, topic, 300) {
		logged = append(logged, b.Data...)
	}
	if !bytes.Equal(archived, logged) {
		t.Fatalf("archive holds %d bytes, not the log's %d bytes of batches", len(archived), len(logged))
	}
}
