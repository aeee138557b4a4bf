package bench

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/storage/compact"
	"repro/internal/storage/log"
	"repro/internal/storage/record"
)

// E2ThroughputVsLogSize validates §4.1: append and tail-read throughput of
// the commit log stay constant as the log grows (the property that makes
// long retention cheap).
func E2ThroughputVsLogSize(scale Scale) Table {
	t := Table{
		ID:      "E2",
		Title:   "read/write throughput vs log size",
		Claim:   "§4.1: throughput remains constant independent of log size",
		Headers: []string{"log size (MB)", "append MB/s", "tail-read MB/s"},
	}
	sizesMB := []int{16, 64, 128, 256}
	if scale.Quick {
		sizesMB = []int{4, 16}
	}
	const recordBytes = 1024
	value := make([]byte, recordBytes)
	dir, err := os.MkdirTemp("", "e2-")
	if err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	defer os.RemoveAll(dir)
	l, err := log.Open(dir, log.Config{SegmentBytes: 32 << 20, RetentionMs: -1, RetentionBytes: -1})
	if err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	defer l.Close()

	var written int64
	batch := make([]record.Record, 64)
	for _, sizeMB := range sizesMB {
		target := int64(sizeMB) << 20
		// Grow the log to the target while timing the appends.
		start := time.Now()
		var grew int64
		for written < target {
			for i := range batch {
				batch[i] = record.Record{Timestamp: 1, Value: value}
			}
			if _, err := l.Append(batch); err != nil {
				t.Notes = append(t.Notes, "append failed: "+err.Error())
				return t
			}
			written += int64(len(batch) * recordBytes)
			grew += int64(len(batch) * recordBytes)
		}
		appendRate := mbPerSec(grew, time.Since(start))

		// Quiesce OS write-back so read timing is not charged for
		// flushing the data just written.
		if err := l.Flush(); err != nil {
			t.Notes = append(t.Notes, "flush failed: "+err.Error())
			return t
		}

		// Tail read: the last ~4MB of the log.
		tail := int64(4 << 20)
		startOffset := l.NextOffset() - tail/recordBytes
		start = time.Now()
		var readBytes int64
		off := startOffset
		for off < l.NextOffset() {
			data, err := l.Read(off, 1<<20)
			if err != nil || len(data) == 0 {
				break
			}
			readBytes += int64(len(data))
			info, err := record.PeekBatchInfo(data[len(data)-lastBatchLen(data):])
			if err != nil {
				break
			}
			off = info.LastOffset + 1
		}
		readRate := mbPerSec(readBytes, time.Since(start))
		t.Rows = append(t.Rows, []string{fmt.Sprint(sizeMB), appendRate, readRate})
	}
	t.Notes = append(t.Notes, "expected shape: both columns roughly flat across sizes")
	return t
}

// lastBatchLen returns the length of the final complete batch in data.
func lastBatchLen(data []byte) int {
	pos, last := 0, 0
	for pos < len(data) {
		n, err := record.PeekBatchLen(data[pos:])
		if err != nil {
			break
		}
		last = n
		pos += n
	}
	return last
}

// E4Compaction validates §4.1's log compaction: keyed changelogs shrink to
// ~one record per key and recovery reads proportionally less.
func E4Compaction(scale Scale) Table {
	t := Table{
		ID:      "E4",
		Title:   "log compaction of keyed changelogs",
		Claim:   "§4.1: compaction reduces changelog size and speeds recovery",
		Headers: []string{"", "records", "bytes", "full-replay ms"},
	}
	keys := scale.pick(500, 5000)
	updates := scale.pick(20000, 200000)
	dir, err := os.MkdirTemp("", "e4-")
	if err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	defer os.RemoveAll(dir)
	l, err := log.Open(dir, log.Config{SegmentBytes: 256 << 10, Compacted: true})
	if err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	defer l.Close()
	for i := 0; i < updates; i++ {
		l.Append([]record.Record{{
			Timestamp: 1,
			Key:       []byte(fmt.Sprintf("user-%d", i%keys)),
			Value:     []byte(fmt.Sprintf("profile-state-%d", i)),
		}})
	}

	replay := func() (int, time.Duration) {
		start := time.Now()
		n := 0
		off := l.StartOffset()
		for {
			data, err := l.Read(off, 1<<20)
			if err != nil || len(data) == 0 {
				break
			}
			record.ScanRecords(data, func(r record.Record) error {
				if r.Offset >= off {
					n++
					off = r.Offset + 1
				}
				return nil
			})
		}
		return n, time.Since(start)
	}

	nBefore, dBefore := replay()
	sizeBefore := l.Size()
	stats, err := compact.Compact(l, l.NextOffset())
	if err != nil {
		t.Notes = append(t.Notes, "compact failed: "+err.Error())
		return t
	}
	nAfter, dAfter := replay()
	sizeAfter := l.Size()

	t.Rows = append(t.Rows, []string{"before compaction", fmt.Sprint(nBefore), fmt.Sprint(sizeBefore), ms(dBefore)})
	t.Rows = append(t.Rows, []string{"after compaction", fmt.Sprint(nAfter), fmt.Sprint(sizeAfter), ms(dAfter)})
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d keys, %d updates; compaction ratio %.3f", keys, updates, stats.Ratio()),
		"expected shape: records shrink toward key count; replay time shrinks proportionally")
	return t
}

// E6Failover validates §4.3: killing a partition leader hands leadership
// to an in-sync follower without losing acknowledged data, within roughly
// the liveness-detection window.
func E6Failover(scale Scale) Table {
	t := Table{
		ID:      "E6",
		Title:   "broker failure and leader hand-over",
		Claim:   "§4.3: a hand-over process selects a new leader among the followers; committed data survives",
		Headers: []string{"metric", "value"},
	}
	s, err := newStack(3, nil)
	if err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	defer s.Shutdown()
	if err := s.CreateFeed("ha", 1, 3); err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	p := s.NewProducer(client.ProducerConfig{Acks: client.AcksAll})
	defer p.Close()

	pre := scale.pick(100, 500)
	acked := 0
	for i := 0; i < pre; i++ {
		if _, err := p.SendSync(client.Message{Topic: "ha", Key: []byte("k"), Value: []byte(fmt.Sprintf("pre-%d", i))}); err == nil {
			acked++
		}
	}
	leader, err := s.Client().LeaderFor("ha", 0)
	if err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	killAt := time.Now()
	s.KillBroker(leader)
	// First successful produce after the kill marks recovery.
	var failoverTime time.Duration
	for {
		if _, err := p.SendSync(client.Message{Topic: "ha", Key: []byte("k"), Value: []byte("probe")}); err == nil {
			failoverTime = time.Since(killAt)
			acked++
			break
		}
		if time.Since(killAt) > 30*time.Second {
			t.Notes = append(t.Notes, "failover never completed")
			return t
		}
	}
	post := scale.pick(100, 500)
	for i := 0; i < post; i++ {
		if _, err := p.SendSync(client.Message{Topic: "ha", Key: []byte("k"), Value: []byte(fmt.Sprintf("post-%d", i))}); err == nil {
			acked++
		}
	}
	got, err := consumeCount(s, "ha", 1, acked, 30*time.Second)
	if err != nil {
		t.Notes = append(t.Notes, "consume failed: "+err.Error())
	}
	newLeader, _ := s.Client().LeaderFor("ha", 0)
	t.Rows = append(t.Rows,
		[]string{"failover time (kill -> first ack)", failoverTime.Round(time.Millisecond).String()},
		[]string{"old leader / new leader", fmt.Sprintf("%d -> %d", leader, newLeader)},
		[]string{"acked messages", fmt.Sprint(acked)},
		[]string{"messages readable after failover", fmt.Sprint(got)},
	)
	if got >= acked {
		t.Rows = append(t.Rows, []string{"committed-data loss", "none"})
	} else {
		t.Rows = append(t.Rows, []string{"committed-data loss", fmt.Sprintf("%d LOST", acked-got)})
	}
	t.Notes = append(t.Notes, "failover time is bounded below by the 750ms session (liveness) timeout")
	return t
}

// E7AcksTradeoff validates §4.3's durability/performance trade-off across
// acknowledgement levels with replication factor 3.
func E7AcksTradeoff(scale Scale) Table {
	t := Table{
		ID:      "E7",
		Title:   "durability vs produce performance (RF=3)",
		Claim:   "§4.3: the chosen durability level impacts throughput and latency",
		Headers: []string{"acks", "mean ms", "p99 ms", "msgs/s"},
	}
	s, err := newStack(3, nil)
	if err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	defer s.Shutdown()
	n := scale.pick(300, 2000)
	levels := []struct {
		name string
		acks int16
	}{
		{"0 (fire-and-forget)", client.AcksNone},
		{"1 (leader)", 1},
		{"all (full ISR)", client.AcksAll},
	}
	for li, lvl := range levels {
		topic := fmt.Sprintf("acks-%d", li)
		if err := s.CreateFeed(topic, 1, 3); err != nil {
			t.Notes = append(t.Notes, "failed: "+err.Error())
			return t
		}
		p := s.NewProducer(client.ProducerConfig{Acks: lvl.acks})
		var lat durations
		value := make([]byte, 512)
		start := time.Now()
		for i := 0; i < n; i++ {
			s0 := time.Now()
			if _, err := p.SendSync(client.Message{Topic: topic, Value: value}); err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("acks=%s produce error: %v", lvl.name, err))
				break
			}
			lat = append(lat, time.Since(s0))
		}
		total := time.Since(start)
		p.Close()
		t.Rows = append(t.Rows, []string{
			lvl.name, ms(lat.mean()), ms(lat.p(0.99)),
			fmt.Sprintf("%.0f", float64(len(lat))/total.Seconds()),
		})
	}
	t.Notes = append(t.Notes, "expected shape: latency rises (and throughput falls) from acks=0 to acks=all")
	return t
}

// E9ConsumerGroups validates §3.1's consumer-group semantics: queueing
// within a group, pub/sub across groups, and load spreading over members.
func E9ConsumerGroups(scale Scale) Table {
	t := Table{
		ID:      "E9",
		Title:   "consumer groups: queue within, pub/sub across",
		Claim:   "§3.1: one consumer per group receives each message; every subscribed group receives all",
		Headers: []string{"group", "members", "msgs seen", "exactly-once in group", "per-member spread"},
	}
	s, err := newStack(1, nil)
	if err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	defer s.Shutdown()
	const parts = 8
	if err := s.CreateFeed("work", parts, 1); err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	n := scale.pick(400, 4000)
	if err := produceValues(s, "work", n, 128, 0, 1); err != nil {
		t.Notes = append(t.Notes, "produce failed: "+err.Error())
		return t
	}

	type groupSpec struct {
		name    string
		members int
	}
	for _, gs := range []groupSpec{{"g1", 1}, {"g2", 2}, {"g4", 4}} {
		var mu sync.Mutex
		seen := make(map[string]int) // value hash -> count
		perMember := make([]int64, gs.members)
		var wg sync.WaitGroup
		var done atomic.Bool
		for m := 0; m < gs.members; m++ {
			wg.Add(1)
			go func(m int) {
				defer wg.Done()
				gc, err := client.NewGroupConsumer(s.Client(), client.ConsumerConfig{}, client.GroupConfig{
					Group:             gs.name,
					Topics:            []string{"work"},
					SessionTimeout:    5 * time.Second,
					RebalanceTimeout:  5 * time.Second,
					HeartbeatInterval: 250 * time.Millisecond,
				})
				if err != nil {
					return
				}
				defer gc.Close()
				for !done.Load() {
					msgs, err := gc.Poll(100 * time.Millisecond)
					if err != nil {
						continue
					}
					mu.Lock()
					for _, msg := range msgs {
						seen[fmt.Sprintf("%d/%d", msg.Partition, msg.Offset)]++
					}
					mu.Unlock()
					atomic.AddInt64(&perMember[m], int64(len(msgs)))
				}
			}(m)
		}
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			mu.Lock()
			total := len(seen)
			mu.Unlock()
			if total >= n {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		done.Store(true)
		wg.Wait()
		mu.Lock()
		dupes := 0
		for _, c := range seen {
			if c > 1 {
				dupes++
			}
		}
		total := len(seen)
		mu.Unlock()
		exactly := "yes"
		if dupes > 0 {
			exactly = fmt.Sprintf("%d dupes (at-least-once)", dupes)
		}
		spread := make([]string, gs.members)
		for i := range perMember {
			spread[i] = fmt.Sprint(atomic.LoadInt64(&perMember[i]))
		}
		t.Rows = append(t.Rows, []string{
			gs.name, fmt.Sprint(gs.members), fmt.Sprint(total), exactly,
			fmt.Sprintf("[%s]", joinStrings(spread)),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d messages over %d partitions; every group sees all messages; members split the load", n, parts))
	return t
}

func joinStrings(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += " "
		}
		out += s
	}
	return out
}

// E10Decoupling validates §3.2: producers and consumers are fully
// decoupled by the log — a stalled consumer affects neither the producer
// nor a fast consumer.
func E10Decoupling(scale Scale) Table {
	t := Table{
		ID:      "E10",
		Title:   "producer/consumer decoupling",
		Claim:   "§3.2: a slow consumer cannot back-pressure the producer or other consumers",
		Headers: []string{"configuration", "produce p99 ms", "produce msgs/s", "fast-consumer caught up"},
	}
	s, err := newStack(1, nil)
	if err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	defer s.Shutdown()
	n := scale.pick(500, 5000)

	run := func(topic string, withSlow bool) []string {
		s.CreateFeed(topic, 1, 1)
		fast := s.NewConsumer(client.ConsumerConfig{})
		defer fast.Close()
		fast.Assign(topic, 0, client.StartEarliest)
		var stopSlow chan struct{}
		if withSlow {
			slow := s.NewConsumer(client.ConsumerConfig{})
			slow.Assign(topic, 0, client.StartEarliest)
			stopSlow = make(chan struct{})
			go func() {
				defer slow.Close()
				for {
					select {
					case <-stopSlow:
						return
					case <-time.After(500 * time.Millisecond):
						slow.Poll(10 * time.Millisecond) // barely consumes
					}
				}
			}()
		}
		fastGot := 0
		go func() {
			for fastGot < n {
				msgs, err := fast.Poll(100 * time.Millisecond)
				if err != nil {
					continue
				}
				fastGot += len(msgs)
			}
		}()
		p := s.NewProducer(client.ProducerConfig{})
		defer p.Close()
		var lat durations
		start := time.Now()
		value := make([]byte, 256)
		for i := 0; i < n; i++ {
			s0 := time.Now()
			p.SendSync(client.Message{Topic: topic, Value: value})
			lat = append(lat, time.Since(s0))
		}
		total := time.Since(start)
		deadline := time.Now().Add(20 * time.Second)
		for fastGot < n && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
		if stopSlow != nil {
			close(stopSlow)
		}
		caught := "yes"
		if fastGot < n {
			caught = fmt.Sprintf("no (%d/%d)", fastGot, n)
		}
		return []string{
			map[bool]string{false: "producer + fast consumer", true: "+ stalled consumer attached"}[withSlow],
			ms(lat.p(0.99)),
			fmt.Sprintf("%.0f", float64(n)/total.Seconds()),
			caught,
		}
	}
	t.Rows = append(t.Rows, run("dec-base", false))
	t.Rows = append(t.Rows, run("dec-slow", true))
	t.Notes = append(t.Notes, "expected shape: both rows equivalent — the log absorbs the lag")
	return t
}

// E11ManyTopics validates §5's deployment shape at reduced scale: many
// topics and partitions on a small cluster stay healthy for metadata and
// steady-state traffic.
func E11ManyTopics(scale Scale) Table {
	t := Table{
		ID:      "E11",
		Title:   "scaled-down deployment: many topics and partitions",
		Claim:   "§5: 25k topics / 200k partitions across ~300 machines (here ~1/125 scale on 3)",
		Headers: []string{"metric", "value"},
	}
	s, err := newStack(3, func(c *core.Config) {
		c.SessionTimeout = 2 * time.Second
	})
	if err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	defer s.Shutdown()
	topics := scale.pick(20, 200)
	const parts = 4
	start := time.Now()
	for i := 0; i < topics; i++ {
		if err := s.CreateFeed(fmt.Sprintf("feed-%04d", i), parts, 1); err != nil {
			t.Notes = append(t.Notes, "create failed: "+err.Error())
			return t
		}
	}
	createDur := time.Since(start)

	// Steady-state traffic across a sample of topics.
	sample := topics / 4
	if sample == 0 {
		sample = 1
	}
	perTopic := scale.pick(50, 200)
	start = time.Now()
	for i := 0; i < sample; i++ {
		if err := produceValues(s, fmt.Sprintf("feed-%04d", i*4), perTopic, 256, 0, 1); err != nil {
			t.Notes = append(t.Notes, "produce failed: "+err.Error())
			return t
		}
	}
	produceDur := time.Since(start)
	totalMsgs := sample * perTopic

	start = time.Now()
	got := 0
	for i := 0; i < sample; i++ {
		n, _ := consumeCount(s, fmt.Sprintf("feed-%04d", i*4), parts, perTopic, 20*time.Second)
		got += n
	}
	consumeDur := time.Since(start)

	start = time.Now()
	if err := s.Client().RefreshMetadata(); err != nil {
		t.Notes = append(t.Notes, "metadata failed: "+err.Error())
	}
	metaDur := time.Since(start)

	t.Rows = append(t.Rows,
		[]string{"topics x partitions", fmt.Sprintf("%d x %d = %d partitions", topics, parts, topics*parts)},
		[]string{"create time total", createDur.Round(time.Millisecond).String()},
		[]string{"produce msgs/s", fmt.Sprintf("%.0f", float64(totalMsgs)/produceDur.Seconds())},
		[]string{"consume msgs/s", fmt.Sprintf("%.0f (%d/%d)", float64(got)/consumeDur.Seconds(), got, totalMsgs)},
		[]string{"full metadata fetch", metaDur.Round(time.Microsecond).String()},
	)
	t.Notes = append(t.Notes, "shape target: linear create cost, healthy traffic and fast metadata at scale")
	return t
}
