package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// E18RewindScan measures tiered log storage (internal/tier): the throughput
// of a sequential consume that starts at offset 0 and crosses the cold→hot
// boundary — cold segments hydrated from the DFS, hot segments served from
// the local log — against a hot-only baseline of the same data, plus the
// offloader's own throughput. The paper's promise (§2, §4.1) is that rewind
// "as far back as needed" needs no separate offline copy: the cold tier
// costs a hydration penalty on first touch and then reads at memory speed
// through the bounded reader LRU.
func E18RewindScan(scale Scale) Table {
	t := Table{
		ID:      "E18",
		Title:   "rewind scan across the hot/cold boundary vs hot-only, plus offload throughput",
		Claim:   "§2/§4.1: consumers rewind past local retention through the same fetch API; the cold tier adds a first-touch hydration cost, not a second pipeline",
		Headers: []string{"phase", "records", "rec/s", "MB/s"},
	}
	records := scale.pick(3000, 30000)
	const valueBytes = 1024

	s, err := newStack(1, func(cfg *core.Config) {
		cfg.TierInterval = 25 * time.Millisecond
		cfg.RetentionInterval = 25 * time.Millisecond
	})
	if err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	defer s.Shutdown()

	const tieredTopic = "e18-tiered"
	const hotTopic = "e18-hot"
	if err := s.CreateTopic(wire.TopicSpec{
		Name:              tieredTopic,
		NumPartitions:     1,
		ReplicationFactor: 1,
		SegmentBytes:      256 << 10,
		Tiered:            true,
		HotRetentionMs:    -1,
		HotRetentionBytes: 1 << 20, // keep ~4 segments hot, tier the rest
		RetentionMs:       -1,
		RetentionBytes:    -1,
	}); err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	if err := s.CreateFeed(hotTopic, 1, 1); err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}

	// Produce the same history into both topics; the tiered one offloads
	// concurrently. Offload throughput is measured from produce start to
	// the frontier reaching the log end.
	offloadStart := time.Now()
	if err := produceValues(s, tieredTopic, records, valueBytes, 0, 1); err != nil {
		t.Notes = append(t.Notes, "produce failed: "+err.Error())
		return t
	}
	if err := produceValues(s, hotTopic, records, valueBytes, 0, 1); err != nil {
		t.Notes = append(t.Notes, "produce failed: "+err.Error())
		return t
	}
	st, err := awaitTiered(s, tieredTopic, int64(records), 60*time.Second)
	if err != nil {
		t.Notes = append(t.Notes, "offload stalled: "+err.Error())
		return t
	}
	offloadDur := time.Since(offloadStart)
	logicalBytes := int64(records) * valueBytes
	coldShare := float64(st.TieredNextOffset) / float64(records)
	addRow := func(phase string, n int, d time.Duration) {
		t.Rows = append(t.Rows, []string{
			phase,
			fmt.Sprint(n),
			fmt.Sprintf("%.0f", float64(n)/d.Seconds()),
			mbPerSec(int64(n)*valueBytes, d),
		})
	}
	addRow("offload (produce→fully tiered)", int(st.TieredNextOffset), offloadDur)

	scan := func(topic string) (time.Duration, error) {
		start := time.Now()
		got, err := consumeCount(s, topic, 1, records, 120*time.Second)
		if err != nil {
			return 0, err
		}
		if got < records {
			return 0, fmt.Errorf("scan of %s got %d/%d records", topic, got, records)
		}
		return time.Since(start), nil
	}
	coldDur, err := scan(tieredTopic) // first touch: hydrates cold segments
	if err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	addRow("rewind cold→hot (first touch)", records, coldDur)
	warmDur, err := scan(tieredTopic) // reader LRU already hydrated
	if err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	addRow("rewind cold→hot (LRU warm)", records, warmDur)
	hotDur, err := scan(hotTopic)
	if err != nil {
		t.Notes = append(t.Notes, "failed: "+err.Error())
		return t
	}
	addRow("hot-only baseline", records, hotDur)

	t.Notes = append(t.Notes,
		fmt.Sprintf("%.0f%% of the history was served from the cold tier (local start %d, frontier %d, end %d)",
			coldShare*100, st.LocalStartOffset, st.TieredNextOffset, records),
		fmt.Sprintf("logical history %d MB; cold tier holds %d records in %d bytes (%.0f B/record, the log's own batches) in %d segments",
			logicalBytes>>20, st.TieredRecords, st.TieredBytes, float64(st.TieredBytes)/float64(max(st.TieredRecords, 1)), st.TieredSegments),
		"expected shape: first touch pays DFS hydration once per cold segment; a warm reader LRU serves cold history at memory speed (at or above the hot-only file-backed baseline)")
	return t
}

// awaitTiered polls the topic's tier status until every sealed record is
// offloaded (frontier at the last sealed segment boundary) and the local
// start has advanced, i.e. early reads must cross the cold tier.
func awaitTiered(s *core.Stack, topic string, end int64, timeout time.Duration) (wire.TierStatusPartition, error) {
	deadline := time.Now().Add(timeout)
	var last wire.TierStatusPartition
	for {
		sts, err := s.TierStatus(topic)
		if err == nil && len(sts) == 1 {
			last = sts[0]
			// All but the active segment tiered, and some local prefix
			// deleted: the rewind genuinely starts cold.
			if last.LocalStartOffset > 0 && last.TieredSegments > 0 &&
				last.TieredNextOffset >= last.LocalStartOffset && last.NextOffset >= end {
				return last, nil
			}
		}
		if time.Now().After(deadline) {
			return last, fmt.Errorf("tier status %+v (err %v) after %s", last, err, timeout)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
