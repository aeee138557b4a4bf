package main

import (
	"io/fs"
	"path/filepath"
	"strings"

	"repro/internal/metrics"
)

// snapshot is a point-in-time copy of a registry, keyed by metric name and
// label values ("broker.api.requests{produce}").
type snapshot map[string]metrics.Point

func gather(reg *metrics.Registry) snapshot {
	out := make(snapshot)
	for _, fam := range reg.Gather() {
		for _, p := range fam.Points {
			key := fam.Name
			if len(p.LabelValues) > 0 {
				key += "{" + strings.Join(p.LabelValues, ",") + "}"
			}
			out[key] = p
		}
	}
	return out
}

// delta is how far a counter moved between two snapshots.
func delta(before, after snapshot, key string) float64 {
	return float64(after[key].Value - before[key].Value)
}

// histDelta returns the count and sum a histogram gained between two
// snapshots.
func histDelta(before, after snapshot, key string) (count, sum float64) {
	a := after[key].Hist
	if a == nil {
		return 0, 0
	}
	count, sum = float64(a.Count), float64(a.Sum)
	if b := before[key].Hist; b != nil {
		count -= float64(b.Count)
		sum -= float64(b.Sum)
	}
	return count, sum
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterMetrics derives the broker and log layer metrics from the counters
// the stack already exports, over the interval between two snapshots.
func counterMetrics(layer map[string]float64, before, after snapshot) {
	fsyncs, fsyncNs := histDelta(before, after, "log.fsync.ns")
	layer["log.fsync_count"] = delta(before, after, "log.fsync.count")
	layer["log.fsync_ms_mean"] = ratio(fsyncNs, fsyncs) / 1e6
	groups, groupBytes := histDelta(before, after, "log.groupcommit.batch.bytes")
	layer["log.groupcommit_bytes_per_fsync"] = ratio(groupBytes, groups)

	produces, produceNs := histDelta(before, after, "broker.api.latency.ns{produce}")
	layer["broker.produce_reqs"] = produces
	layer["broker.produce_ms_mean"] = ratio(produceNs, produces) / 1e6
	layer["broker.recs_per_produce_req"] = ratio(delta(before, after, "broker.messages.in"), produces)

	// Follower fetches count too: on a replicated topic most fetches are
	// replication.
	fetches, fetchNs := histDelta(before, after, "broker.api.latency.ns{fetch}")
	fetchBytes := delta(before, after, "broker.fetch.bytes")
	layer["broker.fetch_reqs"] = fetches
	layer["broker.fetch_ms_mean"] = ratio(fetchNs, fetches) / 1e6
	layer["broker.bytes_per_fetch"] = ratio(fetchBytes, fetches)
	layer["broker.fetch_spliced_share"] = ratio(delta(before, after, "broker.fetch.splice.bytes"), fetchBytes)
}

// replicaLagMsMax is the largest follower lag any leader currently exports.
func replicaLagMsMax(reg *metrics.Registry) float64 {
	var max int64
	reg.GaugeFamily("broker.replica.lag.ms", "broker", "topic", "partition", "follower").Each(func(_ []string, g *metrics.Gauge) {
		if v := g.Value(); v > max {
			max = v
		}
	})
	return float64(max)
}

// diskBytes is the size of every regular file under dir.
func diskBytes(dir string) float64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // files vanish under a live stack (segment rolls, tmp renames); skip them
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return float64(total)
}
