package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/state"
	"repro/internal/storage/log"
	"repro/internal/storage/record"
	"repro/internal/wire"
)

// probeShape is the batch a workload's layer probes run on: one produce
// request's worth of the workload's own generated records, sealed with the
// workload's codec, on a scratch log with the workload's durability.
type probeShape struct {
	records    []record.Record
	codec      record.Codec
	fetchBytes int            // sealed bytes one fetch response carries for a partition
	policy     log.SyncPolicy // scratch log's WAL policy
	state      bool           // the workload keeps task state: probe the store too
}

// stage is one probe on a workload's data path and how many times a record
// passes through it.
type stage struct {
	name  string
	times float64
}

// probeResult is the layer metrics the probes produced and, for the layer
// report, each stage's cost in microseconds per record.
type probeResult struct {
	layer    map[string]float64
	perRecUs map[string]float64
}

// timeLoop calls fn repeatedly for about budget and returns nanoseconds and
// heap allocations per call. The first call is not timed.
func timeLoop(budget time.Duration, fn func() error) (ns, allocs float64, err error) {
	if err := fn(); err != nil {
		return 0, 0, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n := 0
	for chunk := 1; ; {
		for i := 0; i < chunk; i++ {
			if err := fn(); err != nil {
				return 0, 0, err
			}
		}
		n += chunk
		el := time.Since(start)
		if el >= budget {
			runtime.ReadMemStats(&m1)
			return float64(el) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
		}
		// Grow the chunk until reading the clock costs under a percent.
		if el < time.Duration(n)*100*time.Microsecond && chunk < 1<<16 {
			chunk *= 2
		}
	}
}

// runProbes calls each layer's exported functions directly on the
// workload's batch shape, one span per probe.
func runProbes(e *env, tr *tracer, sh probeShape) (*probeResult, error) {
	res := &probeResult{layer: make(map[string]float64), perRecUs: make(map[string]float64)}
	budget := 150 * time.Millisecond // per probe; the traced run has fourteen
	if e.cfg.smoke {
		budget = 5 * time.Millisecond
	}
	nrec := float64(len(sh.records))
	var frameAllocs, recAllocs float64

	// probe times fn under a span. The first failure sticks: later probes
	// are skipped and runProbes returns it.
	var failed error
	probe := func(name string, fn func() error) (ns, allocs float64) {
		if failed != nil {
			return 0, 0
		}
		sp := tr.start("probe."+name, 0)
		ns, allocs, err := timeLoop(budget, fn)
		sp.end()
		if err != nil {
			failed = fmt.Errorf("%s: %w", name, err)
		}
		return ns, allocs
	}
	perRec := func(stageName, metric string, ns, recs float64) {
		res.layer[metric] = ns / recs
		res.perRecUs[stageName] = ns / recs / 1e3
	}
	perBatch := func(stageName, metric string, ns, recs float64) {
		res.layer[metric] = ns
		res.perRecUs[stageName] = ns / recs / 1e3
	}

	// --- storage/record: seal.
	var plain []byte
	ns, allocs := probe("record.encode", func() error {
		plain = record.EncodeBatch(0, sh.records)
		return nil
	})
	perRec("record.encode", "record.encode_ns_per_rec", ns, nrec)
	recAllocs += allocs
	sealed := plain
	res.layer["record.compress_ratio"] = 1
	if sh.codec != record.CodecNone {
		ns, allocs = probe("record.compress", func() error {
			var cerr error
			sealed, cerr = record.Compress(plain, sh.codec)
			return cerr
		})
		perRec("record.compress", "record.compress_ns_per_rec", ns, nrec)
		recAllocs += allocs
		res.layer["record.compress_ratio"] = float64(len(plain)) / float64(len(sealed))
	}

	// --- wire: produce frame.
	hdr := &wire.RequestHeader{API: wire.APIProduce, CorrelationID: 1, ClientID: "benchmark"}
	preq := &wire.ProduceRequest{RequiredAcks: 1, TimeoutMs: 5000, Topics: []wire.ProduceTopic{{
		Name: "probe", Partitions: []wire.ProducePartition{{Partition: 0, Records: sealed}},
	}}}
	ns, allocs = probe("wire.encode_produce", func() error {
		return wire.WriteRequestFrame(io.Discard, hdr, preq)
	})
	perBatch("wire.encode_produce", "wire.encode_produce_ns_per_batch", ns, nrec)
	frameAllocs += allocs
	payload := wire.EncodeRequest(hdr, preq)
	ns, allocs = probe("wire.decode_produce", func() error {
		_, r, derr := wire.DecodeRequest(payload)
		if derr != nil {
			return derr
		}
		var req wire.ProduceRequest
		req.Decode(r)
		return r.Err()
	})
	perBatch("wire.decode_produce", "wire.decode_produce_ns_per_batch", ns, nrec)
	frameAllocs += allocs

	// --- storage/record: what the leader checks before appending.
	ns, _ = probe("record.validate", func() error {
		_, verr := record.ValidateBatch(sealed)
		return verr
	})
	perRec("record.validate", "record.validate_ns_per_rec", ns, nrec)

	if failed != nil {
		return nil, failed
	}

	// --- storage/log: append to and read from a scratch log.
	dir, err := e.dir("probe-log")
	if err != nil {
		return nil, err
	}
	lg, err := log.Open(dir, log.Config{Durability: log.Durability{Policy: sh.policy}})
	if err != nil {
		return nil, err
	}
	defer lg.Close()
	batch := append([]byte(nil), sealed...) // AppendSealed restamps the base offset in place
	var bases []int64
	// The append probe ends with its budget or when the scratch log holds
	// scratchBytes, whichever is first: appends are fast enough to fill a
	// disk within a time budget alone.
	const scratchBytes = 64 << 20
	sp := tr.start("probe.log.append_sealed", 0)
	for start := time.Now(); ; {
		base, aerr := lg.AppendSealed(batch)
		if aerr != nil {
			return nil, fmt.Errorf("log.append_sealed: %w", aerr)
		}
		bases = append(bases, base)
		if el := time.Since(start); (el >= budget || len(bases)*len(batch) >= scratchBytes) && len(bases) >= 8 {
			ns = float64(el) / float64(len(bases))
			break
		}
	}
	sp.end()
	res.layer["log.append_sealed_ns_per_batch"] = ns
	perRec("log.append_sealed", "log.append_sealed_ns_per_rec", ns, nrec)

	// One fetch carries fetchBytes of whole batches.
	perFetch := sh.fetchBytes / len(batch)
	if perFetch < 1 {
		perFetch = 1
	}
	if perFetch > len(bases) {
		perFetch = len(bases)
	}
	fetchRecs := float64(perFetch) * nrec
	at := 0
	nextRange := func() (*log.SegmentRange, error) {
		if at+perFetch > len(bases) {
			at = 0
		}
		rng, rerr := lg.ReadRange(bases[at], perFetch*len(batch), -1)
		at += perFetch
		if rerr == nil && rng == nil {
			rerr = fmt.Errorf("empty range at offset %d", bases[at-perFetch])
		}
		return rng, rerr
	}
	ns, _ = probe("log.read_range", func() error {
		rng, rerr := nextRange()
		if rerr != nil {
			return rerr
		}
		return rng.Close()
	})
	perBatch("log.read_range", "log.read_range_ns_per_call", ns, fetchRecs)
	var rangeBytes float64
	ns, _ = probe("log.read", func() error {
		rng, rerr := nextRange()
		if rerr != nil {
			return rerr
		}
		rangeBytes = float64(rng.Len())
		if _, werr := rng.WriteTo(io.Discard); werr != nil {
			rng.Close()
			return werr
		}
		return rng.Close()
	})
	res.layer["log.read_ns_per_mb"] = ns / (rangeBytes / 1e6)

	// --- wire: fetch frame. The encode side splices the segment range into
	// the frame as the zero-copy fetch path does (to a discarding writer, so
	// sendfile's saving is not in it); the decode side materializes it.
	ns, allocs = probe("wire.encode_fetch", func() error {
		rng, rerr := nextRange()
		if rerr != nil {
			return rerr
		}
		resp := &wire.FetchResponse{Topics: []wire.FetchRespTopic{{Name: "probe", Partitions: []wire.FetchRespPartition{{
			HighWatermark: 1 << 40, RecordsRange: rng,
		}}}}}
		werr := wire.WriteResponseFrame(io.Discard, 1, resp)
		rng.Close()
		return werr
	})
	perBatch("wire.encode_fetch", "wire.encode_fetch_ns_per_batch", ns, fetchRecs)
	frameAllocs += allocs
	if failed != nil {
		return nil, failed
	}
	rng, err := nextRange()
	if err != nil {
		return nil, err
	}
	blob, err := rng.Bytes()
	rng.Close()
	if err != nil {
		return nil, err
	}
	fpayload := wire.EncodeResponse(1, &wire.FetchResponse{Topics: []wire.FetchRespTopic{{Name: "probe", Partitions: []wire.FetchRespPartition{{
		HighWatermark: 1 << 40, Records: blob,
	}}}}})
	ns, allocs = probe("wire.decode_fetch", func() error {
		_, r, derr := wire.DecodeResponse(fpayload)
		if derr != nil {
			return derr
		}
		var resp wire.FetchResponse
		resp.Decode(r)
		return r.Err()
	})
	perBatch("wire.decode_fetch", "wire.decode_fetch_ns_per_batch", ns, fetchRecs)
	frameAllocs += allocs
	res.layer["wire.allocs_per_frame"] = frameAllocs / 4

	// --- storage/record: what the consumer does with a fetched batch.
	inflated := sealed
	if sh.codec != record.CodecNone {
		ns, allocs = probe("record.decompress", func() error {
			var derr error
			inflated, derr = record.Decompress(sealed)
			return derr
		})
		perRec("record.decompress", "record.decompress_ns_per_rec", ns, nrec)
		recAllocs += allocs
	}
	var sink int
	ns, allocs = probe("record.decode", func() error {
		return record.ScanRecords(inflated, func(r record.Record) error {
			sink += len(r.Value)
			return nil
		})
	})
	perRec("record.decode", "record.decode_ns_per_rec", ns, nrec)
	recAllocs += allocs
	res.layer["record.allocs_per_rec"] = recAllocs / nrec

	// --- state: the store kind the job's tasks use.
	if sh.state {
		store := state.NewMem()
		defer store.Close()
		val := make([]byte, 8)
		i := 0
		ns, _ = probe("state.put", func() error {
			i++
			return store.Put(sh.records[i%len(sh.records)].Key, val)
		})
		perRec("state.put", "state.put_ns_per_op", ns, 1)
		ns, _ = probe("state.get", func() error {
			i++
			_, _, gerr := store.Get(sh.records[i%len(sh.records)].Key)
			return gerr
		})
		perRec("state.get", "state.get_ns_per_op", ns, 1)
	}
	return res, failed
}
