package main

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/processing"
	"repro/internal/state"
	"repro/internal/storage/log"
	"repro/internal/storage/record"
	"repro/internal/workload"
)

// pipeline: the processing layer and the offline leg over one feed, i.e.
// the unification itself. Set-up preloads feed "events" with N RUM events
// keyed by a zipfian page. The job leg runs a processing.Job that keeps a
// per-page count in a changelogged store and emits every updated count to a
// derived feed, which one reader tails until it has seen N outputs. The
// offline leg archives "events" to the stack's DFS and counts pages with a
// MapReduce job over the archived segments. Each leg runs several times over
// (a fresh job, a fresh archive) and reports its median. Every job's final
// state, every MapReduce output and the generator's own counts must be
// identical.

const (
	pipelineTopic      = "events"
	pipelinePartitions = 4
	pipelinePages      = 10000
	// pipelineRecsPerSecond sizes the input: N = window seconds × this, so
	// that all the legs together take about the window on the seed commit.
	pipelineRecsPerSecond = 40000
	jobRuns               = 3
	offlineCycles         = 4
)

type pipelineFx struct {
	s    *core.Stack
	set  *eventSet
	want map[string]int64 // the generator's own per-page counts
}

func setupPipeline(e *env, window time.Duration) (fixture, error) {
	s, err := e.startStack("pipeline", 1, log.SyncNone)
	if err != nil {
		return nil, err
	}
	f := &pipelineFx{s: s, want: make(map[string]int64)}
	if err := s.CreateFeed(pipelineTopic, pipelinePartitions, 1); err != nil {
		f.close()
		return nil, err
	}
	n := int64(window.Seconds() * pipelineRecsPerSecond)
	if e.cfg.smoke {
		n = 4000
	}
	rum := workload.NewRUM(workload.RUMConfig{Seed: e.cfg.seed}, 1_700_000_000_000)
	keys := workload.NewKeys(workload.KeyConfig{Seed: e.cfg.seed, Keys: pipelinePages, Prefix: "page"})
	f.set, err = preload(s, pipelineTopic, pipelinePartitions, 0, n, func() ([]byte, []byte) {
		k := keys.Next()
		f.want[string(k)]++
		return k, rum.Next().Encode()
	})
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *pipelineFx) stack() *core.Stack  { return f.s }
func (f *pipelineFx) inputSHA256() string { return f.set.sha }
func (f *pipelineFx) userBytes() float64  { return float64(f.set.bytes) }
func (f *pipelineFx) close()              { f.s.Shutdown() }

func (f *pipelineFx) shape() probeShape {
	return probeShape{records: f.set.sample, codec: record.CodecFlate, fetchBytes: 4 << 20, policy: log.SyncNone, state: true}
}

// countTask is the job's logic: read-modify-write a per-page count and emit
// the new count.
type countTask struct {
	out    string
	stores *storeList
	counts state.Store
}

// storeList collects the tasks' stores so the final job state can be read.
type storeList struct {
	mu     sync.Mutex
	stores []state.Store
}

func (t *countTask) Init(ctx *processing.TaskContext) error {
	t.counts = ctx.Store("counts")
	t.stores.mu.Lock()
	t.stores.stores = append(t.stores.stores, t.counts)
	t.stores.mu.Unlock()
	return nil
}

func (t *countTask) Process(msg client.Message, _ *processing.TaskContext, out *processing.Collector) error {
	var n uint64
	v, found, err := t.counts.Get(msg.Key)
	if err != nil {
		return err
	}
	if found {
		n = binary.BigEndian.Uint64(v)
	}
	n++
	nv := make([]byte, 8)
	binary.BigEndian.PutUint64(nv, n)
	if err := t.counts.Put(msg.Key, nv); err != nil {
		return err
	}
	return out.Send(t.out, msg.Key, nv)
}

// pageSeen is what the reader of the derived feed saw for one page.
type pageSeen struct{ n, sum, max int64 }

func (f *pipelineFx) measure(_ time.Duration, tr *tracer, pass int) (*sample, error) {
	n := f.set.count
	s := &sample{
		layer: make(map[string]float64),
		stages: []stage{
			{"log.read_range", 1}, {"wire.encode_fetch", 1}, {"wire.decode_fetch", 1},
			{"record.decompress", 1}, {"record.decode", 1}, {"state.get", 1}, {"state.put", 1},
		},
	}
	cpu0 := cpuTime()
	var jobMs, cycleMs []float64
	for j := 0; j < jobRuns; j++ {
		d, err := f.jobLeg(tr, fmt.Sprintf("%d-%d", pass, j), s)
		if err != nil {
			return nil, err
		}
		jobMs = append(jobMs, float64(d)/1e6)
	}
	for c := 0; c < offlineCycles; c++ {
		d, err := f.offlineCycle(tr, fmt.Sprintf("%d-%d", pass, c), s)
		if err != nil {
			return nil, err
		}
		cycleMs = append(cycleMs, float64(d)/1e6)
	}
	s.cpu = cpuTime() - cpu0
	s.records = n * (jobRuns + offlineCycles) // every event goes through each job run and each offline cycle once
	s.attempted = s.records + n*jobRuns + int64(len(f.want))*(2*jobRuns+offlineCycles)

	jobMed := median(jobMs)
	s.throughputMBs = float64(f.set.bytes) / 1e6 / (jobMed / 1e3)
	s.latP50ms = quantile(cycleMs, 0.50)
	s.latP99ms = quantile(cycleMs, 0.99)
	s.layer["processing.wall_ns_per_rec"] = jobMed * 1e6 / float64(n)
	s.layer["pipeline.job_krec_s"] = float64(n) / jobMed
	s.layer["pipeline.offline_krec_s"] = float64(n) / s.latP50ms
	return s, nil
}

// jobLeg runs one job over the whole preloaded feed, from Start to the
// moment the reader of the derived feed has seen an output for every input,
// and checks the derived feed and the job's final state against the
// generator. Layer metrics describe the last run.
func (f *pipelineFx) jobLeg(tr *tracer, id string, s *sample) (time.Duration, error) {
	n := f.set.count
	outTopic := "page-stats-" + id
	jobName := "pagecount-" + id
	if err := f.s.CreateFeed(outTopic, pipelinePartitions, 1); err != nil {
		return 0, err
	}
	cons := f.s.NewConsumer(client.ConsumerConfig{})
	defer cons.Close()
	for p := int32(0); p < pipelinePartitions; p++ {
		if err := cons.Assign(outTopic, p, 0); err != nil {
			return 0, err
		}
	}
	stores := &storeList{}
	leg := tr.start("processing.job", 0)
	job, err := f.s.RunJob(processing.JobConfig{
		Name:    jobName,
		Inputs:  []string{pipelineTopic},
		Stores:  []processing.StoreSpec{{Name: "counts"}},
		Factory: func() processing.StreamTask { return &countTask{out: outTopic, stores: stores} },
	})
	if err != nil {
		return 0, err
	}
	seen := make(map[string]*pageSeen, pipelinePages)
	next := make([]int64, pipelinePartitions)
	var outputs, badOut, pollErrs int64
	var polls []float64
	empty := 0
	deadline := time.Now().Add(120 * time.Second)
	for outputs < n && time.Now().Before(deadline) {
		sp := tr.start("client.poll", leg.id)
		msgs, err := cons.Poll(100 * time.Millisecond)
		polls = append(polls, float64(sp.end())/1e6)
		if err != nil {
			pollErrs++
			continue
		}
		if len(msgs) == 0 {
			empty++
		}
		for i := range msgs {
			m := &msgs[i]
			outputs++
			if m.Offset != next[m.Partition] || len(m.Value) != 8 {
				badOut++
				continue
			}
			next[m.Partition]++
			c := int64(binary.BigEndian.Uint64(m.Value))
			ps := seen[string(m.Key)]
			if ps == nil {
				ps = &pageSeen{}
				seen[string(m.Key)] = ps
			}
			ps.n++
			ps.sum += c
			if c > ps.max {
				ps.max = c
			}
		}
	}
	jobTime := leg.end()

	// The derived feed: for a page counted c times, counts 1..c once each.
	mismatches := badOut + abs(n-outputs) + pollErrs
	for page, c := range f.want {
		ps := seen[page]
		if ps == nil || ps.n != c || ps.max != c || ps.sum != c*(c+1)/2 {
			mismatches++
		}
	}
	// The job's final state.
	jobState := make(map[string]int64, len(f.want))
	stores.mu.Lock()
	for _, st := range stores.stores {
		err := st.Range(nil, nil, func(k, v []byte) bool {
			jobState[string(k)] += int64(binary.BigEndian.Uint64(v))
			return true
		})
		if err != nil {
			stores.mu.Unlock()
			return 0, err
		}
	}
	stores.mu.Unlock()
	s.failed += mismatches + diffCounts(f.want, jobState)

	reg := job.Metrics()
	processed := float64(reg.Counter(jobName + ".processed").Value())
	sent := float64(reg.Counter(jobName + ".sent").Value())
	if err := job.Stop(); err != nil {
		return 0, fmt.Errorf("job stop: %w", err)
	}
	changelog, err := endOffsets(f.s, jobName+"-counts-changelog", pipelinePartitions)
	if err != nil {
		return 0, err
	}
	s.layer["processing.processed_recs"] = processed
	s.layer["processing.outputs_per_input"] = ratio(sent, processed)
	s.layer["processing.changelog_recs"] = float64(sum(changelog))
	s.layer["client.poll_ms_p50"] = quantile(polls, 0.50)
	s.layer["client.recs_per_poll"] = ratio(float64(outputs), float64(len(polls)-empty))
	s.layer["client.empty_poll_share"] = ratio(float64(empty), float64(len(polls)))
	return jobTime, nil
}

// offlineCycle archives the feed into an empty archive on the stack's DFS,
// counts pages with a MapReduce job over the archived segments, and checks
// the output against the generator. Layer metrics describe the last cycle.
func (f *pipelineFx) offlineCycle(tr *tracer, id string, s *sample) (time.Duration, error) {
	n := f.set.count
	afs, err := f.s.ArchiveFS()
	if err != nil {
		return 0, err
	}
	name := "offline-" + id
	root := "/archive-" + id
	cyc := tr.start("offline.cycle", 0)
	sp := tr.start("archive.snapshot", cyc.id)
	stats, err := archive.Snapshot(f.s.Client(), archive.SnapshotConfig{Topic: pipelineTopic, FS: afs, Root: root, Name: name})
	snapTime := sp.end()
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	files, decode, err := archive.MRInput(afs, root, pipelineTopic)
	if err != nil {
		return 0, fmt.Errorf("mr input: %w", err)
	}
	sp = tr.start("mapreduce.run", cyc.id)
	mr, err := mapreduce.NewEngine(afs, mapreduce.EngineConfig{}).Run(mapreduce.JobSpec{
		Name: name, InputFiles: files, Decode: decode, OutputDir: "/out-" + id,
		Map: func(key, _ string, emit func(k, v string)) error { emit(key, "1"); return nil },
		Reduce: func(key string, values []string, emit func(k, v string)) error {
			emit(key, strconv.Itoa(len(values)))
			return nil
		},
	})
	mrTime := sp.end()
	if err != nil {
		return 0, fmt.Errorf("mapreduce: %w", err)
	}
	cycle := cyc.end()

	offline := make(map[string]int64, len(f.want))
	for _, info := range afs.List("/out-" + id + "/") {
		data, err := afs.ReadFile(info.Path)
		if err != nil {
			return 0, err
		}
		for _, kv := range mapreduce.DecodeLines(data) {
			v, err := strconv.ParseInt(kv.Value, 10, 64)
			if err != nil {
				s.failed++
			}
			offline[kv.Key] += v
		}
	}
	s.failed += diffCounts(f.want, offline) + abs(stats.Records-n) + abs(int64(mr.MapInputRecords)-n)

	var archived float64
	for _, path := range files {
		if info, err := afs.Stat(path); err == nil {
			archived += float64(info.Size)
		}
	}
	s.layer["archive.snapshot_s"] = snapTime.Seconds()
	s.layer["archive.snapshot_mb_s"] = float64(f.set.bytes) / 1e6 / snapTime.Seconds()
	s.layer["archive.segments"] = float64(stats.Segments)
	s.layer["archive.bytes_per_user_byte"] = archived / float64(f.set.bytes)
	s.layer["mapreduce.run_s"] = mrTime.Seconds()
	s.layer["mapreduce.map_krec_s"] = float64(mr.MapInputRecords) / 1e3 / mr.MapDuration.Seconds()
	return cycle, nil
}

// diffCounts counts the pages on which got differs from want.
func diffCounts(want, got map[string]int64) int64 {
	var d int64
	for k, v := range want {
		if got[k] != v {
			d++
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			d++
		}
	}
	return d
}
