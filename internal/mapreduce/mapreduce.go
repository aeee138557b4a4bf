// Package mapreduce implements the batch-oriented baseline data
// integration stack of the paper (§1, §2): ETL as MapReduce jobs over a
// distributed file system, with intermediate results materialised back
// into the DFS. Its cost structure — scheduler launch delay per job,
// whole-file reads and writes, map/reduce barriers — is exactly what gives
// the MR/DFS stack its high end-to-end latency; the standing benchmark's
// pipeline workload runs it beside Liquid's nearline path over one feed.
package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dfs"
)

// KV is one key/value record in map input or output. Records are stored
// in files as tab-separated lines.
type KV struct {
	Key   string
	Value string
}

// Mapper transforms one input record into zero or more intermediate
// records via emit.
type Mapper func(key, value string, emit func(k, v string)) error

// Reducer folds all intermediate values of one key into zero or more
// output records. A job's reducers run concurrently, one per partition.
type Reducer func(key string, values []string, emit func(k, v string)) error

// IdentityMapper passes records through.
func IdentityMapper(key, value string, emit func(k, v string)) error {
	emit(key, value)
	return nil
}

// IdentityReducer emits each value unchanged.
func IdentityReducer(key string, values []string, emit func(k, v string)) error {
	for _, v := range values {
		emit(key, v)
	}
	return nil
}

// JobSpec declares one MR job.
type JobSpec struct {
	// Name prefixes intermediate paths.
	Name string
	// InputPrefix selects the DFS input files.
	InputPrefix string
	// InputFiles, when non-empty, lists the exact input files instead of
	// scanning InputPrefix — the hook input adapters use (e.g.
	// archive.MRInput feeds committed feed segments straight to map
	// tasks).
	InputFiles []string
	// Decode parses one input file into records; nil selects DecodeLines
	// (tab-separated text). Input adapters pair it with InputFiles to run
	// jobs over non-text formats such as archived segments; a decode error
	// fails the job rather than silently dropping the file's records.
	Decode func([]byte) ([]KV, error)
	// OutputDir receives part-N output files.
	OutputDir string
	// Map and Reduce are the job's logic; nil selects identity.
	Map    Mapper
	Reduce Reducer
	// NumReducers is the number of reduce partitions and part files
	// (default 2); each reducer runs on its own goroutine.
	NumReducers int
}

func (s JobSpec) withDefaults() JobSpec {
	if s.Map == nil {
		s.Map = IdentityMapper
	}
	if s.Reduce == nil {
		s.Reduce = IdentityReducer
	}
	if s.NumReducers == 0 {
		s.NumReducers = 2
	}
	if s.Decode == nil {
		s.Decode = func(data []byte) ([]KV, error) { return DecodeLines(data), nil }
	}
	return s
}

// JobStats reports one job execution.
type JobStats struct {
	MapInputRecords     int
	IntermediateRecords int
	OutputRecords       int
	MapDuration         time.Duration // the map phase's wall time
	// The longest any one reducer (they run concurrently) spent gathering
	// and grouping its partition, and in Reduce calls.
	ShuffleDuration time.Duration
	ReduceDuration  time.Duration
	Total           time.Duration
}

// EngineConfig parameterises the MR engine.
type EngineConfig struct {
	// SchedulerDelay models cluster-scheduler latency paid at each job
	// launch and each phase barrier (container allocation in YARN terms).
	// Zero runs at memory speed for unit tests.
	SchedulerDelay time.Duration
	// MapParallelism bounds concurrent map tasks (default 4).
	MapParallelism int
	// Sleep is injectable for tests; nil means time.Sleep.
	Sleep func(time.Duration)
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.MapParallelism == 0 {
		c.MapParallelism = 4
	}
	return c
}

func (c EngineConfig) pause() {
	if c.SchedulerDelay <= 0 {
		return
	}
	if c.Sleep != nil {
		c.Sleep(c.SchedulerDelay)
		return
	}
	time.Sleep(c.SchedulerDelay)
}

// Engine executes MR jobs over a DFS.
type Engine struct {
	fs  *dfs.FS
	cfg EngineConfig
}

// NewEngine binds an engine to a file system.
func NewEngine(fs *dfs.FS, cfg EngineConfig) *Engine {
	return &Engine{fs: fs, cfg: cfg.withDefaults()}
}

// EncodeLines renders records as file content, in one allocation of the
// final size.
func EncodeLines(records []KV) []byte {
	size := 0
	for _, r := range records {
		size += len(r.Key) + len(r.Value) + 2
	}
	out := make([]byte, 0, size)
	for _, r := range records {
		out = append(out, r.Key...)
		out = append(out, '\t')
		out = append(out, r.Value...)
		out = append(out, '\n')
	}
	return out
}

// DecodeLines parses file content into records. Empty lines are skipped, a
// final line needs no newline, a line's first tab splits key from value
// (later tabs stay in the value), and a line without a tab becomes a record
// with an empty value. Every record is a substring of one copy of data.
func DecodeLines(data []byte) []KV {
	out := make([]KV, 0, bytes.Count(data, []byte{'\n'})+1)
	for s := string(data); s != ""; {
		var line string
		line, s, _ = strings.Cut(s, "\n")
		if line != "" {
			k, v, _ := strings.Cut(line, "\t")
			out = append(out, KV{Key: k, Value: v})
		}
	}
	return out
}

// fnv32a is hash/fnv's 32-bit FNV-1a over a string, with no hash.Hash32 and
// no []byte conversion of the key.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Run executes one job: map over every input file (intermediates
// materialised to the DFS, partitioned for the reducers), a barrier, then
// one goroutine per reducer shuffles and reduces its partition into a tmp
// part. The job commits, renaming the tmp parts into OutputDir, only once
// every reducer has succeeded; a failed job leaves no output.
func (e *Engine) Run(spec JobSpec) (JobStats, error) {
	spec = spec.withDefaults()
	var stats JobStats
	start := time.Now()
	if spec.Name == "" || spec.OutputDir == "" {
		return stats, errors.New("mapreduce: Name and OutputDir are required")
	}
	inputs := spec.InputFiles
	if len(inputs) == 0 {
		for _, info := range e.fs.List(spec.InputPrefix) {
			inputs = append(inputs, info.Path)
		}
	}
	if len(inputs) == 0 {
		return stats, fmt.Errorf("mapreduce: no input under %q", spec.InputPrefix)
	}
	tmpDir := fmt.Sprintf("tmp/%s/", spec.Name)
	tmpParts := spec.OutputDir + "_tmp-part-"
	abort := func(err error) (JobStats, error) {
		e.fs.DeletePrefix(tmpDir)
		e.fs.DeletePrefix(tmpParts)
		return stats, err
	}

	// Job launch: scheduler allocates containers.
	e.cfg.pause()

	// ---- Map phase: parallel over input files, every task waited for so
	// that none writes an intermediate after a failure has cleaned up.
	mapStart := time.Now()
	sem := make(chan struct{}, e.cfg.MapParallelism)
	maps := make([]taskResult, len(inputs))
	var wg sync.WaitGroup
	for m, path := range inputs {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			maps[m] = e.runMapTask(spec, tmpDir, m, path)
		}()
	}
	wg.Wait()
	for _, res := range maps {
		if res.err != nil {
			return abort(res.err)
		}
		stats.MapInputRecords += res.in
		stats.IntermediateRecords += res.out
	}
	stats.MapDuration = time.Since(mapStart)

	// ---- Barrier: reducers start only after every mapper finished.
	e.cfg.pause()

	// ---- Shuffle + reduce phase: one goroutine per reducer.
	reduces := make([]taskResult, spec.NumReducers)
	for r := range reduces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reduces[r] = e.runReduceTask(spec, tmpDir, len(inputs), r, fmt.Sprintf("%s%05d", tmpParts, r))
		}()
	}
	wg.Wait()
	for _, res := range reduces {
		if res.err != nil {
			return abort(res.err)
		}
		stats.OutputRecords += res.out
		stats.ShuffleDuration = max(stats.ShuffleDuration, res.shuffle)
		stats.ReduceDuration = max(stats.ReduceDuration, res.reduce)
	}

	// ---- Job commit: every part renamed from its tmp name, the standard
	// output-committer protocol. A rename that fails takes back the ones
	// already done.
	for r := range reduces {
		if err := e.fs.Rename(fmt.Sprintf("%s%05d", tmpParts, r), fmt.Sprintf("%s/part-%05d", spec.OutputDir, r)); err != nil {
			for done := range r {
				e.fs.Delete(fmt.Sprintf("%s/part-%05d", spec.OutputDir, done))
			}
			return abort(err)
		}
	}

	// Intermediates are garbage once the job commits.
	e.fs.DeletePrefix(tmpDir)
	stats.Total = time.Since(start)
	return stats, nil
}

// taskResult is what a map or a reduce task reports.
type taskResult struct {
	in, out         int
	shuffle, reduce time.Duration
	err             error
}

// runMapTask maps one input file, materialising one intermediate file per
// reduce partition.
func (e *Engine) runMapTask(spec JobSpec, tmpDir string, m int, path string) (res taskResult) {
	data, err := e.fs.ReadFile(path)
	if err != nil {
		res.err = err
		return res
	}
	records, err := spec.Decode(data)
	if err != nil {
		res.err = fmt.Errorf("mapreduce: decode %s: %w", path, err)
		return res
	}
	res.in = len(records)
	parts := make(partitions, spec.NumReducers)
	emit := parts.emit
	for _, rec := range records {
		if err := spec.Map(rec.Key, rec.Value, emit); err != nil {
			res.err = fmt.Errorf("mapreduce: map %s: %w", path, err)
			return res
		}
	}
	// Materialise every partition — this DFS round trip per stage is the
	// latency the paper's nearline path eliminates.
	for p, recs := range parts {
		res.out += len(recs)
		if err := e.fs.WriteFile(fmt.Sprintf("%smap-%05d-part-%05d", tmpDir, m, p), EncodeLines(recs)); err != nil {
			res.err = err
			return res
		}
	}
	return res
}

// partitions is a map task's output by reduce partition.
type partitions [][]KV

// emit routes a record to the partition its key's FNV-1a hash picks.
func (ps partitions) emit(k, v string) {
	p := fnv32a(k) % uint32(len(ps))
	ps[p] = append(ps[p], KV{Key: k, Value: v})
}

// runReduceTask gathers partition r from every map task, grouping values by
// key, reduces it in key order and writes the output to tmpPart,
// uncommitted.
func (e *Engine) runReduceTask(spec JobSpec, tmpDir string, numMaps, r int, tmpPart string) (res taskResult) {
	start := time.Now()
	groups := make(map[string][]string)
	for m := 0; m < numMaps; m++ {
		data, err := e.fs.ReadFile(fmt.Sprintf("%smap-%05d-part-%05d", tmpDir, m, r))
		if errors.Is(err, dfs.ErrNotFound) {
			continue // mapper emitted nothing for this partition
		}
		if err != nil {
			res.err = err
			return res
		}
		for _, rec := range DecodeLines(data) {
			groups[rec.Key] = append(groups[rec.Key], rec.Value)
		}
	}
	res.shuffle = time.Since(start)
	start = time.Now()
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]KV, 0, len(keys))
	emit := func(k, v string) { out = append(out, KV{Key: k, Value: v}) }
	for _, k := range keys {
		if err := spec.Reduce(k, groups[k], emit); err != nil {
			res.err = fmt.Errorf("mapreduce: reduce %q: %w", k, err)
			return res
		}
	}
	res.reduce = time.Since(start)
	res.out = len(out)
	res.err = e.fs.WriteFile(tmpPart, EncodeLines(out))
	return res
}
