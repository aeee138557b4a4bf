// Command benchmark is the repository's standing benchmark: four workloads
// over the produce→replicate→fsync→fetch→process→archive path of an
// in-process core.Stack, with a layer-by-layer account. See README.md.
//
//	bash benchmark/run.sh --workload <ingest|nearline|rewind|pipeline|all> --seed 1 --seconds 15 --trace <0|1>
//	bash benchmark/run.sh compare <old.jsonl>[,...] <new.jsonl>[,...]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/storage/log"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// metricDef names one metric and its unit; BENCHMARK.json declares the same
// lists (main_test.go holds the two together).
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees. Each workload defines the
// three workload-shaped ones for its own use of the log (README.md has the
// table).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_mb_s", "MB/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_us_per_rec", "us"},
}

// perLayer is reported by the traced run. A layer that does no work in a
// workload reports 0 there.
var perLayer = []metricDef{
	{"client.send_ns_per_rec", "ns"},
	{"client.flush_ms_p50", "ms"},
	{"client.flush_ms_p99", "ms"},
	{"client.recs_per_flush", "count"},
	{"client.poll_ms_p50", "ms"},
	{"client.recs_per_poll", "count"},
	{"client.empty_poll_share", "ratio"},
	{"wire.encode_produce_ns_per_batch", "ns"},
	{"wire.decode_produce_ns_per_batch", "ns"},
	{"wire.encode_fetch_ns_per_batch", "ns"},
	{"wire.decode_fetch_ns_per_batch", "ns"},
	{"wire.allocs_per_frame", "count"},
	{"record.encode_ns_per_rec", "ns"},
	{"record.compress_ns_per_rec", "ns"},
	{"record.validate_ns_per_rec", "ns"},
	{"record.decode_ns_per_rec", "ns"},
	{"record.decompress_ns_per_rec", "ns"},
	{"record.compress_ratio", "ratio"},
	{"record.allocs_per_rec", "count"},
	{"log.append_sealed_ns_per_batch", "ns"},
	{"log.append_sealed_ns_per_rec", "ns"},
	{"log.read_range_ns_per_call", "ns"},
	{"log.read_ns_per_mb", "ns"},
	{"log.fsync_count", "count"},
	{"log.fsync_ms_mean", "ms"},
	{"log.groupcommit_bytes_per_fsync", "bytes"},
	{"log.disk_bytes_per_user_byte", "ratio"},
	{"broker.produce_reqs", "count"},
	{"broker.produce_ms_mean", "ms"},
	{"broker.recs_per_produce_req", "count"},
	{"broker.fetch_reqs", "count"},
	{"broker.fetch_ms_mean", "ms"},
	{"broker.bytes_per_fetch", "bytes"},
	{"broker.fetch_spliced_share", "ratio"},
	{"broker.replica_lag_ms_max", "ms"},
	{"processing.processed_recs", "count"},
	{"processing.wall_ns_per_rec", "ns"},
	{"processing.changelog_recs", "count"},
	{"processing.outputs_per_input", "ratio"},
	{"state.put_ns_per_op", "ns"},
	{"state.get_ns_per_op", "ns"},
	{"archive.snapshot_s", "s"},
	{"archive.snapshot_mb_s", "MB/s"},
	{"archive.segments", "count"},
	{"archive.bytes_per_user_byte", "ratio"},
	{"mapreduce.run_s", "s"},
	{"mapreduce.map_krec_s", "krec/s"},
	{"pipeline.job_krec_s", "krec/s"},
	{"pipeline.offline_krec_s", "krec/s"},
	{"nearline.gen_late_ms_max", "ms"},
	{"nearline.backlog_end_recs", "count"},
	{"proc.peak_rss_mb", "MiB"},
	{"proc.allocs_per_rec", "count"},
	{"proc.gc_pause_ms_total", "ms"},
	{"proc.goroutines_peak", "count"},
	{"trace.overhead_share", "ratio"},
	{"layers.accounted_us_per_rec", "us"},
	{"layers.unaccounted_us_per_rec", "us"},
}

// workloadDef is one named traffic shape; setup builds its stack and inputs
// for measured passes of the given length.
type workloadDef struct {
	name  string
	setup func(e *env, window time.Duration) (fixture, error)
}

var workloads = []workloadDef{
	{"ingest", setupIngest},
	{"nearline", setupNearline},
	{"rewind", setupRewind},
	{"pipeline", setupPipeline},
}

// fixture is a workload that has been set up.
type fixture interface {
	stack() *core.Stack
	// inputSHA256 identifies the generated inputs: equal for equal seeds.
	inputSHA256() string
	// measure runs one measured pass. A fixture can be measured more than
	// once; pass distinguishes the names a pass creates on the stack.
	measure(window time.Duration, tr *tracer, pass int) (*sample, error)
	// shape is the batch the layer probes are run on.
	shape() probeShape
	// userBytes is the payload the benchmark has written to the stack since
	// set-up began.
	userBytes() float64
	close()
}

// sample is what one measured pass produced.
type sample struct {
	throughputMBs float64
	latP50ms      float64
	latP99ms      float64
	records       int64         // records completed in the measured window
	cpu           time.Duration // process CPU over the measured window
	attempted     int64
	failed        int64
	invalid       string             // why the run's numbers should not be used, if so
	layer         map[string]float64 // per-layer metrics the pass itself observed
	stages        []stage            // probe stages on this workload's data path
}

// runConfig is one invocation's flags.
type runConfig struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	smoke      bool
	fsyncDelay time.Duration
	out        string
	workdir    string
}

// env is the per-process scratch area inside the checkout.
type env struct {
	cfg  runConfig
	root string
	n    int
}

// dir returns a fresh data directory.
func (e *env) dir(name string) (string, error) {
	e.n++
	d := filepath.Join(e.root, fmt.Sprintf("%s-%d", name, e.n))
	return d, os.MkdirAll(d, 0o755)
}

// startStack boots an in-process stack on production defaults with the
// given broker count and WAL policy, its data under the checkout.
func (e *env) startStack(name string, brokers int, policy log.SyncPolicy) (*core.Stack, error) {
	d, err := e.dir(name)
	if err != nil {
		return nil, err
	}
	dur := log.Durability{Policy: policy}
	if delay := e.cfg.fsyncDelay; delay > 0 {
		// Sensitivity self-check only: every fdatasync takes delay longer.
		dur.Syncer = func(f *os.File) error {
			time.Sleep(delay)
			return syscall.Fdatasync(int(f.Fd()))
		}
	}
	return core.Start(core.Config{Brokers: brokers, DataDir: d, Durability: dur, RetentionInterval: time.Second})
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one line of an -out file: the result plus what produced it.
type runRecord struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Trace       int     `json:"trace"`
	InputSHA256 string  `json:"input_sha256"`
	Invalid     string  `json:"invalid,omitempty"`
	result
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	var cfg runConfig
	var trace int
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "ingest, nearline, rewind, pipeline, or all (each untraced then traced)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the input generators")
	fs.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes, for the name and determinism test")
	fs.DurationVar(&cfg.fsyncDelay, "inject-fsync-delay", 0, "sensitivity self-check: add this delay to every fdatasync")
	fs.StringVar(&cfg.out, "out", "", "append one JSON line per run to this file (input of compare)")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory, inside the checkout, for data and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || trace < 0 || trace > 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	cfg.trace = trace == 1

	var todo []runConfig
	switch {
	case cfg.workload == "all":
		for _, w := range workloads {
			for _, tr := range []bool{false, true} {
				c := cfg
				c.workload, c.trace = w.name, tr
				todo = append(todo, c)
			}
		}
	case findWorkload(cfg.workload) != nil:
		todo = []runConfig{cfg}
	default:
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", cfg.workload)
		return 2
	}

	code := 0
	for _, c := range todo {
		rec, err := runOne(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", c.workload, err)
			return 1
		}
		if c.out != "" {
			if err := appendRecord(c.out, rec); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
		}
		if err := printRecord(rec); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", c.workload, err)
			return 1
		}
		if !rec.Correct {
			fmt.Fprintf(os.Stderr, "benchmark: %s: CORRECTNESS CHECK FAILED (%d of %d operations)\n", c.workload, rec.Failed, rec.Attempted)
			code = 1
		}
	}
	return code
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runOne runs one workload once, untraced or traced.
func runOne(cfg runConfig) (*runRecord, error) {
	w := findWorkload(cfg.workload)
	root := filepath.Join(cfg.workdir, "data", fmt.Sprintf("%d", os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	e := &env{cfg: cfg, root: root}
	window := time.Duration(cfg.seconds * float64(time.Second))

	rec := &runRecord{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds}
	rec.Metrics = make(map[string]metricValue)
	var s *sample
	var err error
	if cfg.trace {
		rec.Trace = 1
		s, err = runTraced(e, w, window, rec)
	} else {
		s, err = runUntraced(e, w, window, rec)
	}
	if err != nil {
		return nil, err
	}
	rec.Attempted, rec.Failed, rec.Invalid = s.attempted, s.failed, s.invalid
	rec.Correct = s.failed == 0 && s.attempted > 0
	return rec, nil
}

// runUntraced sets the workload up three times and measures a third of the
// window on each set-up, so that no one instance of the stack — its leader
// timing, its page-cache state — decides the run. Rates and percentiles are
// the median of the three passes; CPU per record is over all three.
func runUntraced(e *env, w *workloadDef, window time.Duration, rec *runRecord) (*sample, error) {
	reps := 3
	if e.cfg.smoke {
		reps = 1
	}
	window /= time.Duration(reps)
	var setups, tput, p50, p99 []float64
	total := &sample{}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fx, err := w.setup(e, window)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		rec.InputSHA256 = fx.inputSHA256()
		s, err := fx.measure(window, nil, 0)
		fx.close()
		if err != nil {
			return nil, err
		}
		if s.records == 0 {
			return nil, errors.New("no record completed in the measured window")
		}
		tput, p50, p99 = append(tput, s.throughputMBs), append(p50, s.latP50ms), append(p99, s.latP99ms)
		total.records += s.records
		total.cpu += s.cpu
		total.attempted += s.attempted
		total.failed += s.failed
		if total.invalid == "" {
			total.invalid = s.invalid
		}
	}
	put := func(name string, v float64) {
		for _, d := range endToEnd {
			if d.name == name {
				rec.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			}
		}
	}
	put("setup_s", median(setups))
	put("throughput_mb_s", median(tput))
	put("latency_p50_ms", median(p50))
	put("latency_p99_ms", median(p99))
	put("cpu_us_per_rec", float64(total.cpu.Microseconds())/float64(total.records))
	return total, nil
}

// runTraced measures an untraced pass and a traced pass of half the window
// each on one set-up, reads the stack's counters over the traced pass, runs
// the layer probes, and fills in the per-layer metrics.
func runTraced(e *env, w *workloadDef, window time.Duration, rec *runRecord) (*sample, error) {
	window /= 2
	fx, err := w.setup(e, window)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer fx.close()
	rec.InputSHA256 = fx.inputSHA256()
	plain, err := fx.measure(window, nil, 0)
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := gather(fx.stack().Metrics())
	watch := startWatch(fx.stack().Metrics())
	s, err := fx.measure(window, tr, 1)
	goroutines, replicaLag := watch.stop()
	if err != nil {
		return nil, err
	}
	after := gather(fx.stack().Metrics())
	runtime.ReadMemStats(&m1)
	if s.records == 0 || plain.records == 0 {
		return nil, errors.New("no record completed in the measured window")
	}

	layer := s.layer
	counterMetrics(layer, before, after)
	layer["broker.replica_lag_ms_max"] = replicaLag
	layer["log.disk_bytes_per_user_byte"] = ratio(diskBytes(fx.stack().DataDir()), fx.userBytes())
	probes, err := runProbes(e, tr, fx.shape())
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	for k, v := range probes.layer {
		layer[k] = v
	}
	cpuTraced := float64(s.cpu.Microseconds()) / float64(s.records)
	cpuPlain := float64(plain.cpu.Microseconds()) / float64(plain.records)
	layer["trace.overhead_share"] = ratio(cpuTraced, cpuPlain) - 1
	layer["proc.peak_rss_mb"] = peakRSSMiB()
	layer["proc.allocs_per_rec"] = float64(m1.Mallocs-m0.Mallocs) / float64(s.records)
	layer["proc.gc_pause_ms_total"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	layer["proc.goroutines_peak"] = float64(goroutines)
	var accounted float64
	for _, st := range s.stages {
		accounted += st.times * probes.perRecUs[st.name]
	}
	layer["layers.accounted_us_per_rec"] = accounted
	layer["layers.unaccounted_us_per_rec"] = cpuTraced - accounted

	for _, d := range perLayer {
		rec.Metrics[d.name] = metricValue{Value: layer[d.name], Unit: d.unit}
	}
	for k := range layer {
		if _, ok := rec.Metrics[k]; !ok {
			return nil, fmt.Errorf("layer metric %q is not declared", k)
		}
	}

	tracePath := filepath.Join(e.cfg.workdir, fmt.Sprintf("trace_%s.jsonl", w.name))
	if err := tr.writeJSONL(tracePath); err != nil {
		return nil, err
	}
	fmt.Printf("## %s: spans (written to %s)\n", w.name, tracePath)
	tr.printSummary(os.Stdout)
	fmt.Printf("## %s: layer report (probe cost per record along the data path)\n", w.name)
	for _, st := range s.stages {
		fmt.Printf("  %-28s x%-3g %10.3f us\n", st.name, st.times, st.times*probes.perRecUs[st.name])
	}
	fmt.Printf("  %-33s %10.3f us\n", "accounted", accounted)
	fmt.Printf("  %-33s %10.3f us\n", "cpu_us_per_rec (traced pass)", cpuTraced)
	fmt.Printf("  %-33s %10.3f us  <- the to-do list\n", "unaccounted", cpuTraced-accounted)

	s.attempted += plain.attempted
	s.failed += plain.failed
	if s.invalid == "" {
		s.invalid = plain.invalid
	}
	return s, nil
}

// watch samples, while a pass runs, what only has an instantaneous value:
// the goroutine count and the followers' replication lag.
type watch struct {
	quit chan struct{}
	done chan [2]float64
}

func startWatch(reg *metrics.Registry) *watch {
	w := &watch{quit: make(chan struct{}), done: make(chan [2]float64)}
	go func() {
		var peak [2]float64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			peak[0] = math.Max(peak[0], float64(runtime.NumGoroutine()))
			peak[1] = math.Max(peak[1], replicaLagMsMax(reg))
			select {
			case <-w.quit:
				w.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

func (w *watch) stop() (goroutines int, replicaLagMs float64) {
	close(w.quit)
	peak := <-w.done
	return int(peak[0]), peak[1]
}

// printRecord prints every metric by name with its unit, then the result
// line the driver reads.
func printRecord(rec *runRecord) error {
	fmt.Printf("## %s seed=%d seconds=%g trace=%d input_sha256=%s\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.InputSHA256)
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-36s %16.4f %s\n", k, rec.Metrics[k].Value, rec.Metrics[k].Unit)
	}
	if rec.Invalid != "" {
		fmt.Fprintf(os.Stderr, "benchmark: %s: RUN INVALID: %s\n", rec.Workload, rec.Invalid)
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		return err // a metric that is not a number
	}
	fmt.Println(string(line))
	return nil
}

func appendRecord(path string, rec *runRecord) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
