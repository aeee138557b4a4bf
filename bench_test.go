// Benchmarks wrapping the experiment harness: one benchmark per experiment
// (E1–E20, E22, E25), so `go test -bench=.` regenerates every table at quick scale.
// Run cmd/liquid-bench for the full-scale tables and the machine-readable
// BENCH_<exp>.json results.
package liquid_test

import (
	"testing"

	"repro/internal/bench"
)

// runExperiment executes one experiment per benchmark iteration and logs
// its table on the last iteration.
func runExperiment(b *testing.B, f func(bench.Scale) bench.Table) {
	b.Helper()
	scale := bench.Scale{Quick: true}
	for i := 0; i < b.N; i++ {
		t := f(scale)
		if i == b.N-1 {
			b.Logf("\n%s", t.Render())
		}
	}
}

func BenchmarkE1PipelineLatency(b *testing.B)     { runExperiment(b, bench.E1PipelineLatency) }
func BenchmarkE2ThroughputVsLogSize(b *testing.B) { runExperiment(b, bench.E2ThroughputVsLogSize) }
func BenchmarkE3AntiCaching(b *testing.B)         { runExperiment(b, bench.E3AntiCaching) }
func BenchmarkE4Compaction(b *testing.B)          { runExperiment(b, bench.E4Compaction) }
func BenchmarkE5Incremental(b *testing.B)         { runExperiment(b, bench.E5Incremental) }
func BenchmarkE6Failover(b *testing.B)            { runExperiment(b, bench.E6Failover) }
func BenchmarkE7AcksTradeoff(b *testing.B)        { runExperiment(b, bench.E7AcksTradeoff) }
func BenchmarkE8Isolation(b *testing.B)           { runExperiment(b, bench.E8Isolation) }
func BenchmarkE9ConsumerGroups(b *testing.B)      { runExperiment(b, bench.E9ConsumerGroups) }
func BenchmarkE10Decoupling(b *testing.B)         { runExperiment(b, bench.E10Decoupling) }
func BenchmarkE11ManyTopics(b *testing.B)         { runExperiment(b, bench.E11ManyTopics) }
func BenchmarkE12UseCases(b *testing.B)           { runExperiment(b, bench.E12UseCases) }
func BenchmarkE13StateRecovery(b *testing.B)      { runExperiment(b, bench.E13StateRecovery) }
func BenchmarkE14ArchiveExport(b *testing.B)      { runExperiment(b, bench.E14ArchiveExport) }
func BenchmarkE15ArchiveScan(b *testing.B)        { runExperiment(b, bench.E15ArchiveScan) }
func BenchmarkE16Compression(b *testing.B)        { runExperiment(b, bench.E16Compression) }
func BenchmarkE17Availability(b *testing.B)       { runExperiment(b, bench.E17Availability) }
func BenchmarkE18RewindScan(b *testing.B)         { runExperiment(b, bench.E18RewindScan) }
func BenchmarkE19NoisyNeighbor(b *testing.B)      { runExperiment(b, bench.E19NoisyNeighbor) }
func BenchmarkE20Durability(b *testing.B)         { runExperiment(b, bench.E20Durability) }
func BenchmarkE22TableReads(b *testing.B)         { runExperiment(b, bench.E22TableReads) }
func BenchmarkE25ObservabilityOverhead(b *testing.B) {
	runExperiment(b, bench.E25ObservabilityOverhead)
}
