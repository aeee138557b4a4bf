// BenchmarkExperiments wraps internal/bench's registry: one sub-benchmark
// per experiment, so `go test -bench=.` regenerates every table at quick
// scale and `-bench 'Experiments/E18$'` runs one. Run cmd/liquid-bench for
// the full-scale tables.
package liquid_test

import (
	"testing"

	"repro/internal/bench"
)

func BenchmarkExperiments(b *testing.B) {
	for _, id := range bench.IDs() {
		run, _ := bench.ByID(id)
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t := run(bench.Scale{Quick: true})
				if i == b.N-1 {
					b.Logf("\n%s", t.Render())
				}
			}
		})
	}
}
