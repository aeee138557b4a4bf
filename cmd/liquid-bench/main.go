// Command liquid-bench runs the paper-reproduction experiments of
// internal/bench and prints one table each. Absolute numbers are
// machine-dependent; the shapes are the reproduction target. Numbers
// tracked across changes come from the standing benchmark (benchmark/run.sh).
//
// Usage:
//
//	liquid-bench              # run everything at full scale
//	liquid-bench -quick       # CI-sized runs
//	liquid-bench -run E2,E18  # selected experiments
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "reduced sizes (seconds per experiment)")
	run := flag.String("run", "", "comma-separated experiment ids (default: all)")
	flag.Parse()

	scale := bench.Scale{Quick: *quick}
	start := time.Now()
	var tables []bench.Table
	if *run == "" {
		tables = bench.All(scale)
	} else {
		for _, id := range strings.Split(*run, ",") {
			f, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				log.Fatalf("liquid-bench: unknown experiment %q (known: %s)", id, strings.Join(bench.IDs(), ", "))
			}
			tables = append(tables, f(scale))
		}
	}
	for _, t := range tables {
		fmt.Println(t.Render())
	}
	fmt.Printf("total: %s\n", time.Since(start).Round(time.Second))
}
