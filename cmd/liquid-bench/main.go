// Command liquid-bench runs the experiment suite that reproduces the
// paper's claims (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for recorded results). Each experiment prints a table;
// absolute numbers are machine-dependent, the shapes are the reproduction
// target.
//
// Every experiment also writes a machine-readable BENCH_<exp>.json file
// (identity, structured results, rendered rows) so the performance
// trajectory can be tracked across changes; -json "" disables it.
//
// Usage:
//
//	liquid-bench              # run everything at full scale
//	liquid-bench -quick       # CI-sized runs
//	liquid-bench -run E16     # one experiment
//	liquid-bench -json out/   # write BENCH_<exp>.json files into out/
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
	jsonDir := flag.String("json", ".", "directory for BENCH_<exp>.json results (empty disables)")
	flag.Parse()

	// Quick runs don't overwrite committed full-scale baselines unless the
	// caller asked for JSON explicitly (the files record their scale either
	// way).
	jsonExplicit := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "json" {
			jsonExplicit = true
		}
	})
	if *quick && !jsonExplicit {
		*jsonDir = ""
	}

	scale := bench.Scale{Quick: *quick}
	start := time.Now()
	var tables []bench.Table
	if *run == "" {
		tables = bench.All(scale)
	} else {
		for _, id := range strings.Split(*run, ",") {
			f, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				log.Fatalf("liquid-bench: unknown experiment %q (E1..E20, E22, E25)", id)
			}
			tables = append(tables, f(scale))
		}
	}
	for _, t := range tables {
		fmt.Println(t.Render())
		if *jsonDir != "" {
			path, err := bench.WriteJSON(*jsonDir, t, scale)
			if err != nil {
				log.Printf("liquid-bench: write json for %s: %v", t.ID, err)
			} else {
				fmt.Printf("wrote %s\n\n", path)
			}
		}
	}
	fmt.Printf("total: %s\n", time.Since(start).Round(time.Second))
}
