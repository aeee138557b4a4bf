package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// benchSpec is BENCHMARK.json as the driver reads it.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readSpec loads the benchmark's declaration.
func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// quartiles returns the first and third quartile of vals as Python's
// statistics.quantiles(vals, n=4) does (the exclusive method), which is the
// spread rule the benchmark's contract uses. It needs two values.
func quartiles(vals []float64) (q1, q3 float64) {
	d := sorted(vals)
	ld := len(d)
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return at(1), at(3)
}

// spreadOf is the interquartile range as a share of the median; 0 with
// fewer than three values, where it says nothing.
func spreadOf(vals []float64) float64 {
	if len(vals) < 3 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return ratio(q3-q1, median(vals))
}

// readRuns loads the untraced runs of a comma-separated list of -out files.
func readRuns(list string) ([]runRecord, error) {
	var runs []runRecord
	for _, path := range strings.Split(list, ",") {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if len(strings.TrimSpace(sc.Text())) == 0 {
				continue
			}
			var r runRecord
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			if r.Trace == 0 {
				runs = append(runs, r)
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return runs, nil
}

// side is one side's runs of one workload.
type side struct {
	values      map[string][]float64
	failedShare []float64
	invalid     int
}

func collect(runs []runRecord, workload string) side {
	s := side{values: make(map[string][]float64)}
	for _, r := range runs {
		if r.Workload != workload {
			continue
		}
		if r.Invalid != "" {
			s.invalid++
			continue
		}
		for name, m := range r.Metrics {
			s.values[name] = append(s.values[name], m.Value)
		}
		s.failedShare = append(s.failedShare, ratio(float64(r.Failed), float64(r.Attempted)))
	}
	return s
}

// compareMain implements `compare <old.jsonl>[,...] <new.jsonl>[,...]`: for
// every workload and end-to-end metric it prints both medians, their ratio
// with its base, both spreads and a verdict from the bounds in
// BENCHMARK.json. It returns non-zero on any regression, on a higher share
// of failed operations, and on a side with no valid run.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark's declaration, for bounds and directions")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] <old.jsonl>[,<old2.jsonl>...] <new.jsonl>[,...]")
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	oldRuns, err := readRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	newRuns, err := readRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}

	code := 0
	fmt.Printf("%-9s %-16s %-6s %12s %12s  %-22s %7s %7s %6s  %s\n",
		"workload", "metric", "unit", "old median", "new median", "new/old (base: old)", "spr.old", "spr.new", "bound", "verdict")
	for _, w := range spec.Workloads {
		o, n := collect(oldRuns, w.Name), collect(newRuns, w.Name)
		if len(o.failedShare) == 0 || len(n.failedShare) == 0 {
			fmt.Printf("%-9s no valid untraced run on one side (old %d, new %d; invalid old %d, new %d)\n",
				w.Name, len(o.failedShare), len(n.failedShare), o.invalid, n.invalid)
			code = 1
			continue
		}
		for _, m := range spec.EndToEnd {
			ov, nv := o.values[m.Name], n.values[m.Name]
			om, nm := median(ov), median(nv)
			worse := ratio(nm-om, om) // share of the old median by which the metric got worse
			if m.Better == "higher" {
				worse = -worse
			}
			so, sn := spreadOf(ov), spreadOf(nv)
			verdict := "within-bound"
			switch {
			case so > m.Bound || sn > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				code = 1
			case -worse > m.Bound:
				verdict = "improved"
			}
			fmt.Printf("%-9s %-16s %-6s %12.4f %12.4f  %-22s %6.1f%% %6.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, m.Unit, om, nm, fmt.Sprintf("%.3f of %.4g (n=%d,%d)", ratio(nm, om), om, len(ov), len(nv)),
				100*so, 100*sn, 100*m.Bound, verdict)
		}
		of, nf := median(o.failedShare), median(n.failedShare)
		verdict := "ok"
		if nf > of {
			verdict = "MORE FAILED OPERATIONS"
			code = 1
		}
		fmt.Printf("%-9s %-16s %-6s %12.6f %12.6f  %-22s %7s %7s %6s  %s\n", w.Name, "failed_share", "ratio", of, nf, "", "", "", "0", verdict)
		if o.invalid+n.invalid > 0 {
			fmt.Printf("%-9s left out as invalid: old %d, new %d\n", w.Name, o.invalid, n.invalid)
		}
	}
	return code
}
