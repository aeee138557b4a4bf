package main

import (
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadDeclared(t *testing.T) benchSpec {
	t.Helper()
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestDeclarationMatchesProgram holds BENCHMARK.json and the program's own
// lists together: same workloads, same metrics, same units, legal names.
func TestDeclarationMatchesProgram(t *testing.T) {
	d := loadDeclared(t)
	if d.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the program's default is %d", d.RunSeconds, defaultSeconds)
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is declared %q, implemented %q", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
	}
	check := func(kind string, decl []specMetric, impl []metricDef) {
		if len(decl) != len(impl) {
			t.Fatalf("%s: %d metrics declared, %d implemented", kind, len(decl), len(impl))
		}
		seen := make(map[string]bool)
		for i, m := range decl {
			if m.Name != impl[i].name || m.Unit != impl[i].unit {
				t.Errorf("%s metric %d is declared %s [%s], implemented %s [%s]", kind, i, m.Name, m.Unit, impl[i].name, impl[i].unit)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s metric %q [%q]: illegal or repeated name, or illegal unit", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %q: better is %q", kind, m.Name, m.Better)
			}
			seen[m.Name] = true
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd)
	check("per_layer", d.PerLayer, perLayer)
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks that each run is correct, emits exactly the declared metrics with
// their units, and that the generated inputs follow the seed and nothing
// else.
func TestSmoke(t *testing.T) {
	d := loadDeclared(t)
	dir := t.TempDir()
	run := func(w string, seed int64, trace bool) *runRecord {
		t.Helper()
		rec, err := runOne(runConfig{workload: w, seed: seed, seconds: 0.3, trace: trace, smoke: true, workdir: dir})
		if err != nil {
			t.Fatalf("%s seed=%d trace=%v: %v", w, seed, trace, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
			t.Errorf("%s seed=%d trace=%v: correct=%v attempted=%d failed=%d", w, seed, trace, rec.Correct, rec.Attempted, rec.Failed)
		}
		want := d.EndToEnd
		if trace {
			want = d.PerLayer
		}
		if len(rec.Metrics) != len(want) {
			t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w, trace, len(rec.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := rec.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s trace=%v: metric %s [%s] emitted as %+v (present=%v)", w, trace, m.Name, m.Unit, got, ok)
			}
			if !trace && got.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w, m.Name, got.Value)
			}
		}
		return rec
	}
	for _, w := range d.Workloads {
		plain := run(w.Name, 1, false)
		traced := run(w.Name, 1, true)
		other := run(w.Name, 2, false)
		if plain.InputSHA256 == "" || plain.InputSHA256 != traced.InputSHA256 {
			t.Errorf("%s: seed 1 gave inputs %s and %s", w.Name, plain.InputSHA256, traced.InputSHA256)
		}
		if plain.InputSHA256 == other.InputSHA256 {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs %s", w.Name, plain.InputSHA256)
		}
	}
}
