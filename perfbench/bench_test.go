package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// declared is BENCHMARK.json as the driver of the benchmark reads it.
type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// The code's metric tables and BENCHMARK.json must name the same metrics,
// in the same order, with the same units and directions.
func TestMetricDefsMatchBenchmarkJSON(t *testing.T) {
	d := readDeclared(t)
	var e2e, layer []metricDef
	for _, m := range d.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range d.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, c := range []struct {
		what       string
		json, code []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", layer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", c.what, len(c.json), len(c.code))
		}
		for i := range c.code {
			if c.json[i] != c.code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", c.what, i, c.json[i], c.code[i])
			}
			if b := c.code[i].better; b != "higher" && b != "lower" {
				t.Errorf("%s: direction %q", c.code[i].name, b)
			}
		}
	}
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the code", w.Name)
		}
	}
	if len(names) != len(workloads) {
		sort.Strings(names)
		t.Errorf("BENCHMARK.json workloads %v, code %s", names, workloadNames())
	}
}

// A tiny-scale pass of every workload, untraced and traced, passes its own
// output checks and reports every declared metric with its unit.
func TestWorkloadsTinyScale(t *testing.T) {
	d := readDeclared(t)
	units := map[string]string{}
	for _, m := range d.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		units[m.Name] = m.Unit
	}
	for name, wl := range workloads {
		for _, traced := range []bool{false, true} {
			opt := options{name: name, seed: 3, seconds: 1, trace: traced, scale: 20, spanDir: t.TempDir()}
			res, err := run(wl, opt, hostInfo{CalibMS: 1})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != units[m.name] {
					t.Errorf("%s trace=%v: %s = %+v, want unit %q", name, traced, m.name, got, units[m.name])
				}
			}
		}
	}
}

// The trace wrappers only observe: a traced run gives the same hits,
// reduced edges and contigs as an untraced one, on both back-ends and
// both align drivers.
func TestWrappersTransparent(t *testing.T) {
	spec := readSpec{genomeLen: 30_000, coverage: 8, meanLen: 2000, errRate: 0.05}
	in, err := spec.generate(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ backend, mode string }{{"par", "bsp"}, {"par", "async"}, {"dist", "async"}, {"dist", "bsp"}} {
		var outs [2]*assemblyOut
		for i, tr := range []*tracer{nil, newTracer()} {
			a, err := setupAssembly(in, c.backend, c.mode, tr)
			if err != nil {
				t.Fatal(err)
			}
			outs[i], err = a.run(tr)
			a.close()
			if err != nil {
				t.Fatalf("%s/%s traced=%v: %v", c.backend, c.mode, tr != nil, err)
			}
		}
		if len(outs[0].hits) == 0 || len(outs[0].contigs) == 0 {
			t.Fatalf("%s/%s: no hits or contigs to compare", c.backend, c.mode)
		}
		if outs[0].digest != outs[1].digest {
			t.Errorf("%s/%s: traced output differs from untraced", c.backend, c.mode)
		}
	}
}
