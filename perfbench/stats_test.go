package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample is not NaN")
	}
}

func TestTailOK(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{99, 90, false}, {100, 90, true}, {199, 95, false}, {200, 95, true},
		{999, 99, false}, {1000, 99, true}, {1250, 99, true}, {1, 50, false},
	} {
		if got := tailOK(c.n, c.p); got != c.want {
			t.Errorf("tailOK(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestIQM(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},                        // 2 and 3
		{[]float64{8, 1, 100, 2, 3, 4, 5, 6}, 4.5},          // 3, 4, 5, 6
		{[]float64{1, 2, 3, 4, 5}, 3},                       // ¾·2 + 3 + ¾·4 over 2.5
		{[]float64{10, 10, 10, 20, 20, 20}, 15},             // two modes, equal weight
		{[]float64{10, 10, 10, 10, 20, 20, 20}, 47.5 / 3.5}, // 10·(¼+1+1) + 20·(1+¼) over 3.5
	} {
		if got := iqm(c.xs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("iqm(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(iqm(nil)) {
		t.Error("iqm of nothing should be NaN")
	}
}

func TestQuietRounds(t *testing.T) {
	q := quietRounds([]float64{0, 40, 3, 0, 9, 2})
	want := map[int]bool{0: true, 3: true, 5: true} // median 2.5
	if len(q) != len(want) {
		t.Fatalf("quietRounds = %v, want %v", q, want)
	}
	for k := range want {
		if !q[k] {
			t.Errorf("round %d not quiet in %v", k, q)
		}
	}
	if q := quietRounds([]float64{0, 0, 0}); len(q) != 3 {
		t.Errorf("a host that took nothing leaves every round quiet, got %v", q)
	}
	if quietRounds(nil) != nil {
		t.Error("no rounds should mean no selection")
	}
	r := &runner{samples: map[string][]sample{"x": {{1, -1}, {2, 0}, {3, 1}, {4, 2}}}, quiet: map[int]bool{0: true, 2: true}}
	if got := r.quietSamples("x"); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("quietSamples = %v, want [2 4]", got)
	}
	r.quiet = nil
	if got := r.quietSamples("x"); len(got) != 3 {
		t.Errorf("with no selection quietSamples = %v, want every measured sample", got)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: 30, End: 60},  // overlaps a: union 10..60
		{ID: 4, Parent: 1, Op: 1, Name: "c", Start: 90, End: 120}, // clipped to 90..100
		{ID: 5, Parent: 2, Op: 1, Name: "d", Start: 15, End: 25},
		{ID: 6, Parent: 2, Op: 1, Name: "d", Start: 20, End: 35}, // union with 5: 15..35
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 20, 3: 30, 4: 30, 5: 10, 6: 15}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
}

func TestFoldAndCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 7, Name: "op", Start: 0, End: 200},
		{ID: 2, Parent: 1, Op: 7, Name: "x", Start: 0, End: 50},
		{ID: 3, Parent: 1, Op: 7, Name: "x", Start: 50, End: 100},
		{ID: 4, Parent: 1, Op: 7, Name: "y", Start: 100, End: 150},
		{ID: 5, Op: 8, Name: "op", Start: 300, End: 400},
	}
	ops := foldOps(spans)
	o := ops[7]
	if o.self["x"] != 100 || o.calls["x"] != 2 || o.dur["op"] != 200 || o.self["op"] != 50 {
		t.Fatalf("fold = %+v", o)
	}
	if got := o.coverage("op", []string{"x", "y"}, 20); got != 0.85 {
		t.Errorf("coverage = %v, want 0.85", got)
	}
	if got := ops[8].coverage("op", []string{"x"}, 0); got != 0 {
		t.Errorf("coverage with no layer spans = %v, want 0", got)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *tracer
	called := false
	if err := tr.do(1, 0, "x", func() error { called = true; return nil }); err != nil || !called {
		t.Fatal("nil tracer did not run fn")
	}
	if len(tr.snapshot()) != 0 {
		t.Fatal("nil tracer recorded spans")
	}
}

func TestValidName(t *testing.T) {
	for _, s := range []string{"setup_s", "cli.read_rows_ms", "count_p99_us", "trace.overhead_ratio", "a-b", "9x"} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	for _, s := range []string{"", "_x", ".x", "a b", "a/b", "é", string(make([]byte, 65))} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks that every run reports exactly
// the metrics BENCHMARK.json declares, with the declared units, and
// that every declared name is legal.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		Workloads []decl `json:"workloads"`
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got metrics, want []decl) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics reported, %d declared", what, len(got), len(want))
		}
		for _, d := range want {
			if !validName(d.Name) {
				t.Errorf("%s: illegal name %q", what, d.Name)
			}
			if m, ok := got[d.Name]; !ok {
				t.Errorf("%s: %s declared but not reported", what, d.Name)
			} else if m.Unit != d.Unit {
				t.Errorf("%s: %s reported in %s, declared in %s", what, d.Name, m.Unit, d.Unit)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		wl, ok := workloads[w.Name]
		if !ok || !validName(w.Name) {
			t.Fatalf("workload %q declared but not implemented", w.Name)
		}
		r := &runner{samples: map[string][]sample{}, tr: newTracer(), rp: &replayer{vals: map[string][]float64{}}}
		e2e, layers := metrics{}, metrics{}
		r.endToEnd(e2e, []float64{1}, 1, wl.native)
		r.layerMetrics(layers, wl.native, statsSnap{}, statsSnap{}, statsSnap{}, statsSnap{})
		check(w.Name+" end to end", e2e, spec.EndToEnd)
		check(w.Name+" per layer", layers, spec.PerLayer)
	}
}
