package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"xoridx/internal/hash"
)

func TestSelfTimes(t *testing.T) {
	// root [0,100] has children a [10,40] and b [30,60], which overlap,
	// and c [90,120], which runs past root's end; a has child d [15,20].
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
		{ID: 6, Parent: 1, Name: "a", Start: 95, End: 99},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 100 - 50 - 10, 2: 25, 3: 30, 4: 30, 5: 5, 6: 4}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if byName["a"] != 29 || byName["root"] != 40 {
		t.Errorf("selfByName = %v, want a=29 root=40", byName)
	}
}

func TestRecorderNilIsFree(t *testing.T) {
	var r *recorder
	id := r.begin("x", "", 0)
	r.end(id)
	if id != 0 || r.snapshot() != nil {
		t.Fatal("nil recorder recorded a span")
	}
	r = newRecorder()
	root := r.begin("root", "g", 0)
	child := r.begin("child", "g", root)
	r.end(child)
	r.end(root)
	got := r.snapshot()
	if len(got) != 2 || got[1].Parent != got[0].ID || got[0].End < got[1].End {
		t.Fatalf("spans = %+v", got)
	}
}

func TestMetricSetRejectsInvalid(t *testing.T) {
	bad := []struct{ name, unit string }{
		{"", "s"},
		{"_leading", "s"},
		{".leading", "s"},
		{"has space", "s"},
		{"semi;colon", "s"},
		{"ü", "s"},
		{strings.Repeat("x", 65), "s"},
		{"ok", ""},
		{"ok", "per sec"},
		{"ok", strings.Repeat("u", 17)},
	}
	for _, b := range bad {
		if err := (metricSet{}).add(b.name, b.unit, 1); err == nil {
			t.Errorf("add(%q, %q) accepted", b.name, b.unit)
		}
	}
	m := metricSet{}
	for _, good := range []struct{ name, unit string }{
		{"setup_s", "s"}, {"trace.decode_accesses_per_s", "accesses/s"}, {"a-b.c_d9", "%"},
		{strings.Repeat("x", 64), "1/s"},
	} {
		if err := m.add(good.name, good.unit, 1); err != nil {
			t.Errorf("add(%q, %q): %v", good.name, good.unit, err)
		}
	}
	if err := m.add("setup_s", "s", 2); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := m.add("nan", "s", math.NaN()); err == nil {
		t.Error("NaN value accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, med, q3 = quartiles([]float64{2, 1})
	if q1 != 0.75 || med != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles = %v %v %v, want 0.75 1.5 2.25", q1, med, q3)
	}
}

// TestSpecsMatchBenchmarkJSON keeps the metric lists in this package
// and BENCHMARK.json at the repository root in step.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, specs []metricSpec, got []struct{ Name, Unit string }) {
		if len(specs) != len(got) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(specs), len(got))
		}
		for i, s := range specs {
			if got[i].Name != s.name || got[i].Unit != s.unit {
				t.Errorf("%s[%d]: %s %s here, %s %s in BENCHMARK.json", kind, i, s.name, s.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
	if len(doc.Workloads) != len(workloadList) {
		t.Fatalf("%d workloads here, %d in BENCHMARK.json", len(workloadList), len(doc.Workloads))
	}
	for i, w := range workloadList {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %s here, %s in BENCHMARK.json", i, w.name, doc.Workloads[i].Name)
		}
	}
}

// TestDigestStable runs tiny versions of both workload kinds twice
// from independent set-ups and expects identical outputs and clean
// checks.
func TestDigestStable(t *testing.T) {
	tune := func() *passOut {
		r, err := setupTune(tuneSpec{kernels: []string{"adpcm_dec"}, scale: 1, cacheKB: []int{1, 4},
			family: hash.FamilyGeneralXOR}, 7)
		if err != nil {
			t.Fatal(err)
		}
		out, err := r.pass(newRecorder())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serveOnce := func() *passOut {
		r, err := setupServe(serveSpec{kernels: []string{"fft", "crc"}, scale: 1, clients: 2,
			totalAccesses: 40_000, window: 16_384, batch: 1024}, 7, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		out, err := r.pass(nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for kind, run := range map[string]func() *passOut{"tune": tune, "serve": serveOnce} {
		a, b := run(), run()
		if a.digest != b.digest {
			t.Errorf("%s: digests %s and %s differ", kind, a.digest, b.digest)
		}
		if len(a.checks) != 0 || a.failed != 0 {
			t.Errorf("%s: checks %v, %d failed", kind, a.checks, a.failed)
		}
	}
}
