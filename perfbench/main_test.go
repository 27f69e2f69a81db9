package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"batlife/internal/api"
)

// stream renders the first n requests of a seed's stream.
func stream(t *testing.T, seed int64, n int) []byte {
	t.Helper()
	models, err := catalogue()
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(models, seed)
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		r := g.next()
		b.WriteString(r.class)
		b.WriteByte(' ')
		b.Write(r.body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func names(ps []problem) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.name
	}
	return out
}

func TestSeedDeterminism(t *testing.T) {
	if a, b := stream(t, 7, 5000), stream(t, 7, 5000); !bytes.Equal(a, b) {
		t.Error("the same seed gave two different request streams")
	}
	if a, b := stream(t, 7, 5000), stream(t, 8, 5000); bytes.Equal(a, b) {
		t.Error("seeds 7 and 8 gave the same request stream")
	}
	w, err := newWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range []func(int64) []problem{
		func(seed int64) []problem { return permute(ladder(w), seed) },
		func(seed int64) []problem { return sweepOrder(sweepGrid(w), seed) },
	} {
		a, b := names(order(7)), names(order(7))
		if !slices.Equal(a, b) {
			t.Errorf("the same seed gave orders %v and %v", a, b)
		}
		if c := names(order(8)); slices.Equal(a, c) {
			t.Errorf("seeds 7 and 8 gave the same order %v", a)
		}
	}
}

// TestRungNames keeps the per-rung metric names in step with the ladder.
func TestRungNames(t *testing.T) {
	w, err := newWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	if got := names(ladder(w)); !slices.Equal(got, rungNames) {
		t.Errorf("ladder rungs %v, per-rung metric names %v", got, rungNames)
	}
}

// TestStreamMix checks the class shares and that the catalogue exceeds
// the daemon's default 32-entry model cache.
func TestStreamMix(t *testing.T) {
	models, err := catalogue()
	if err != nil {
		t.Fatal(err)
	}
	if len(models) <= 32 {
		t.Fatalf("catalogue has %d models, want more than the 32-entry model cache", len(models))
	}
	g := newGenerator(models, 1)
	count := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		count[g.next().class]++
	}
	for _, c := range classMix {
		got := float64(count[c.class]) / n * 1000
		if got < 0.8*float64(c.perMille) || got > 1.2*float64(c.perMille) {
			t.Errorf("class %s: %.0f per mille, want about %d", c.class, got, c.perMille)
		}
	}
}

// TestRespellingKeepsFingerprint checks that both spellings of every
// catalogue model decode to requests with one job fingerprint, so a
// replay is served from the job store.
func TestRespellingKeepsFingerprint(t *testing.T) {
	models, err := catalogue()
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(models, 1)
	for _, m := range models {
		fp := func(spellB bool) string {
			var req api.SolveRequest
			if err := json.Unmarshal(g.body(m, "", "[100,200]", "30", spellB), &req); err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			if err := req.Validate(); err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			id, err := req.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			return id
		}
		if a, b := fp(false), fp(true); a != b {
			t.Errorf("%s: fingerprints %s and %s", m.name, a, b)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []spanRecord{
		{Name: "root", Trace: 1, ID: 1, Start: 0, End: 100},
		{Name: "a", Trace: 1, ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", Trace: 1, ID: 3, Parent: 1, Start: 30, End: 60}, // overlaps a
		{Name: "c", Trace: 1, ID: 4, Parent: 3, Start: 35, End: 45},
	}
	self := map[string]int64{}
	for _, lt := range selfTimes(spans) {
		self[lt.Name] = int64(lt.Self)
	}
	want := map[string]int64{"root": 50, "a": 30, "b": 20, "c": 10}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if p, _, ok := tail(xs); !ok || p != 99 {
		t.Errorf("1000 samples: p%v, want p99", p)
	}
	if p, _, ok := tail(xs[:100]); !ok || p != 90 {
		t.Errorf("100 samples: p%v, want p90", p)
	}
	if _, _, ok := tail(xs[:19]); ok {
		t.Error("19 samples support no percentile")
	}
}

// TestMetricCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the
// metrics this program prints in step.
func TestMetricCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  []entry
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", c.what, len(c.got), len(c.want))
		}
		for i, d := range c.want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if w := (entry{d.name, d.unit, better}); c.got[i] != w {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.what, i, c.got[i], w)
			}
		}
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	if !slices.Equal(wl, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", wl, workloadNames)
	}
}
