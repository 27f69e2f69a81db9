package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"batlife"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Request classes of the daemon-mix stream and their shares per mille.
const (
	classReplay  = "replay"  // an earlier request re-spelled: served from the job store
	classMemo    = "memo"    // an earlier (model, times) with a new timeout: a new job, solver memo hit
	classWarm    = "warm"    // new times on a recently used model: engine cache hit
	classCold    = "cold"    // the least recently used model: a build
	classMean    = "mean"    // expected lifetime of a recently used model
	classExact   = "exact"   // exact CDF of a c = 1 model
	classInvalid = "invalid" // Δ does not divide the wells: 400 bad_argument
)

var classMix = []struct {
	class    string
	perMille int
}{
	{classReplay, 350}, {classMemo, 250}, {classWarm, 200}, {classCold, 100},
	{classMean, 25}, {classExact, 25}, {classInvalid, 50},
}

// classes lists the request classes in report order.
var classes = []string{classReplay, classMemo, classWarm, classCold, classMean, classExact, classInvalid}

const (
	// recentRequests is how far back replay and memo requests reach; far
	// inside the daemon's 128-job retention and 256-entry result memo.
	recentRequests = 32
	// recentModels is how many of the most recently used models warm and
	// mean requests choose from; far inside the 32-model cache.
	recentModels = 8
	// sampleShare is the share of new (model, times) pairs whose first
	// answer is re-solved in-process after the run, up to maxSamples.
	sampleShare = 0.03
	maxSamples  = 24
)

// catalogModel is one model of the daemon-mix catalogue, pre-rendered
// in two spellings that decode to identical values: unit strings, and
// the codec's own numeric form.
type catalogModel struct {
	id                   int
	name                 string
	ideal                bool    // c = 1, so the exact analysis applies
	horizon              float64 // seconds; CDF times fall below it
	batteryA, batteryB   string
	workloadA, workloadB string
	deltaA, deltaB       string
}

// catalogue returns the daemon-mix models: more than the daemon's
// default 32-entry model cache, each at most a few thousand states.
func catalogue() ([]catalogModel, error) {
	type wl struct {
		name string
		json string
		caps []float64
		vars int
	}
	simple, burst := `{"states":[{"name":"idle","current":"8mA"},{"name":"send","current":"200mA"},{"name":"sleep","current":"0mA"}],`+
		`"transitions":[{"from":"idle","to":"send","rate_per_hour":2},{"from":"idle","to":"sleep","rate_per_hour":1},`+
		`{"from":"sleep","to":"send","rate_per_hour":2},{"from":"send","to":"idle","rate_per_hour":6}],"initial":"idle"}`,
		`{"states":[{"name":"on-idle","current":"8mA"},{"name":"on-send","current":"200mA"},{"name":"off-idle","current":"8mA"},`+
			`{"name":"off-send","current":"200mA"},{"name":"sleep","current":"0mA"}],`+
			`"transitions":[{"from":"on-idle","to":"on-send","rate_per_hour":182},{"from":"on-send","to":"on-idle","rate_per_hour":6},`+
			`{"from":"off-send","to":"off-idle","rate_per_hour":6},{"from":"on-idle","to":"off-idle","rate_per_hour":6},`+
			`{"from":"on-send","to":"off-send","rate_per_hour":6},{"from":"off-idle","to":"on-idle","rate_per_hour":1},`+
			`{"from":"off-idle","to":"sleep","rate_per_hour":1},{"from":"sleep","to":"on-idle","rate_per_hour":1}],"initial":"off-idle"}`
	duty := `{"states":[{"name":"idle","current":"8mA"},{"name":"send","current":"200mA"}],` +
		`"transitions":[{"from":"idle","to":"send","rate_per_hour":2},{"from":"send","to":"idle","rate_per_hour":6}],"initial":"idle"}`
	variants := []struct {
		c, k  float64
		ideal bool // c = 1
	}{{0.625, 4.5e-5, false}, {1, 0, true}, {0.625, 1e-4, false}, {0.5, 4.5e-5, false}, {0.75, 4.5e-5, false}}
	wls := []wl{
		{"simple", simple, []float64{80, 160, 240, 320}, 5},
		{"burst", burst, []float64{80, 160}, 5},
		{"duty", duty, []float64{80, 160, 240, 320}, 2},
	}
	var out []catalogModel
	for _, w := range wls {
		var wk batlife.Workload
		if err := json.Unmarshal([]byte(w.json), &wk); err != nil {
			return nil, fmt.Errorf("catalogue workload %s: %w", w.name, err)
		}
		workloadB, err := json.Marshal(&wk)
		if err != nil {
			return nil, err
		}
		mean, err := wk.MeanCurrent()
		if err != nil {
			return nil, err
		}
		for _, capMAh := range w.caps {
			for _, v := range variants[:w.vars] {
				batteryA := fmt.Sprintf(`{"capacity":"%gmAh","available_fraction":%g,"flow_rate_per_sec":%g}`, capMAh, v.c, v.k)
				var b batlife.Battery
				if err := json.Unmarshal([]byte(batteryA), &b); err != nil {
					return nil, fmt.Errorf("catalogue battery: %w", err)
				}
				batteryB, err := json.Marshal(b)
				if err != nil {
					return nil, err
				}
				var opts batlife.AnalysisOptions
				if err := json.Unmarshal([]byte(`{"delta":"10mAh"}`), &opts); err != nil {
					return nil, err
				}
				deltaB, err := json.Marshal(opts)
				if err != nil {
					return nil, err
				}
				out = append(out, catalogModel{
					id:        len(out),
					name:      fmt.Sprintf("%s-%gmah-c%g-k%g", w.name, capMAh, v.c, v.k),
					ideal:     v.ideal,
					horizon:   1.5 * b.CapacityAs / mean,
					batteryA:  batteryA,
					batteryB:  string(batteryB),
					workloadA: w.json,
					workloadB: string(workloadB),
					deltaA:    `{"delta":"10mAh"}`,
					deltaB:    string(deltaB),
				})
			}
		}
	}
	return out, nil
}

// request is one generated POST /v1/solve.
type request struct {
	seq    int
	class  string
	body   []byte
	pair   string // answer identity: every response for a pair is identical; "" for invalid
	job    string // daemon job identity: the pair and the timeout
	sample bool   // re-solve this pair's first answer in-process after the run
}

// issued is a valid cdf request the stream may repeat.
type issued struct {
	model   int
	times   string
	timeout string // "" for the server default
}

// generator produces the seeded daemon-mix request stream. The stream
// depends only on the seed: class choices, models and times never look
// at responses, so one seed always yields the same bytes.
type generator struct {
	rng     *rand.Rand
	models  []catalogModel
	ideal   []int
	lru     []int // model ids, least recently used first
	recent  []issued
	seq     int
	samples int
}

func newGenerator(models []catalogModel, seed int64) *generator {
	g := &generator{rng: newRand(seed), models: models}
	for _, m := range models {
		if m.ideal {
			g.ideal = append(g.ideal, m.id)
		}
	}
	g.lru = g.rng.Perm(len(models))
	return g
}

// touch marks a model as most recently used.
func (g *generator) touch(id int) {
	for i, m := range g.lru {
		if m == id {
			copy(g.lru[i:], g.lru[i+1:])
			g.lru[len(g.lru)-1] = id
			return
		}
	}
}

func (g *generator) recentModel() int {
	return g.lru[len(g.lru)-1-g.rng.Intn(recentModels)]
}

// times draws a fresh ascending grid of whole seconds below the model's
// horizon.
func (g *generator) times(m catalogModel) string {
	k := 3 + g.rng.Intn(6)
	hi := m.horizon * (0.6 + 0.4*g.rng.Float64())
	lo := hi * (0.05 + 0.3*g.rng.Float64())
	parts := make([]string, k)
	for i := range parts {
		t := math.Round(lo + (hi-lo)*float64(i)/float64(k-1))
		parts[i] = strconv.FormatFloat(t, 'f', -1, 64)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// body renders a request in spelling A (unit strings) or B (numbers,
// other key order). Both have the same canonical fingerprint.
func (g *generator) body(m catalogModel, analysis, times, timeout string, spellB bool) []byte {
	var f []string
	add := func(k, v string) { f = append(f, `"`+k+`":`+v) }
	if spellB {
		if timeout != "" {
			add("timeout_seconds", timeout)
		}
		add("options", m.deltaB)
		if times != "" {
			add("times", times)
		}
		add("workload", m.workloadB)
		add("battery", m.batteryB)
		if analysis != "" {
			add("analysis", `"`+analysis+`"`)
		}
	} else {
		if analysis != "" {
			add("analysis", `"`+analysis+`"`)
		}
		add("battery", m.batteryA)
		add("workload", m.workloadA)
		if times != "" {
			add("times", times)
		}
		add("options", m.deltaA)
		if timeout != "" {
			add("timeout_seconds", timeout)
		}
	}
	return []byte("{" + strings.Join(f, ",") + "}")
}

func pairKey(model int, analysis, times string) string {
	return strconv.Itoa(model) + "|" + analysis + "|" + times
}

// fresh issues a new cdf pair on model id.
func (g *generator) fresh(class string, id int) request {
	m := g.models[id]
	times := g.times(m)
	g.touch(id)
	g.remember(issued{model: id, times: times})
	return request{class: class, body: g.body(m, "", times, "", false), pair: pairKey(id, "", times), sample: g.sampled()}
}

func (g *generator) remember(it issued) {
	g.recent = append(g.recent, it)
	if len(g.recent) > recentRequests {
		g.recent = g.recent[1:]
	}
}

func (g *generator) sampled() bool {
	if g.samples < maxSamples && g.rng.Float64() < sampleShare {
		g.samples++
		return true
	}
	return false
}

// next returns the stream's next request.
func (g *generator) next() request {
	g.seq++
	pick := g.rng.Intn(1000)
	class := classInvalid
	for _, c := range classMix {
		if pick < c.perMille {
			class = c.class
			break
		}
		pick -= c.perMille
	}
	if len(g.recent) == 0 && (class == classReplay || class == classMemo) {
		class = classCold
	}
	var r request
	timeout := ""
	switch class {
	case classReplay:
		it := g.recent[g.rng.Intn(len(g.recent))]
		m := g.models[it.model]
		timeout = it.timeout
		r = request{class: class, body: g.body(m, "", it.times, it.timeout, true), pair: pairKey(it.model, "", it.times)}
	case classMemo:
		it := g.recent[g.rng.Intn(len(g.recent))]
		it.timeout = strconv.Itoa(100000 + g.seq) // unique: a new job
		timeout = it.timeout
		g.touch(it.model)
		g.remember(it)
		m := g.models[it.model]
		r = request{class: class, body: g.body(m, "", it.times, it.timeout, g.rng.Intn(2) == 0), pair: pairKey(it.model, "", it.times)}
	case classWarm:
		r = g.fresh(class, g.recentModel())
	case classCold:
		r = g.fresh(class, g.lru[0])
	case classMean:
		id := g.recentModel()
		g.touch(id)
		m := g.models[id]
		r = request{class: class, body: g.body(m, "mean", "", "", g.rng.Intn(2) == 0), pair: pairKey(id, "mean", ""), sample: g.sampled()}
	case classExact:
		id := g.ideal[g.rng.Intn(len(g.ideal))]
		m := g.models[id]
		times := g.times(m)
		r = request{class: class, body: g.body(m, "exact", times, "", false), pair: pairKey(id, "exact", times), sample: g.sampled()}
	default:
		m := g.models[g.rng.Intn(len(g.models))]
		bad := m
		bad.deltaA = `{"delta":"7mAh"}`
		r = request{class: classInvalid, body: g.body(bad, "", g.times(m), "", false)}
	}
	r.seq = g.seq
	if r.pair != "" {
		r.job = r.pair + "|" + timeout
	}
	return r
}
