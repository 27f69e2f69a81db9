package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"batlife"
	"batlife/internal/api"
)

const (
	// setupSpawns is how many daemons a run starts to time set-up; the
	// last one serves the workload.
	setupSpawns = 5
	// clients is the closed-loop client count: the container's vCPUs.
	clients = 2
	// decodeSamples bounds the bodies kept for the in-process decode
	// probe.
	decodeSamples = 2000
	// traceWindow is the length of each untraced and each traced window
	// of the traced run.
	traceWindow = time.Second
	// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat
	// CPU times.
	clockTicks = 100
)

// daemon is one running batlifed process.
type daemon struct {
	cmd     *exec.Cmd
	base    string        // http://127.0.0.1:port
	drained chan struct{} // closed once stderr hits EOF
}

// spawnDaemon starts batlifed with its default flags on a loopback
// ephemeral port and returns once /readyz answers 200, with the time
// that took.
func spawnDaemon(bin string, client *http.Client) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	// Should the benchmark die, the kernel stops the daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start batlifed: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		found := false
		for sc.Scan() {
			if found {
				continue
			}
			var line struct {
				Msg  string `json:"msg"`
				Addr string `json:"addr"`
			}
			if json.Unmarshal(sc.Bytes(), &line) == nil && line.Msg == "batlifed serving" {
				addr <- line.Addr
				found = true
			}
		}
		// Keep reading to EOF so the daemon never blocks on its log.
		io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.drained:
		code, err := d.wait(time.Second)
		return nil, 0, fmt.Errorf("batlifed exited before serving (exit code %d, %v)", code, err)
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, 0, errors.New("batlifed did not report its address")
	}
	for {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 20*time.Second {
			d.kill()
			return nil, 0, errors.New("batlifed never became ready")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop sends SIGTERM and waits for the graceful drain; it returns the
// exit code.
func (d *daemon) stop() (int, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return -1, fmt.Errorf("signal batlifed: %w", err)
	}
	return d.wait(60 * time.Second)
}

func (d *daemon) wait(limit time.Duration) (int, error) {
	select {
	case <-d.drained:
	case <-time.After(limit):
		d.cmd.Process.Kill()
		<-d.drained
	}
	err := d.cmd.Wait()
	code := d.cmd.ProcessState.ExitCode()
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		return code, err
	}
	return code, nil
}

// kill stops a daemon on an error path; the caller is already
// reporting a failure, so the exit status adds nothing.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	if _, err := d.wait(10 * time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: stop batlifed:", err)
	}
}

// cpuTicks reads the daemon's user+system CPU time in clock ticks.
func (d *daemon) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return u + st, nil
}

// peakRSSMB reads the daemon's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// promSample is one /metrics scrape: plain series by full name (with
// labels), and cumulative histogram buckets by family.
type promSample struct {
	series  map[string]float64
	buckets map[string][]bucket
}

type bucket struct {
	le  float64
	cum float64
}

// scrape reads GET /metrics. Only series that the daemon keeps across
// planned changes are used by the benchmark (see README.md).
func scrape(client *http.Client, base string) (promSample, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return promSample{}, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	s := promSample{series: make(map[string]float64), buckets: make(map[string][]bucket)}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 { // exemplar
			line = line[:i]
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		if fam, rest, ok := strings.Cut(name, "_bucket{"); ok {
			i := strings.Index(rest, `le="`)
			if i < 0 {
				continue
			}
			leStr := rest[i+4:]
			leStr = leStr[:strings.IndexByte(leStr, '"')]
			le, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				continue
			}
			s.buckets[fam] = append(s.buckets[fam], bucket{le, v})
			continue
		}
		s.series[name] = v
	}
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	return s, sc.Err()
}

// delta returns after − before for one series.
func delta(before, after promSample, name string) float64 {
	return after.series[name] - before.series[name]
}

// histQuantile estimates a quantile of the samples observed between two
// scrapes from the cumulative buckets: the upper bound of the bucket
// holding the rank. It returns the count too.
func histQuantile(before, after promSample, fam string, q float64) (float64, float64) {
	cumAt := func(bs []bucket, le float64) float64 {
		c := 0.0
		for _, b := range bs {
			if b.le <= le {
				c = b.cum
			}
		}
		return c
	}
	bs := after.buckets[fam]
	if len(bs) == 0 {
		return 0, 0
	}
	total := bs[len(bs)-1].cum - cumAt(before.buckets[fam], math.Inf(1))
	rank := math.Ceil(q * total)
	for _, b := range bs {
		if b.cum-cumAt(before.buckets[fam], b.le) >= rank {
			return b.le, total
		}
	}
	return bs[len(bs)-1].le, total
}

// answerBook checks daemon answers: every response for a pair must be
// byte-identical to the first one, and sampled first answers are kept
// for the in-process re-solve.
type answerBook struct {
	mu      sync.Mutex
	first   map[string][sha256.Size]byte
	jobDone map[string]bool
	samples []sampledAnswer
}

type sampledAnswer struct {
	body   []byte
	result json.RawMessage
}

// clientStats is what one closed-loop client measured.
type clientStats struct {
	latency map[string][]float64 // per class, ms
	all     []float64
	bodies  [][]byte
}

// runDaemon drives the daemon-mix workload.
func runDaemon(cfg config, o *outcome) error {
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
	defer client.CloseIdleConnections()

	var setups []float64
	var d *daemon
	for i := 0; i < setupSpawns; i++ {
		nd, setup, err := spawnDaemon(cfg.batlifed, client)
		if err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
		if i < setupSpawns-1 {
			client.CloseIdleConnections()
			code, err := nd.stop()
			if err != nil {
				return err
			}
			o.check("set-up daemon drain exit code", exitWhy(code))
			continue
		}
		d = nd
	}
	o.set("setup_s", median(setups))
	o.note("setup_s", "median of %d daemon spawns until /readyz 200", len(setups))

	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	models, err := catalogue()
	if err != nil {
		return err
	}
	gen := newGenerator(models, cfg.seed)
	book := &answerBook{first: make(map[string][sha256.Size]byte), jobDone: make(map[string]bool)}

	before, err := scrape(client, d.base)
	if err != nil {
		return err
	}
	cpu0, err := d.cpuTicks()
	if err != nil {
		return err
	}
	var untraced, total clientStats
	if cfg.trace {
		// One-second windows alternate between untraced and traced
		// clients, so a change of host speed during the run moves both
		// alike.
		var traced clientStats
		for start := time.Now(); time.Since(start) < cfg.seconds; {
			u, _ := drive(client, d.base, gen, book, nil, traceWindow, o)
			tr, _ := drive(client, d.base, gen, book, cfg.tracer, traceWindow, o)
			untraced, traced = merge(untraced, u), merge(traced, tr)
		}
		p0, p1 := median(untraced.all), median(traced.all)
		o.set("trace.overhead_pct", 100*(p1-p0)/p0)
		o.note("trace.overhead_pct", "traced request p50 %.4f ms vs untraced %.4f ms", p1, p0)
		total = merge(untraced, traced)
	} else {
		var elapsed time.Duration
		untraced, elapsed = drive(client, d.base, gen, book, nil, cfg.seconds, o)
		o.set("op_p50_ms", median(untraced.all))
		o.note("op_p50_ms", "median of %d requests, %d closed-loop clients", len(untraced.all), clients)
		o.set("ops_per_s", float64(len(untraced.all))/elapsed.Seconds())
		total = untraced
	}
	after, err := scrape(client, d.base)
	if err != nil {
		return err
	}
	cpu1, err := d.cpuTicks()
	if err != nil {
		return err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	o.set("peak_rss_mb", rss)
	o.note("peak_rss_mb", "daemon VmHWM")

	client.CloseIdleConnections()
	code, err := d.stop()
	stopped = true
	if err != nil {
		return err
	}
	o.check("daemon drain exit code", exitWhy(code))

	resolveSamples(cfg.tracer, book.samples, o)
	if !cfg.trace {
		return nil
	}
	reportDaemonLayers(cfg.tracer, o, total, before, after, float64(cpu1-cpu0))
	return nil
}

func exitWhy(code int) string {
	if code != 0 {
		return fmt.Sprintf("exit code %d after SIGTERM, want 0", code)
	}
	return ""
}

func merge(a, b clientStats) clientStats {
	out := clientStats{latency: make(map[string][]float64)}
	for _, s := range []clientStats{a, b} {
		for c, l := range s.latency {
			out.latency[c] = append(out.latency[c], l...)
		}
		out.all = append(out.all, s.all...)
		out.bodies = append(out.bodies, s.bodies...)
	}
	return out
}

// drive runs the closed loop for the given time: each client sends its
// next request only after reading the previous response in full.
func drive(client *http.Client, base string, gen *generator, book *answerBook, t *tracer, budget time.Duration, o *outcome) (clientStats, time.Duration) {
	var (
		genMu sync.Mutex
		outMu sync.Mutex
		wg    sync.WaitGroup
	)
	per := make([]clientStats, clients)
	start := time.Now()
	deadline := start.Add(budget)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := clientStats{latency: make(map[string][]float64)}
			for time.Now().Before(deadline) {
				genMu.Lock()
				req := gen.next()
				genMu.Unlock()
				book.mu.Lock()
				replayOfDone := book.jobDone[req.job]
				book.mu.Unlock()

				sp := t.root("http." + req.class)
				t0 := time.Now()
				status, body, err := post(client, base+"/v1/solve", req.body)
				lat := time.Since(t0)
				sp.end()

				why := book.verify(req, status, body, err, replayOfDone)
				outMu.Lock()
				o.check(fmt.Sprintf("request %d (%s)", req.seq, req.class), why)
				outMu.Unlock()
				l := ms(lat)
				st.latency[req.class] = append(st.latency[req.class], l)
				st.all = append(st.all, l)
				if len(st.bodies) < decodeSamples/clients && req.seq%7 == 0 {
					st.bodies = append(st.bodies, req.body)
				}
			}
			per[c] = st
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	out := clientStats{latency: make(map[string][]float64)}
	for _, st := range per {
		out = merge(out, st)
	}
	return out, elapsed
}

func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, err
}

// verify checks one response and returns why it is wrong, or "".
func (b *answerBook) verify(req request, status int, body []byte, err error, replayOfDone bool) string {
	if err != nil {
		return err.Error()
	}
	if req.class == classInvalid {
		var e api.ErrorResponse
		if status != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || e.Error == nil || e.Error.Code != "bad_argument" {
			return fmt.Sprintf("status %d body %.200s, want 400 bad_argument", status, body)
		}
		return ""
	}
	if status != http.StatusOK {
		return fmt.Sprintf("status %d body %.200s", status, body)
	}
	var resp struct {
		Coalesced bool            `json:"coalesced"`
		Result    json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return "undecodable response: " + err.Error()
	}
	if why := sane(resp.Result); why != "" {
		return why
	}
	if req.class == classReplay && replayOfDone && !resp.Coalesced {
		return "replay of a finished job was not served from the job store"
	}
	sum := sha256.Sum256(resp.Result)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.jobDone[req.job] = true
	first, seen := b.first[req.pair]
	if !seen {
		b.first[req.pair] = sum
		if req.sample {
			b.samples = append(b.samples, sampledAnswer{body: req.body, result: resp.Result})
		}
		return ""
	}
	if first != sum {
		return "answer differs from the first answer for the same model and times"
	}
	return ""
}

// sane checks a result's shape: a CDF in [0,1] and non-decreasing up to
// ε (see checkCDF), or a positive finite mean.
func sane(raw json.RawMessage) string {
	var r api.SolveResult
	if err := json.Unmarshal(raw, &r); err != nil {
		return "undecodable result: " + err.Error()
	}
	if r.MeanSeconds != nil {
		if m := *r.MeanSeconds; !(m > 0) || math.IsInf(m, 0) {
			return fmt.Sprintf("mean %v", m)
		}
		return ""
	}
	if len(r.EmptyProb) == 0 || len(r.EmptyProb) != len(r.Times) {
		return fmt.Sprintf("%d probabilities for %d times", len(r.EmptyProb), len(r.Times))
	}
	for k, p := range r.EmptyProb {
		if !(p >= 0 && p <= 1) || (k > 0 && p < r.EmptyProb[k-1]-epsilon) {
			return fmt.Sprintf("probability %d = %v not a CDF value", k, p)
		}
	}
	return ""
}

// resolveSamples decodes each sampled request in-process and solves it
// on a local Solver; the answer must equal the daemon's first answer.
func resolveSamples(t *tracer, samples []sampledAnswer, o *outcome) {
	s := batlife.NewSolver(batlife.SolverOptions{})
	defer s.Close()
	for i, smp := range samples {
		what := fmt.Sprintf("in-process re-solve %d", i)
		root := t.root("check")
		sp := root.child("api.decode")
		var req api.SolveRequest
		err := json.Unmarshal(smp.body, &req)
		if err == nil {
			err = req.Validate()
		}
		sp.end()
		if err != nil {
			root.end()
			o.check(what, err.Error())
			continue
		}
		analysis := req.Analysis
		if analysis == "" {
			analysis = api.AnalysisCDF
		}
		sp = root.child("solver." + analysis)
		var res *api.SolveResult
		switch req.Analysis {
		case api.AnalysisMean:
			var mean float64
			mean, err = s.ExpectedLifetime(req.Battery, req.Workload, req.Options)
			res = &api.SolveResult{MeanSeconds: &mean}
		case api.AnalysisExact:
			var d *batlife.Distribution
			if d, err = s.ExactCDF(req.Battery, req.Workload, req.Times, req.Options); err == nil {
				res = api.DistributionResult(d)
			}
		default:
			var d *batlife.Distribution
			if d, err = s.LifetimeDistribution(req.Battery, req.Workload, req.Times, req.Options); err == nil {
				res = api.DistributionResult(d)
			}
		}
		sp.end()
		root.end()
		if err != nil {
			o.check(what, err.Error())
			continue
		}
		local, err := json.Marshal(res)
		if err != nil {
			o.check(what, err.Error())
			continue
		}
		if !bytes.Equal(bytes.TrimSpace(local), bytes.TrimSpace(smp.result)) {
			o.check(what, fmt.Sprintf("daemon %.200s, in-process %.200s", smp.result, local))
			continue
		}
		o.check(what, "")
	}
}

// reportDaemonLayers sets the per-layer metrics of daemon-mix.
func reportDaemonLayers(t *tracer, o *outcome, st clientStats, before, after promSample, cpuTicks float64) {
	n := float64(len(st.all))
	o.set("http.requests", n)
	if p, v, ok := tail(st.all); ok {
		o.set("http.tail_ms", v)
		o.set("http.tail_pct", p)
		o.note("http.tail_ms", "p%g of %d requests", p, len(st.all))
	}
	for _, c := range classes {
		l := st.latency[c]
		name := "http." + c + "_ms"
		scale := 1.0
		if c == classReplay || c == classMemo || c == classInvalid {
			name, scale = "http."+c+"_us", 1e3
		}
		o.set(name, median(l)*scale)
		o.note(name, "median of %d", len(l))
	}

	// In-process decode + Validate + Fingerprint on bodies the clients
	// sent.
	root := t.root("probe")
	var decode []float64
	for _, body := range st.bodies {
		sp := root.child("api.decode")
		t0 := time.Now()
		var req api.SolveRequest
		err := json.Unmarshal(body, &req)
		if err == nil {
			err = req.Validate()
		}
		if err == nil {
			_, err = req.Fingerprint()
		}
		decode = append(decode, float64(time.Since(t0))/1e3)
		sp.end()
		why := ""
		if err != nil {
			why = err.Error()
		}
		o.check("in-process decode", why)
	}
	root.end()
	o.set("api.decode_us", median(decode))
	o.note("api.decode_us", "median of %d bodies", len(decode))

	hits := delta(before, after, "engine_cache_hits_total")
	misses := delta(before, after, "engine_cache_misses_total")
	memo := delta(before, after, "solver_result_memo_hits_total")
	solves := delta(before, after, "solver_solves_total")
	o.set("engine.hits", hits/n)
	o.set("engine.misses", misses/n)
	o.set("engine.evictions", delta(before, after, "engine_cache_evictions_total")/n)
	o.set("engine.hit_ratio", ratio(hits, hits+misses))
	o.set("solver.memo_hits", memo/n)
	o.set("solver.memo_ratio", ratio(memo, solves))
	o.set("ctmc.iterations", delta(before, after, "ctmc_uniformization_iterations_total")/n)
	o.set("ctmc.spmv", delta(before, after, "ctmc_spmv_total")/n)
	builds := delta(before, after, "core_expanded_states_count")
	o.set("core.states", delta(before, after, "core_expanded_states_sum")/n)
	o.set("core.nnz", delta(before, after, "core_expanded_nnz_sum")/n)
	o.set("core.build_ms", 1e3*delta(before, after, "core_build_seconds_sum")/n)
	o.note("core.states", "%.0f builds in %.0f requests", builds, n)
	o.set("service.coalesced", delta(before, after, "service_coalesced_total"))
	o.set("service.rejected", delta(before, after, "service_rejected_total"))
	o.set("daemon.cpu_ms_per_req", 1e3*cpuTicks/clockTicks/n)
	for _, p := range tailPercentiles {
		v, count := histQuantile(before, after, "service_queue_wait_seconds", p/100)
		if supports(count, p) {
			o.set("service.queue_wait_ms", v*1e3)
			o.note("service.queue_wait_ms", "p%g of %.0f queue waits (bucket upper bound)", p, count)
			break
		}
	}
}
