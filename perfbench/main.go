// Command perfbench is the repository benchmark. It drives one of three
// workloads against the solver stack, times it end to end (untraced) or
// layer by layer (traced), checks every answer, and prints each metric
// by name and unit, ending with one JSON result line:
//
//	perfbench -workload cold-ladder|daemon-mix|sweep-grid -seed N -seconds S -trace 0|1 \
//	    -batlifed path/to/batlifed [-out dir]
//
// run.sh builds the daemon and this program from source and runs it;
// README.md explains the workloads and metrics. The exit status is 0
// when every answer check passed, 1 when one failed, 2 on usage or
// set-up errors.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"batlife"
)

// refTolerance is the absolute tolerance on recorded reference CDF
// values: far below any visible change in an answer, far above the
// ε = 1e-12 truncation, so a change that re-pins results within ε
// passes and a wrong answer does not.
const refTolerance = 1e-9

// setupProbes is how many processes a library workload starts to time
// its set-up.
const setupProbes = 7

//go:embed reference.json
var referenceJSON []byte

// referenceSet holds CDF values recorded from the solver, by scenario.
type referenceSet struct {
	Ladder map[string][]float64 `json:"ladder"`
	Sweep  map[string][]float64 `json:"sweep"`
}

var references referenceSet

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	tracer   *tracer
	batlifed string
	out      string
}

var workloadNames = []string{"cold-ladder", "daemon-mix", "sweep-grid"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed     = fs.Int64("seed", 1, "workload seed")
		seconds  = fs.Int("seconds", 30, "measured seconds")
		trace    = fs.Int("trace", 0, "1 for the traced per-layer run")
		batlifed = fs.String("batlifed", "", "batlifed binary (daemon-mix)")
		out      = fs.String("out", ".bench_build", "directory for span files")
		probe    = fs.String("setup-probe", "", "internal: build a workload's inputs, print ready, exit")
		writeRef = fs.String("write-reference", "", "solve every checked scenario once and write reference values to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *probe != "" {
		if err := setupFor(*probe); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		fmt.Fprintln(stdout, "ready")
		return 0
	}
	if *writeRef != "" {
		if err := writeReference(*writeRef); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		return 0
	}
	if err := json.Unmarshal(referenceJSON, &references); err != nil {
		fmt.Fprintln(stderr, "perfbench: reference values:", err)
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		batlifed: *batlifed,
		out:      *out,
	}
	if cfg.trace {
		cfg.tracer = newTracer()
	}
	o := newOutcome()
	var err error
	switch cfg.workload {
	case "cold-ladder":
		err = withSetupProbes(cfg, o, runLadder)
	case "sweep-grid":
		err = withSetupProbes(cfg, o, runSweep)
	case "daemon-mix":
		if cfg.batlifed == "" {
			err = errors.New("daemon-mix needs -batlifed")
		} else {
			err = runDaemon(cfg, o)
		}
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		o.set("check.failed_frac", ratio(float64(o.failed), float64(o.attempted)))
		spans := cfg.tracer.records()
		o.set("trace.spans", float64(len(spans)))
		printLayers(stdout, spans)
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
		if err := writeSpans(path, spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		fmt.Fprintf(stdout, "# spans written to %s\n", path)
	}
	fmt.Fprintf(stdout, "# workload %s, seed %d, %v, trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	rep := o.finish(stdout, defs)
	if err := rep.write(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// withSetupProbes times the set-up of a library workload — a fresh
// process building the workload's inputs until it can start the first
// operation — then runs the workload itself.
func withSetupProbes(cfg config, o *outcome, body func(config, *outcome) error) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		d, err := probeOnce(self, cfg.workload)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	o.set("setup_s", median(setups))
	o.note("setup_s", "median of %d process starts until ready", len(setups))
	return body(cfg, o)
}

// probeOnce starts one set-up probe process and returns the time until
// it reports ready.
func probeOnce(self, workload string) (time.Duration, error) {
	cmd := exec.Command(self, "-setup-probe", workload)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	d := time.Since(start)
	io.Copy(io.Discard, stdout)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	if readErr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up probe printed %q", line)
	}
	return d, nil
}

func setupFor(workload string) error {
	switch workload {
	case "cold-ladder":
		return ladderSetup()
	case "sweep-grid":
		return sweepSetup()
	}
	return fmt.Errorf("no set-up probe for %q", workload)
}

// writeReference solves every ladder rung and sweep scenario once on a
// fresh Solver and writes the CDFs as the reference the runs check
// against.
func writeReference(path string) error {
	w, err := newWorkloads()
	if err != nil {
		return err
	}
	set := referenceSet{Ladder: map[string][]float64{}, Sweep: map[string][]float64{}}
	for _, group := range []struct {
		ps  []problem
		dst map[string][]float64
	}{{ladder(w), set.Ladder}, {sweepGrid(w), set.Sweep}} {
		for _, p := range group.ps {
			s := batlife.NewSolver(batlife.SolverOptions{})
			d, err := s.LifetimeDistribution(p.battery, p.workload, p.times,
				batlife.AnalysisOptions{Delta: p.delta, Epsilon: epsilon})
			s.Close()
			if err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
			group.dst[p.name] = d.EmptyProb
		}
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
