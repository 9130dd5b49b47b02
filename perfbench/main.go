// Command perfbench is the repository's benchmark: one command that runs a
// named workload for a fixed number of seconds in whole rounds of a fixed
// session count, checks every output against an oracle made apart from
// the program, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a separate traced run) as one JSON line.
//
//	perfbench --workload spec-tainted --seed 1 --seconds 10 --trace 0
//	perfbench steady --runs 10
//
// A run measures its cold set-ups in a child process of the same binary
// (perfbench setups --workload W --seed N), so the set-ups it discards
// leave nothing behind in the measured process's heap or caches.
//
// See README.md for the workloads, metrics, seeds and reference figures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// workload is one benchmark input set.
type workload struct {
	name string
	// sessions is the fixed session count of one round.
	sessions int
	// setups is how many cold set-ups the set-up child measures;
	// setup_s is their median.
	setups int
	// prepare makes the seeded inputs and oracles once per process and
	// returns the set-up to measure.
	prepare func(cfg runConfig) (setup func() (instance, error), err error)
}

// runConfig is what a workload's set-up receives.
type runConfig struct {
	seed int64
	tr   *tracer // nil in untraced runs
	// setupOnly marks the set-up child: prepare may skip the oracles,
	// since no round runs.
	setupOnly bool
}

// instance is one set-up workload, ready to run rounds.
type instance interface {
	// round runs one whole round of sessions, storing one latency per
	// session in lat (len(lat) == sessions). It returns the guest
	// instructions the sessions themselves retired and the number of
	// extra non-session operations (scrapes) it performed.
	round(lat []time.Duration) (instrs uint64, extraOps int, err error)
	// between runs outside the timed and allocation-counted window after
	// every round and before the first: it checks the round's outputs and
	// makes the next round's inputs.
	between() error
	// verify checks the outputs of every round run so far, plus the
	// workload's paper properties. It runs outside the timed phase.
	verify() error
	// layers fills the per-layer metrics after a traced run.
	layers(m map[string]float64) error
	close()
}

// timedPhase sums the Go-runtime counters over the timed rounds' windows
// only, so work between rounds (checks, input making) is left out.
type timedPhase struct {
	sessions       int
	mallocs, numGC uint64
	gcCPU, cpu     float64
}

var workloads = []workload{
	{name: "spec-tainted", sessions: specSessions, setups: 25, prepare: prepareSpec},
	{name: "fork-farm", sessions: farmSessions, setups: 61, prepare: prepareFarm},
	{name: "serve-mixed", sessions: serveSessions, setups: 121, prepare: prepareServe},
}

// endToEnd names the end-to-end metrics in output order with their units.
var endToEnd = []struct{ name, unit string }{
	{"sessions_per_s", "1/s"},
	{"session_p50_ms", "ms"},
	{"session_tail_ms", "ms"},
	{"guest_mips", "Minstr/s"},
	{"alloc_kb_per_session", "KiB"},
	{"heap_live_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer names every per-layer metric with its unit. A traced run of
// any workload prints all of them; a layer the workload never calls reads
// 0 (README.md lists where each one applies).
var perLayer = []struct{ name, unit string }{
	{"cpu.sb_ns_per_instr", "ns"},
	{"cpu.block_ns_per_instr", "ns"},
	{"cpu.sb_speedup_vs_ref", "x"},
	{"cpu.block_speedup_vs_ref", "x"},
	{"cpu.sb_instr_share", "ratio"},
	{"cpu.tainted_step_share", "ratio"},
	{"cpu.static_skip_share", "ratio"},
	{"cpu.sb_deopts_per_minstr", "1/Minstr"},
	{"cpu.block_misses_per_session", "count"},
	{"attack.fork_us", "us"},
	{"attack.session_ms", "ms"},
	{"attack.boot_ms", "ms"},
	{"mem.cow_faults_per_session", "count"},
	{"campaign.parallel_speedup", "x"},
	{"campaign.pool_us_per_session", "us"},
	{"runtime.mallocs_per_session", "count"},
	{"runtime.gc_per_ksession", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"cc.compile_ms", "ms"},
	{"asm.assemble_ms", "ms"},
	{"analysis.analyze_ms", "ms"},
	{"fault.runs_per_s", "1/s"},
	{"fuzz.execs_per_s", "1/s"},
	{"fuzz.admit_ratio", "ratio"},
	{"serve.admit_us", "us"},
	{"serve.queue_ms", "ms"},
	{"serve.snapshot_fork_ms", "ms"},
	{"serve.guest_run_ms", "ms"},
	{"serve.settle_us", "us"},
	{"serve.http_us", "us"},
	{"serve.scrape_ms", "ms"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	// Failed stays 0: every workload's operations are expected to
	// succeed, and a failed session or check fails the whole run.
	Failed  int               `json:"failed"`
	Metrics map[string]metric `json:"metrics"`
}

// runInfo is printed on the line before the result, so every figure
// carries its host, seed and sizes.
type runInfo struct {
	Workload         string    `json:"workload"`
	Seed             int64     `json:"seed"`
	Traced           bool      `json:"traced"`
	Host             hostInfo  `json:"host"`
	SessionsPerRound int       `json:"sessions_per_round"`
	TailPercentile   float64   `json:"tail_percentile"`
	TimedRounds      int       `json:"timed_rounds"`
	RoundRates       []float64 `json:"round_sessions_per_s"`
	SetupSeconds     []float64 `json:"setup_seconds"`
	TracePath        string    `json:"trace_path,omitempty"`
	// TracedEndToEnd holds a traced run's own end-to-end figures; set
	// against an untraced run's they give the tracing overhead.
	TracedEndToEnd map[string]float64 `json:"traced_end_to_end,omitempty"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			if err := steady(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench steady:", err)
				os.Exit(1)
			}
			return
		case "setups":
			if err := setups(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench setups:", err)
				os.Exit(1)
			}
			return
		}
	}
	name := flag.String("workload", "", "workload: spec-tainted, fork-farm or serve-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds (whole rounds, at least 3)")
	traced := flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	wl, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, info, err := run(*wl, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		var ce *checkError
		if !errors.As(err, &ce) {
			os.Exit(1)
		}
		res.Correct = false
	}
	infoLine, _ := json.Marshal(map[string]any{"info": info})
	fmt.Println(string(infoLine))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// setups is the set-up child: it prepares the workload, runs one
// untimed set-up so process-wide caches are in the same state for every
// timed one, then times wl.setups cold set-ups and prints their seconds
// as one JSON array.
func setups(args []string) error {
	fs := flag.NewFlagSet("setups", flag.ContinueOnError)
	name := fs.String("workload", "", "workload")
	seed := fs.Int64("seed", 1, "input seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, err := workloadByName(*name)
	if err != nil {
		return err
	}
	setup, err := wl.prepare(runConfig{seed: *seed, setupOnly: true})
	if err != nil {
		return err
	}
	var secs []float64
	for i := 0; i <= wl.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		inst, err := setup()
		d := time.Since(t0)
		if err != nil {
			return err
		}
		inst.close()
		if i > 0 {
			secs = append(secs, d.Seconds())
		}
	}
	line, err := json.Marshal(secs)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// childSetups runs the set-up child for wl and returns its set-up times.
func childSetups(wl workload, seed int64) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "setups", "--workload", wl.name, "--seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("set-up child: %w", err)
	}
	var secs []float64
	if err := json.Unmarshal(out, &secs); err != nil || len(secs) == 0 {
		return nil, fmt.Errorf("set-up child printed %q", out)
	}
	return secs, nil
}

// checkError marks a failed correctness check: the run still prints its
// result, with correct=false, and exits non-zero.
type checkError struct{ err error }

func (e *checkError) Error() string { return "correctness check failed: " + e.err.Error() }
func (e *checkError) Unwrap() error { return e.err }

func checkf(format string, args ...any) error {
	return &checkError{fmt.Errorf(format, args...)}
}

func run(wl workload, seed int64, seconds time.Duration, traced bool) (result, runInfo, error) {
	res := result{Correct: true, Metrics: make(map[string]metric)}
	info := runInfo{Workload: wl.name, Seed: seed, Traced: traced, Host: host(),
		SessionsPerRound: wl.sessions, TailPercentile: tailPercentile(wl.sessions)}
	cfg := runConfig{seed: seed}
	if traced {
		cfg.tr = newTracer()
	}

	setup, err := wl.prepare(cfg)
	if err != nil {
		return res, info, fmt.Errorf("prepare %s: %w", wl.name, err)
	}
	// setup_s comes from cold set-ups in a child process, each through
	// the uncached builders; this process sets up once, for the rounds.
	if info.SetupSeconds, err = childSetups(wl, seed); err != nil {
		return res, info, err
	}
	inst, err := setup()
	if err != nil {
		return res, info, fmt.Errorf("setup %s: %w", wl.name, err)
	}
	defer inst.close()

	lat := make([]time.Duration, wl.sessions)
	rounds := make([]roundStats, 0, 4096)
	attempted := 0
	// One untimed warm-up round fills the program's caches; its outputs
	// are checked like every other round's.
	if err := inst.between(); err != nil {
		return res, info, err
	}
	_, extra, err := inst.round(lat)
	if err != nil {
		return res, info, err
	}
	attempted += wl.sessions + extra
	if err := inst.between(); err != nil {
		return res, info, err
	}

	runtime.GC()
	var phase timedPhase
	start := time.Now()
	for len(rounds) < 3 || time.Since(start) < seconds {
		g0 := readGC()
		t0 := time.Now()
		instrs, extra, err := inst.round(lat)
		wall := time.Since(t0)
		g1 := readGC()
		if err != nil {
			return res, info, err
		}
		p50, tail := summarize(lat)
		rounds = append(rounds, roundStats{wall: wall, sessions: wl.sessions, instrs: instrs,
			p50: p50, tail: tail, allocBytes: g1.totalAlloc - g0.totalAlloc})
		attempted += wl.sessions + extra
		phase.sessions += wl.sessions
		phase.mallocs += g1.mallocs - g0.mallocs
		phase.numGC += uint64(g1.numGC - g0.numGC)
		phase.gcCPU += g1.gcCPU - g0.gcCPU
		phase.cpu += g1.totalCPU - g0.totalCPU
		if err := inst.between(); err != nil {
			return res, info, err
		}
	}
	runtime.GC()
	var msEnd runtime.MemStats
	runtime.ReadMemStats(&msEnd)

	info.TimedRounds = len(rounds)
	for _, r := range rounds {
		info.RoundRates = append(info.RoundRates, math.Round(float64(r.sessions)/r.wall.Seconds()*10)/10)
	}
	res.Attempted = attempted

	if err := inst.verify(); err != nil {
		return res, info, err
	}

	per := func(f func(r roundStats) float64) float64 {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = f(r)
		}
		return median(xs)
	}
	vals := map[string]float64{
		"sessions_per_s":  per(func(r roundStats) float64 { return float64(r.sessions) / r.wall.Seconds() }),
		"session_p50_ms":  per(func(r roundStats) float64 { return float64(r.p50) / 1e6 }),
		"session_tail_ms": per(func(r roundStats) float64 { return float64(r.tail) / 1e6 }),
		"guest_mips":      per(func(r roundStats) float64 { return float64(r.instrs) / r.wall.Seconds() / 1e6 }),
		"alloc_kb_per_session": per(func(r roundStats) float64 {
			return float64(r.allocBytes) / float64(r.sessions) / 1024
		}),
		"heap_live_mb": float64(msEnd.HeapAlloc) / 1e6,
		"setup_s":      median(info.SetupSeconds),
	}
	if !traced {
		for _, e := range endToEnd {
			res.Metrics[e.name] = metric{Value: vals[e.name], Unit: e.unit}
		}
		return res, info, nil
	}
	info.TracedEndToEnd = vals
	m := make(map[string]float64, len(perLayer))
	for _, pl := range perLayer {
		m[pl.name] = 0
	}
	if err := inst.layers(m); err != nil {
		return res, info, err
	}
	runtimeLayers(m, phase)
	for _, pl := range perLayer {
		res.Metrics[pl.name] = metric{Value: m[pl.name], Unit: pl.unit}
	}
	info.TracePath = fmt.Sprintf(".bench_build/traces/%s-seed%d.json", wl.name, seed)
	if err := cfg.tr.writeChrome(info.TracePath); err != nil {
		return res, info, fmt.Errorf("write trace: %w", err)
	}
	return res, info, nil
}

// runtimeLayers fills the Go-runtime per-layer metrics from the timed
// phase's sums.
func runtimeLayers(m map[string]float64, ph timedPhase) {
	m["runtime.mallocs_per_session"] = float64(ph.mallocs) / float64(ph.sessions)
	m["runtime.gc_per_ksession"] = 1000 * float64(ph.numGC) / float64(ph.sessions)
	if ph.cpu > 0 {
		m["runtime.gc_cpu_share"] = ph.gcCPU / ph.cpu
	}
}
