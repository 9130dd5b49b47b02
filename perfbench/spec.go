package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/attack"
	"repro/internal/cc"
	"repro/internal/cpu"
	"repro/internal/progs"
	"repro/internal/rtl"
	"repro/internal/taint"
)

// specVariants is how many seeded inputs each SPEC analogue gets; one
// round runs every (program, input) pair once.
const specVariants = 10

// specSessions is the spec-tainted round size: six programs × variants.
const specSessions = 6 * specVariants

// specCase is one (program, input) session with its expected output.
type specCase struct {
	prog  int // index into the suite
	input []byte
	want  string // the model's summary line
}

// specRun is what the default engine produced for one case.
type specRun struct {
	stdout string
	stats  cpu.Stats
}

type specInst struct {
	cfg    runConfig
	suite  []progs.Program
	images []*asm.Image
	cases  []specCase
	first  []specRun // the first round's results, the reference for later rounds
	rounds int
	errs   []error
	// totals over every session run, for the cpu layer shares.
	total cpu.Stats
}

// buildImage compiles and links a corpus program exactly as rtl.Build
// does, without the corpus image cache, so every set-up pays the compile.
// A traced run also times the static analysis on its own; the boot that
// follows runs it again to install the facts.
func buildImage(tr *tracer, p progs.Program) (*asm.Image, error) {
	sp := tr.begin("cc.compile", 0, 0)
	gen, err := cc.CompileProgram(cc.Unit{Name: "libc.c", Src: rtl.LibC}, cc.Unit{Name: p.Name + ".c", Src: p.Source})
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", p.Name, err)
	}
	sp = tr.begin("asm.assemble", 0, 0)
	im, err := asm.Assemble(asm.Source{Name: "crt0.s", Text: rtl.Crt0Libc}, gen)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("assemble %s: %w", p.Name, err)
	}
	if tr != nil {
		sp = tr.begin("analysis.analyze", 0, 0)
		_, err := analysis.Analyze(im, taint.Propagator{})
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("analyze %s: %w", p.Name, err)
		}
	}
	return im, nil
}

// specCases generates the seeded inputs and their model outputs.
func specCases(seed int64, suite []progs.Program) []specCase {
	var cs []specCase
	for v := 0; v < specVariants; v++ {
		for i, p := range suite {
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(v)*101 + int64(i)))
			in := specInput(p.Name, rng)
			cs = append(cs, specCase{prog: i, input: in, want: specModel(p.Name, in)})
		}
	}
	return cs
}

func prepareSpec(cfg runConfig) (func() (instance, error), error) {
	cases := specCases(cfg.seed, progs.SpecSuite())
	return func() (instance, error) { return setupSpec(cfg, cases) }, nil
}

func setupSpec(cfg runConfig, cases []specCase) (instance, error) {
	suite := progs.SpecSuite()
	s := &specInst{cfg: cfg, suite: suite, cases: cases}
	for _, p := range suite {
		im, err := buildImage(cfg.tr, p)
		if err != nil {
			return nil, err
		}
		// The first boot of a fresh image runs the static analysis and
		// installs its facts; sessions then boot from the warm fact cache.
		sp := cfg.tr.begin("attack.boot_cold", 0, 0)
		_, err = attack.BootImage(p.Name, im, attack.Options{Policy: taint.PolicyPointerTaintedness})
		cfg.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("boot %s: %w", p.Name, err)
		}
		s.images = append(s.images, im)
	}
	return s, nil
}

// runCase boots a fresh machine on one case and runs it to exit.
func (s *specInst) runCase(c specCase, opts attack.Options, parent int) (specRun, error) {
	p := s.suite[c.prog]
	opts.Policy = taint.PolicyPointerTaintedness
	opts.Files = map[string][]byte{"/input": c.input}
	sp := s.cfg.tr.begin("attack.boot", 0, parent)
	m, err := attack.BootImage(p.Name, s.images[c.prog], opts)
	s.cfg.tr.end(sp)
	if err != nil {
		return specRun{}, fmt.Errorf("boot %s: %w", p.Name, err)
	}
	sp = s.cfg.tr.begin("cpu.run", 0, parent)
	err = m.Run()
	s.cfg.tr.end(sp)
	if err != nil {
		return specRun{}, fmt.Errorf("run %s: %w", p.Name, err)
	}
	return specRun{stdout: m.Kernel.Stdout(), stats: m.CPU.Stats()}, nil
}

func (s *specInst) round(lat []time.Duration) (uint64, int, error) {
	var instrs uint64
	for i, c := range s.cases {
		t0 := time.Now()
		sp := s.cfg.tr.begin("attack.session", 0, 0)
		r, err := s.runCase(c, attack.Options{}, sp)
		s.cfg.tr.end(sp)
		lat[i] = time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		instrs += r.stats.Instructions
		s.total = addStats(s.total, r.stats)
		s.check(i, r)
	}
	s.rounds++
	return instrs, 0, nil
}

// check compares one session against the model and the first round.
func (s *specInst) check(i int, r specRun) {
	c := s.cases[i]
	name := s.suite[c.prog].Name
	st := r.stats
	switch {
	case r.stdout != c.want:
		s.errs = append(s.errs, checkf("%s input %d: stdout %q, model says %q", name, i, r.stdout, c.want))
	case st.Alerts != 0:
		s.errs = append(s.errs, checkf("%s input %d: %d false-positive alerts", name, i, st.Alerts))
	case st.CleanSkips+st.TaintedSteps != st.Instructions:
		s.errs = append(s.errs, checkf("%s input %d: CleanSkips %d + TaintedSteps %d != Instructions %d",
			name, i, st.CleanSkips, st.TaintedSteps, st.Instructions))
	}
	if len(s.first) <= i {
		s.first = append(s.first, r)
	} else if s.first[i].stats != st {
		s.errs = append(s.errs, checkf("%s input %d: counters differ between rounds", name, i))
	}
}

func (s *specInst) verify() error {
	if len(s.errs) > 0 {
		return s.errs[0]
	}
	// The reference interpreter must agree with the default engine on
	// every input: same stdout, same retired-instruction count.
	for i, c := range s.cases {
		ref, err := s.runCase(c, attack.Options{Reference: true}, 0)
		if err != nil {
			return err
		}
		fast := s.first[i]
		name := s.suite[c.prog].Name
		if ref.stdout != fast.stdout || ref.stats.Instructions != fast.stats.Instructions {
			return checkf("%s input %d: reference engine printed %q in %d instructions, default engine %q in %d",
				name, i, ref.stdout, ref.stats.Instructions, fast.stdout, fast.stats.Instructions)
		}
		if ref.stats.Alerts != 0 {
			return checkf("%s input %d: reference engine raised %d alerts", name, i, ref.stats.Alerts)
		}
	}
	return nil
}

// tierCases is how many inputs per program the traced run replays on
// each engine tier.
const tierCases = 2

func (s *specInst) layers(m map[string]float64) error {
	tr := s.cfg.tr
	// Replay a slice of the inputs on each tier: superblocks (the default
	// engine), basic blocks only, and the reference interpreter.
	var instrs uint64
	tiers := []struct {
		span  string
		opts  attack.Options
		sbOff bool
	}{
		{"cpu.tier.sb", attack.Options{}, false},
		{"cpu.tier.block", attack.Options{}, true},
		{"cpu.tier.ref", attack.Options{Reference: true}, false},
	}
	for ti, t := range tiers {
		for i, c := range s.cases[:tierCases*len(s.suite)] {
			p := s.suite[c.prog]
			opts := t.opts
			opts.Policy = taint.PolicyPointerTaintedness
			opts.Files = map[string][]byte{"/input": c.input}
			mach, err := attack.BootImage(p.Name, s.images[c.prog], opts)
			if err != nil {
				return err
			}
			if t.sbOff {
				mach.CPU.SetSuperblocks(false)
			}
			sp := tr.begin(t.span, 1, 0)
			err = mach.Run()
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s tier %s: %w", p.Name, t.span, err)
			}
			if got := mach.CPU.Stats().Instructions; got != s.first[i].stats.Instructions {
				return checkf("%s: tier %s retired %d instructions, default engine %d", p.Name, t.span, got, s.first[i].stats.Instructions)
			}
			if ti == 0 {
				instrs += mach.CPU.Stats().Instructions
			}
		}
	}
	lt := tr.selfTimes()
	nsPer := func(span string) float64 { return float64(lt[span].total) / float64(instrs) }
	sb, block, ref := nsPer("cpu.tier.sb"), nsPer("cpu.tier.block"), nsPer("cpu.tier.ref")
	m["cpu.sb_ns_per_instr"] = sb
	m["cpu.block_ns_per_instr"] = block
	m["cpu.sb_speedup_vs_ref"] = ref / sb
	m["cpu.block_speedup_vs_ref"] = ref / block
	cpuShares(m, s.total)
	m["cpu.block_misses_per_session"] = float64(s.total.BlockMisses) / float64(s.rounds*specSessions)
	m["attack.boot_ms"] = meanSelf(lt, "attack.boot", time.Millisecond)
	m["attack.session_ms"] = float64(lt["attack.session"].total) / float64(lt["attack.session"].count) / 1e6
	m["cc.compile_ms"] = meanSelf(lt, "cc.compile", time.Millisecond)
	m["asm.assemble_ms"] = meanSelf(lt, "asm.assemble", time.Millisecond)
	m["analysis.analyze_ms"] = meanSelf(lt, "analysis.analyze", time.Millisecond)
	return nil
}

// cpuShares fills the cpu layer's retirement shares from summed counters.
func cpuShares(m map[string]float64, st cpu.Stats) {
	if st.Instructions == 0 {
		return
	}
	n := float64(st.Instructions)
	m["cpu.sb_instr_share"] = float64(st.SuperblockInstrs) / n
	m["cpu.tainted_step_share"] = float64(st.TaintedSteps) / n
	m["cpu.static_skip_share"] = float64(st.StaticCleanSkips) / n
	m["cpu.sb_deopts_per_minstr"] = float64(st.SuperblockDeopts) / (n / 1e6)
}

// addStats sums the counters the layer metrics use.
func addStats(a, b cpu.Stats) cpu.Stats {
	a.Instructions += b.Instructions
	a.BlockMisses += b.BlockMisses
	a.SuperblockInstrs += b.SuperblockInstrs
	a.SuperblockDeopts += b.SuperblockDeopts
	a.TaintedSteps += b.TaintedSteps
	a.StaticCleanSkips += b.StaticCleanSkips
	return a
}

func (s *specInst) between() error { return nil }

func (s *specInst) close() {}
