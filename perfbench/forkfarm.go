package main

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/cpu"
	"repro/internal/progs"
	"repro/internal/taint"
)

// farmSessions is the fork-farm round size: enough sessions that the
// reported tail (p99) has ten beyond it.
const farmSessions = 1000

// farmWorkers is the campaign pool width of the timed rounds.
const farmWorkers = 2

// farmScenario is the replayed attack session: login, then the SITE EXEC
// %n format-string payload.
const farmScenario = "wuftpd-site-exec"

type farmInst struct {
	cfg  runConfig
	sc   attack.Scenario
	snap *attack.Snapshot
	base cpu.Stats
	// per-session counters written by the pool's workers, one slot each.
	cow    []uint64
	ends   []time.Duration // callback returns, from round start
	taken  []time.Duration // ends sorted: when later indices were taken
	wantFP string
	rounds int
	errs   []error
	total  cpu.Stats
	cowSum uint64
	last   []campaign.Result // the latest round, checked by between
}

// bootFarm builds wuftpd without the corpus image cache, boots it under
// policy, runs it to its accept() and snapshots it there.
func bootFarm(tr *tracer, policy taint.Policy) (*attack.Snapshot, error) {
	p, ok := progs.ByName("wuftpd")
	if !ok {
		return nil, fmt.Errorf("wuftpd missing from the corpus")
	}
	im, err := buildImage(tr, p)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("attack.boot", 0, 0)
	// The scenario's own budget: a few attack sessions' worth.
	m, err := attack.BootImage(p.Name, im, attack.Options{Policy: policy, Budget: 20_000_000})
	if err == nil {
		err = m.RunToBlock()
	}
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("boot wuftpd: %w", err)
	}
	return m.Snapshot()
}

func prepareFarm(cfg runConfig) (func() (instance, error), error) {
	// The attacker's payload calibration is a process-wide one-time cost
	// of the attack package, paid before any measured set-up.
	if _, _, err := attack.CalibrateWuFTPDFormat(); err != nil {
		return nil, err
	}
	return func() (instance, error) { return setupFarm(cfg) }, nil
}

func setupFarm(cfg runConfig) (instance, error) {
	sc, ok := attack.ScenarioByName(farmScenario)
	if !ok {
		return nil, fmt.Errorf("scenario %s missing", farmScenario)
	}
	snap, err := bootFarm(cfg.tr, taint.PolicyPointerTaintedness)
	if err != nil {
		return nil, err
	}
	return &farmInst{cfg: cfg, sc: sc, snap: snap, base: snap.Stats(),
		cow: make([]uint64, farmSessions), ends: make([]time.Duration, farmSessions)}, nil
}

// campaignRound replays n sessions on workers and returns the results.
// With lat nil (check and scaling rounds) it records no latencies or spans.
//
// A session's latency runs from the moment its worker took the session's
// index to the return of its callback, so it holds the pool's fork of the
// snapshot and the capture of the worker's previous result. The pool
// hands out indices in order, each to the worker that finished its
// previous slot first: the first `workers` indices go out when the round
// starts, and index workers+k to the worker whose callback returned k-th.
func (f *farmInst) campaignRound(snap *attack.Snapshot, n, workers int, lat []time.Duration) []campaign.Result {
	tr := f.cfg.tr
	if lat == nil {
		tr = nil
	}
	ends := f.ends[:n]
	pool := tr.begin("campaign.run_guarded", 0, 0)
	t0 := time.Now()
	rs, _ := campaign.RunGuarded(snap, n, workers, campaign.GuardOpts{},
		func(i int, m *attack.Machine) (attack.Outcome, error) {
			sp := tr.begin("attack.session", 1+i%workers, pool)
			out, err := f.sc.Session(m)
			tr.end(sp)
			if lat != nil {
				ends[i] = time.Since(t0)
				f.cow[i] = m.Mem.COWFaults()
			}
			return out, err
		})
	tr.end(pool)
	if lat != nil {
		taken := append(f.taken[:0], ends...)
		slices.Sort(taken)
		for i := range lat {
			lat[i] = ends[i]
			if i >= workers {
				lat[i] -= taken[i-workers]
			}
		}
		f.taken = taken
	}
	return rs
}

func (f *farmInst) round(lat []time.Duration) (uint64, int, error) {
	rs := f.campaignRound(f.snap, farmSessions, farmWorkers, lat)
	var instrs uint64
	for i, r := range rs {
		if r.Err != nil {
			return 0, 0, fmt.Errorf("session %d: %w", i, r.Err)
		}
		instrs += r.Stats.Instructions - f.base.Instructions
	}
	f.last = rs
	return instrs, 0, nil
}

func (f *farmInst) between() error {
	if f.last == nil {
		return nil
	}
	for i, r := range f.last {
		f.total = addStats(f.total, subStats(r.Stats, f.base))
		f.cowSum += f.cow[i]
		f.check(i, r)
	}
	f.last = nil
	f.rounds++
	return nil
}

// check asserts the paper's property on one session: pointer taintedness
// detects the %n write inside vfprintf. Every session must also render
// the same fingerprint (verdict, alert and full counter set).
func (f *farmInst) check(i int, r campaign.Result) {
	o := r.Outcome
	if !o.Detected || o.Alert == nil || o.Alert.Symbol != "vfprintf" {
		f.errs = append(f.errs, checkf("session %d: want a detection in vfprintf, got %s", i, o))
		return
	}
	fp := campaign.SessionFingerprint(r)
	if f.wantFP == "" {
		f.wantFP = fp
	} else if fp != f.wantFP {
		f.errs = append(f.errs, checkf("session %d: fingerprint %q differs from %q", i, fp, f.wantFP))
	}
}

func (f *farmInst) verify() error {
	if len(f.errs) > 0 {
		return f.errs[0]
	}
	// The same sessions on one worker must give identical fingerprints.
	for i, r := range f.campaignRound(f.snap, 64, 1, nil) {
		if r.Err != nil {
			return fmt.Errorf("1-worker session %d: %w", i, r.Err)
		}
		if fp := campaign.SessionFingerprint(r); fp != f.wantFP {
			return checkf("1-worker session %d: fingerprint %q, 2-worker %q", i, fp, f.wantFP)
		}
	}
	// The control-data-only baseline misses the %n write, and the attack
	// lands: the uid is overwritten.
	snap, err := bootFarm(nil, taint.PolicyControlDataOnly)
	if err != nil {
		return err
	}
	for i, r := range f.campaignRound(snap, 4, 1, nil) {
		o := r.Outcome
		if r.Err != nil || o.Detected || !o.Compromised || !strings.Contains(o.Evidence, "uid overwritten") {
			return checkf("control-data-only session %d: want undetected and compromised (uid overwritten), got %s (err %v)", i, o, r.Err)
		}
	}
	return nil
}

func (f *farmInst) layers(m map[string]float64) error {
	tr := f.cfg.tr
	sessions := float64(f.rounds * farmSessions)
	lt := tr.selfTimes()
	cpuShares(m, f.total)
	m["cpu.block_misses_per_session"] = float64(f.total.BlockMisses) / sessions
	m["mem.cow_faults_per_session"] = float64(f.cowSum) / sessions
	sess := lt["attack.session"]
	m["attack.session_ms"] = float64(sess.total) / float64(sess.count) / 1e6
	// Pool overhead: worker time not spent inside session callbacks
	// (fork, result capture, scheduling), per session of the timed phase.
	pool := lt["campaign.run_guarded"]
	m["campaign.pool_us_per_session"] = (float64(pool.total)*farmWorkers - float64(sess.total)) / float64(sess.count) / 1e3
	m["attack.boot_ms"] = meanSelf(lt, "attack.boot", time.Millisecond)
	m["cc.compile_ms"] = meanSelf(lt, "cc.compile", time.Millisecond)
	m["asm.assemble_ms"] = meanSelf(lt, "asm.assemble", time.Millisecond)
	m["analysis.analyze_ms"] = meanSelf(lt, "analysis.analyze", time.Millisecond)

	// Fork cost alone, and the pool's scaling from one worker to two,
	// measured after the timed phase.
	const forks = 2000
	sp := tr.begin("attack.fork", 0, 0)
	for i := 0; i < forks; i++ {
		_ = f.snap.Fork()
	}
	tr.end(sp)
	m["attack.fork_us"] = float64(tr.selfTimes()["attack.fork"].total) / forks / 1e3
	// Rounds of 1 and 2 workers alternate, so drift hits both alike.
	var rate [3][]float64
	for rep := 0; rep < 3; rep++ {
		for _, w := range []int{1, 2} {
			t0 := time.Now()
			f.campaignRound(f.snap, farmSessions, w, nil)
			rate[w] = append(rate[w], farmSessions/time.Since(t0).Seconds())
		}
	}
	m["campaign.parallel_speedup"] = median(rate[2]) / median(rate[1])
	return nil
}

// subStats is a minus b on the counters addStats sums.
func subStats(a, b cpu.Stats) cpu.Stats {
	a.Instructions -= b.Instructions
	a.BlockMisses -= b.BlockMisses
	a.SuperblockInstrs -= b.SuperblockInstrs
	a.SuperblockDeopts -= b.SuperblockDeopts
	a.TaintedSteps -= b.TaintedSteps
	a.StaticCleanSkips -= b.StaticCleanSkips
	return a
}

func (f *farmInst) close() {}
