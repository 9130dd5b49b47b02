package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fuzz"
	"repro/internal/serve"
	"repro/internal/taint"
)

// serveSessions is the serve-mixed round size; the reported tail is the
// p95 (ten sessions beyond it).
const serveSessions = 200

// serveClients is the number of closed-loop client connections; each is
// its own tenant and waits for every reply before sending again.
const serveClients = 2

// scrapeEvery is the scrape cadence: each client fetches /metrics in the
// Prometheus text format after every scrapeEvery of its own sessions.
const scrapeEvery = 20

// Request sizes of the non-run kinds.
const (
	campaignWidth = 4  // forked sessions per campaign request
	faultRuns     = 16 // injected runs per fault request
	fuzzExecs     = 32 // mutated execs per fuzz request
)

// serveScenarios are the prepared targets the service is configured with.
var serveScenarios = []string{"wuftpd-site-exec", "exp2-heap"}

// serveBlock is the request mix of every 20 sessions; a round is ten
// blocks, each shuffled by the seed. Run-kind sessions are the fastest
// kind and 70% of a round, so the round's median lies among them and
// moves with what only they do: assemble, analyse and boot a new image.
// The 20 fuzz sessions are the slowest kind, so the p95 (the 11th-slowest
// of 200) lies in the middle of that one group, not on a boundary.
var serveBlock = []struct {
	kind, scenario string
	count          int
}{
	{serve.KindRun, "", 14},
	{serve.KindCampaign, "wuftpd-site-exec", 2},
	{serve.KindCampaign, "exp2-heap", 1},
	{serve.KindFault, "wuftpd-site-exec", 1},
	{serve.KindFuzz, "wuftpd-site-exec", 2},
}

// slot is one session of the round's fixed sequence.
type slot struct {
	kind, scenario string
	seed           int64
	variant        int // run kind: image variant
	// want is the expected response body fields; instrs the guest
	// instructions the session retires, from the benchmark's own source.
	wantOutcomes map[string]int
	wantOutcome  string
	instrs       uint64
	runs, execs  int
	corpus       int // fuzz: corpus admissions in the direct call
}

// servePlan is the seeded request sequence shared by every round.
type servePlan struct {
	slots []slot
	seed  int64
}

// sessionResponse is the part of serve.SessionResult the checks read.
type sessionResponse struct {
	Status       string            `json:"status"`
	Outcome      string            `json:"outcome"`
	Outcomes     map[string]int    `json:"outcomes"`
	Fingerprints []string          `json:"fingerprints"`
	Retries      int               `json:"retries"`
	Error        string            `json:"error"`
	Stats        serve.TenantStats `json:"tenant_stats"`
}

// prepareServe builds the seeded request sequence and computes every
// expected body and instruction count by calling the engines directly:
// campaign sessions on a fresh snapshot, fault.Campaign and fuzz.Fuzz
// with the request's seed and sizes.
func prepareServe(cfg runConfig) (func() (instance, error), error) {
	if cfg.setupOnly {
		return func() (instance, error) { return setupServe(cfg, nil) }, nil
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	p := &servePlan{seed: cfg.seed}
	for b := 0; b < serveSessions/20; b++ {
		var block []slot
		for _, k := range serveBlock {
			for i := 0; i < k.count; i++ {
				s := slot{kind: k.kind, scenario: k.scenario}
				switch k.kind {
				case serve.KindRun:
					s.variant = rng.Intn(len(imageVariants))
				case serve.KindFault, serve.KindFuzz:
					s.seed = 1 + rng.Int63n(1<<40)
				}
				block = append(block, s)
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		p.slots = append(p.slots, block...)
	}

	cont := core.DefaultContainment()
	// Campaign kind: per-session work from a direct run on a fresh
	// snapshot (Summary.Instructions subtracts the snapshot's own work).
	perSession := map[string]uint64{}
	for _, name := range serveScenarios {
		sc, _ := attack.ScenarioByName(name)
		m, err := sc.Prepare(taint.PolicyPointerTaintedness)
		if err != nil {
			return nil, err
		}
		snap, err := m.Snapshot()
		if err != nil {
			return nil, err
		}
		rs, _ := campaign.RunGuarded(snap, campaignWidth, 1, campaign.GuardOpts{},
			func(i int, m *attack.Machine) (attack.Outcome, error) { return sc.Session(m) })
		sum := campaign.Summarize(rs, snap.Stats())
		if sum.Detected != campaignWidth {
			return nil, checkf("direct %s campaign: %d of %d sessions detected", name, sum.Detected, campaignWidth)
		}
		perSession[name] = sum.Instructions / campaignWidth
	}
	faultTargets, err := fault.PrepareTargets(fault.Config{Targets: serveScenarios}, nil)
	if err != nil {
		return nil, err
	}
	base := map[string]uint64{}
	for _, t := range faultTargets {
		base[t.Name] = t.Base
	}
	fuzzTargets, err := fuzz.PrepareTargets(fuzz.Config{Targets: serveScenarios})
	if err != nil {
		return nil, err
	}
	byName := map[string]*fuzz.Target{}
	for _, t := range fuzzTargets {
		byName[t.Scenario.Name] = t
	}
	for i := range p.slots {
		s := &p.slots[i]
		switch s.kind {
		case serve.KindCampaign:
			s.wantOutcomes = map[string]int{"detected": campaignWidth}
			s.instrs = campaignWidth * perSession[s.scenario]
		case serve.KindFault:
			rep, err := fault.Campaign(fault.Config{
				Seed: s.seed, Runs: faultRuns, Workers: 2, Targets: []string{s.scenario},
				Deadline: cont.Deadline, Retries: cont.Retries, Backoff: cont.Backoff,
			}, faultTargets, false)
			if err != nil {
				return nil, fmt.Errorf("direct fault campaign: %w", err)
			}
			s.wantOutcomes, s.runs = rep.Outcomes, faultRuns
			// Report metrics merge whole fork snapshots, so each run's
			// counter includes the target's pre-snapshot instructions.
			s.instrs = rep.Metrics.Counters["cpu.instructions"] - uint64(faultRuns)*base[s.scenario]
		case serve.KindFuzz:
			rep, err := fuzz.Fuzz(fuzz.Config{
				Seed: s.seed, Execs: fuzzExecs, Batch: 32, Workers: 2, Targets: []string{s.scenario},
			}, []*fuzz.Target{byName[s.scenario]})
			if err != nil {
				return nil, fmt.Errorf("direct fuzz session: %w", err)
			}
			s.wantOutcomes = map[string]int{}
			for _, tr := range rep.Targets {
				for k, v := range tr.Outcomes {
					s.wantOutcomes[k] += v
				}
				if tr.Rediscovered {
					s.wantOutcome = fmt.Sprintf("rediscovered scripted attack at exec %d", tr.RediscoveredExec)
				}
				s.instrs += tr.Instructions
				s.execs += tr.Execs
				s.corpus += tr.CorpusSize
			}
		}
	}
	return func() (instance, error) { return setupServe(cfg, p) }, nil
}

// request is one prepared HTTP request of the current round.
type request struct {
	body  []byte
	image *guestImage // run kind
	instr uint64
}

type serveInst struct {
	cfg    runConfig
	plan   *servePlan
	srv    *serve.Server
	hs     *http.Server
	ln     net.Listener
	served chan struct{}
	url    string
	client *http.Client

	roundNo  int
	reqs     []request
	bodies   [][]byte // responses of the round just run
	scrapes  []time.Duration
	lastMet  []byte
	sent     map[string]int // sessions submitted per tenant
	errs     []error
	rtt      map[string]time.Duration // summed client round trips by kind
	kindN    map[string]int
	analyzed []time.Duration // traced: direct analysis of each generated image
}

func setupServe(cfg runConfig, plan *servePlan) (instance, error) {
	sp := cfg.tr.begin("serve.new", 0, 0)
	srv, err := serve.New(serve.Config{Workers: 2, Scenarios: serveScenarios})
	cfg.tr.end(sp)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	s := &serveInst{cfg: cfg, plan: plan, srv: srv, ln: ln, served: make(chan struct{}),
		hs:  &http.Server{Handler: srv},
		url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients, DisableCompression: true,
		}},
		sent: map[string]int{}, rtt: map[string]time.Duration{}, kindN: map[string]int{},
		bodies: make([][]byte, serveSessions),
	}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln)
	}()
	return s, nil
}

// between checks the responses of the round just run and makes the next
// round's requests: run-kind slots get freshly generated images, so no
// image repeats across rounds or requests.
func (s *serveInst) between() error {
	if s.reqs != nil {
		s.checkRound()
	}
	s.reqs = make([]request, len(s.plan.slots))
	for i, sl := range s.plan.slots {
		req := serve.SessionRequest{Tenant: tenantOf(i), Kind: sl.kind, Scenario: sl.scenario, Seed: sl.seed}
		r := request{instr: sl.instrs}
		switch sl.kind {
		case serve.KindRun:
			rng := rand.New(rand.NewSource(s.plan.seed*7_919 + int64(s.roundNo)*serveSessions + int64(i)))
			img := genImage(rng, sl.variant)
			n, err := s.directRun(img)
			if err != nil {
				return err
			}
			req.Source, req.Stdin = img.source, img.stdin
			r.image, r.instr = &img, n
		case serve.KindCampaign:
			req.Sessions = campaignWidth
		case serve.KindFault:
			req.Runs = faultRuns
		case serve.KindFuzz:
			req.Execs = fuzzExecs
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		r.body = body
		s.reqs[i] = r
	}
	s.roundNo++
	return nil
}

// directRun boots a generated image as the service does, but on the
// reference interpreter, which never consults the process-wide
// static-fact cache the service's boots share. It returns the
// instructions the run retires (the engines agree on that count); the
// verdict must be the generator's.
func (s *serveInst) directRun(img guestImage) (uint64, error) {
	im, err := asm.AssembleString(img.source)
	if err != nil {
		return 0, fmt.Errorf("generated image: %w", err)
	}
	if s.cfg.tr != nil {
		t0 := time.Now()
		if _, err := analysis.Analyze(im, taint.Propagator{}); err != nil {
			return 0, err
		}
		s.analyzed = append(s.analyzed, time.Since(t0))
	}
	cont := core.DefaultContainment()
	m, err := attack.BootImage("tenant-guest", im, attack.Options{
		Policy: taint.PolicyPointerTaintedness, Stdin: []byte(img.stdin),
		Budget: cont.Budget, MemLimit: cont.MemLimit, Reference: true,
	})
	if err != nil {
		return 0, err
	}
	o := attack.Classify(m.Run())
	got := "clean"
	if o.Detected {
		got = "detected"
	} else if o.Crashed || o.TimedOut || o.Compromised {
		got = o.String()
	}
	if got != img.verdict {
		return 0, checkf("generated %s image: direct run verdict %q, generator says %q", img.variant, got, img.verdict)
	}
	return m.CPU.Stats().Instructions, nil
}

func tenantOf(i int) string { return "client" + strconv.Itoa(i%serveClients) }

func (s *serveInst) round(lat []time.Duration) (uint64, int, error) {
	tr := s.cfg.tr
	var wg sync.WaitGroup
	errs := make([]error, serveClients)
	scrapes := make([][]time.Duration, serveClients)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n := 0
			for i := c; i < len(s.reqs); i += serveClients {
				t0 := time.Now()
				sp := tr.begin("serve.http", 1+c, 0)
				body, err := s.post(s.reqs[i].body)
				tr.end(sp)
				lat[i] = time.Since(t0)
				if err != nil {
					errs[c] = fmt.Errorf("session %d: %w", i, err)
					return
				}
				s.bodies[i] = body
				if n++; n%scrapeEvery == 0 {
					t0 := time.Now()
					sp := tr.begin("serve.scrape", 1+c, 0)
					met, err := s.scrape()
					tr.end(sp)
					if err != nil {
						errs[c] = err
						return
					}
					scrapes[c] = append(scrapes[c], time.Since(t0))
					if c == 0 {
						s.lastMet = met
					}
				}
			}
		}(c)
	}
	wg.Wait()
	var instrs uint64
	extra := 0
	for c := 0; c < serveClients; c++ {
		if errs[c] != nil {
			return 0, 0, errs[c]
		}
		extra += len(scrapes[c])
		s.scrapes = append(s.scrapes, scrapes[c]...)
	}
	for i, r := range s.reqs {
		instrs += r.instr
		sl := s.plan.slots[i]
		s.rtt[sl.kind] += lat[i]
		s.kindN[sl.kind]++
		s.sent[tenantOf(i)]++
	}
	return instrs, extra, nil
}

func (s *serveInst) post(body []byte) ([]byte, error) {
	resp, err := s.client.Post(s.url+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, checkf("HTTP %d: %s", resp.StatusCode, out)
	}
	return out, nil
}

func (s *serveInst) scrape() ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, s.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK || !bytes.Contains(out, []byte("# TYPE")) {
		return nil, checkf("/metrics: HTTP %d, %d bytes without a TYPE line", resp.StatusCode, len(out))
	}
	return out, nil
}

// checkRound compares every response of the round just run with the
// plan's expectation.
func (s *serveInst) checkRound() {
	for i, body := range s.bodies {
		var r sessionResponse
		if err := json.Unmarshal(body, &r); err != nil {
			s.errs = append(s.errs, fmt.Errorf("session %d: decode: %w", i, err))
			continue
		}
		sl := s.plan.slots[i]
		if r.Status != serve.StatusOK || r.Retries != 0 {
			s.errs = append(s.errs, checkf("session %d (%s): status %q, %d retries, error %q", i, sl.kind, r.Status, r.Retries, r.Error))
			continue
		}
		want, wantOne := sl.wantOutcomes, sl.wantOutcome
		if img := s.reqs[i].image; img != nil {
			want, wantOne = map[string]int{img.verdict: 1}, ""
		}
		if !reflect.DeepEqual(r.Outcomes, want) || (sl.kind != serve.KindRun && r.Outcome != wantOne) {
			s.errs = append(s.errs, checkf("session %d (%s %s): outcomes %v %q, want %v %q",
				i, sl.kind, sl.scenario, r.Outcomes, r.Outcome, want, wantOne))
		}
		if sl.kind == serve.KindCampaign && len(r.Fingerprints) != campaignWidth {
			s.errs = append(s.errs, checkf("session %d: %d fingerprints, want %d", i, len(r.Fingerprints), campaignWidth))
		}
		// Each tenant waits for its reply, so when its session settles,
		// everything it submitted was admitted and has completed.
		if st := r.Stats; st.Submitted != st.Admitted+st.Rejected+st.Shed ||
			st.Rejected != 0 || st.Shed != 0 || st.Completed != st.Submitted {
			s.errs = append(s.errs, checkf("session %d: tenant stats %+v", i, st))
		}
	}
}

func (s *serveInst) verify() error {
	if s.reqs != nil {
		s.checkRound()
		s.reqs = nil
	}
	if len(s.errs) > 0 {
		return s.errs[0]
	}
	met, err := s.scrape()
	if err != nil {
		return err
	}
	s.lastMet = met
	prom := parseProm(met)
	for tenant, sent := range s.sent {
		get := func(c string) float64 {
			return prom[fmt.Sprintf(`serve_tenant_%s{tenant="%s"}`, c, tenant)]
		}
		sub, adm, rej, shed := get("submitted"), get("admitted"), get("rejected"), get("shed")
		if sub != float64(sent) || sub != adm+rej+shed || rej != 0 || shed != 0 || get("completed") != sub {
			return checkf("tenant %s: sent %d, submitted %v admitted %v rejected %v shed %v completed %v",
				tenant, sent, sub, adm, rej, shed, get("completed"))
		}
	}
	return nil
}

// parseProm reads a Prometheus text exposition into sample → value.
func parseProm(b []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func (s *serveInst) layers(m map[string]float64) error {
	lt := s.cfg.tr.selfTimes()
	prom := parseProm(s.lastMet)
	spanMean := func(name string) float64 { // seconds
		n := prom[fmt.Sprintf(`serve_span_seconds_count{span="%s"}`, name)]
		if n == 0 {
			return 0
		}
		return prom[fmt.Sprintf(`serve_span_seconds_sum{span="%s"}`, name)] / n
	}
	m["serve.admit_us"] = spanMean("admit") * 1e6
	m["serve.queue_ms"] = spanMean("queue") * 1e3
	m["serve.snapshot_fork_ms"] = spanMean("snapshot-fork") * 1e3
	m["serve.guest_run_ms"] = spanMean("guest-run") * 1e3
	m["serve.settle_us"] = spanMean("settle") * 1e6
	server := spanMean("admit") + spanMean("queue") + spanMean("run") + spanMean("settle")
	http := lt["serve.http"]
	m["serve.http_us"] = (float64(http.total)/float64(http.count)/1e9 - server) * 1e6
	m["serve.scrape_ms"] = median(durMs(s.scrapes))
	m["attack.boot_ms"] = spanMean("boot") * 1e3
	m["asm.assemble_ms"] = spanMean("build") * 1e3
	m["analysis.analyze_ms"] = median(durMs(s.analyzed))
	var runs, execs, corpus int
	for _, sl := range s.plan.slots {
		runs += sl.runs
		execs += sl.execs
		corpus += sl.corpus
	}
	// Client round trips are summed over every round run, so scale the
	// per-round run and exec counts by the rounds that sent them.
	done := float64(s.kindN[serve.KindFault]) / float64(s.countKind(serve.KindFault))
	if d := s.rtt[serve.KindFault].Seconds(); d > 0 {
		m["fault.runs_per_s"] = float64(runs) * done / d
	}
	if d := s.rtt[serve.KindFuzz].Seconds(); d > 0 {
		m["fuzz.execs_per_s"] = float64(execs) * done / d
	}
	if execs > 0 {
		m["fuzz.admit_ratio"] = float64(corpus) / float64(execs)
	}
	return nil
}

// countKind is how many slots of one round have the kind.
func (s *serveInst) countKind(kind string) int {
	n := 0
	for _, sl := range s.plan.slots {
		if sl.kind == kind {
			n++
		}
	}
	return n
}

func durMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func (s *serveInst) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx)
	<-s.served
	_ = s.srv.Shutdown(ctx)
	s.client.CloseIdleConnections()
}
