package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the same
// "exclusive" method Python's statistics.quantiles(xs, n=4) uses, so the
// steadiness report and an external check agree on the numbers.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(j int) float64 {
		// statistics.quantiles, method "exclusive": m = n+1; position j*m/4.
		pos := float64(j*(n+1)) / 4
		k := int(math.Floor(pos))
		frac := pos - float64(k)
		switch {
		case k < 1:
			return s[0]
		case k >= n:
			return s[n-1]
		}
		return s[k-1] + (s[k]-s[k-1])*frac
	}
	return at(1), at(3)
}

// tailIndex is the rank (0-based, ascending) of the highest percentile
// that still has at least ten samples beyond it in a set of n samples.
// It returns -1 when n is too small for a tail to exist.
func tailIndex(n int) int {
	if n < 40 {
		return -1
	}
	return n - 11
}

// tailPercentile names the percentile tailIndex picks, for reports.
func tailPercentile(n int) float64 {
	return 100 * float64(n-10) / float64(n)
}

// roundStats holds what one timed round measured.
type roundStats struct {
	wall       time.Duration
	sessions   int
	instrs     uint64
	p50, tail  time.Duration
	allocBytes uint64
}

// summarize turns the per-session latencies of one round into its p50 and
// tail; lat is sorted in place.
func summarize(lat []time.Duration) (p50, tail time.Duration) {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	n := len(lat)
	if n == 0 {
		return 0, 0
	}
	if n%2 == 1 {
		p50 = lat[n/2]
	} else {
		p50 = (lat[n/2-1] + lat[n/2]) / 2
	}
	if k := tailIndex(n); k >= 0 {
		tail = lat[k]
	} else {
		tail = lat[n-1]
	}
	return p50, tail
}

// gcSample reads the runtime's cumulative GC and total CPU-seconds
// estimates, plus allocation and GC counts, for per-round deltas.
type gcSample struct {
	gcCPU, totalCPU     float64
	mallocs, totalAlloc uint64
	numGC               uint32
}

func readGC() gcSample {
	ss := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(ss)
	var g gcSample
	if ss[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = ss[0].Value.Float64()
	}
	if ss[1].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = ss[1].Value.Float64()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g.mallocs = ms.Mallocs
	g.totalAlloc = ms.TotalAlloc
	g.numGC = ms.NumGC
	return g
}

// hostInfo is the fingerprint printed with every run, so a figure is
// never compared across hosts unknowingly.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func host() hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPUModel = strings.TrimSpace(v)
			break
		}
	}
	return h
}
