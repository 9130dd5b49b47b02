package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json the steadiness command reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steady runs two sets of runs of each workload declared in
// BENCHMARK.json, each run with its own seed and the declared run length,
// and prints for every end-to-end metric each set's median and quartiles,
// its spread (Q3-Q1 over the median) and the worsening of the second
// median against the first, next to the metric's bound. It fails when a
// spread or the worsening exceeds the bound.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per set and workload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	seconds := spec.RunSeconds
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bad := 0
	for _, w := range spec.Workloads {
		var sets [2]map[string][]float64
		for set := 0; set < 2; set++ {
			sets[set] = map[string][]float64{}
			for r := 0; r < *runs; r++ {
				seed := int64(1 + set*1000 + r)
				res, err := runOnce(self, w.Name, seed, seconds)
				if err != nil {
					return err
				}
				for k, v := range res.Metrics {
					sets[set][k] = append(sets[set][k], v.Value)
				}
				fmt.Fprintf(os.Stderr, "%s set %d seed %d:", w.Name, set+1, seed)
				for _, e := range spec.EndToEnd {
					fmt.Fprintf(os.Stderr, " %s=%.4g", e.Name, res.Metrics[e.Name].Value)
				}
				fmt.Fprintln(os.Stderr)
			}
		}
		fmt.Printf("\n%s (%d runs per set, %d s each)\n", w.Name, *runs, seconds)
		fmt.Printf("%-22s %11s %11s %11s %7s | %11s %11s %11s %7s | %7s %6s  %s\n",
			"metric", "median1", "q1", "q3", "spread1", "median2", "q1", "q3", "spread2", "worse", "bound", "verdict")
		for _, e := range spec.EndToEnd {
			a, b := sets[0][e.Name], sets[1][e.Name]
			m1, m2 := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			s1, s2 := (a3-a1)/m1, (b3-b1)/m2
			worse := (m2 - m1) / m1
			if e.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case math.Max(s1, s2) > e.Bound || worse > e.Bound:
				verdict = "OVER"
				bad++
			case math.Max(s1, s2) > e.Bound/3:
				verdict = "ok (spread > bound/3)"
			}
			fmt.Printf("%-22s %11.4f %11.4f %11.4f %6.1f%% | %11.4f %11.4f %11.4f %6.1f%% | %6.1f%% %5.0f%%  %s\n",
				e.Name, m1, a1, a3, 100*s1, m2, b1, b3, 100*s2, 100*worse, 100*e.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) outside their bound", bad)
	}
	return nil
}

func runOnce(bin, workload string, seed int64, seconds int) (result, error) {
	var out bytes.Buffer
	cmd := exec.Command(bin, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct {
		return result{}, fmt.Errorf("%s seed %d: incorrect run", workload, seed)
	}
	return res, nil
}
