package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// runOne re-executes this binary for one workload run (a fresh process,
// so peak memory and heap state never carry over) and returns every
// "name value unit" row of its table. The table goes to stdout too when
// echo is set. A signal to this process ends the run: the sub-harness is
// told to stop, which makes it stop its own child and remove its files.
func runOne(root, workload string, seed int64, seconds float64, trace int, quick, echo bool) (map[string]metric, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	exited := make(chan struct{})
	forget := onExit(func() { terminate(cmd.Process, exited) })
	runErr := cmd.Wait()
	close(exited)
	forget()
	if echo || runErr != nil {
		os.Stdout.Write(out.Bytes())
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
	}
	rows := map[string]metric{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 3 && strings.HasPrefix(line, "  ") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				rows[f[0]] = metric{v, f[2]}
			}
		}
	}
	return rows, nil
}

// runAll runs the four workloads one after another, each in its own
// process.
func runAll(root string, seed int64, seconds float64, trace int, quick bool) int {
	for _, w := range workloads {
		if _, err := runOne(root, w.name, seed, seconds, trace, quick, true); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return 0
}

// worse is how much b is worse than a, as a share of a, in the
// metric's own direction (negative when b is better).
func worse(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSelfcheck is the A/A check: two interleaved sets (A B B A ...) of
// n runs of this same binary per workload, both sets over the same n
// seeds. For each end-to-end metric it prints both medians, how much
// worse one is than the other beside the bound, and as noise each set's
// spread (interquartile range over median), of the reported value and
// of the same timing without calibration. It fails when a disagreement
// exceeds the bound — the rule a later change is judged by, applied to
// no change. A spread wider than the bound is marked: on that pair a
// difference of one bound cannot be told from noise.
func runSelfcheck(root string, ws []workloadDef, n int, seed int64, seconds float64, quick bool) int {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	bad := 0
	for _, w := range ws {
		var sets [2][]map[string]metric
		for i := 0; i < n; i++ {
			order := [2]int{0, 1}
			if i%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, s := range order {
				rows, err := runOne(root, w.name, seed+int64(i), seconds, 0, quick, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				sets[s] = append(sets[s], rows)
				fmt.Fprintf(os.Stderr, "selfcheck %s: run %d/%d of set %c done\n", w.name, i+1, n, 'A'+s)
			}
		}
		column := func(s int, name string) (v []float64) {
			for _, rows := range sets[s] {
				if m, ok := rows[name]; ok {
					v = append(v, m.Value)
				}
			}
			return v
		}
		fmt.Printf("\n%s  (A/A, %d runs per set)\n", w.name, n)
		fmt.Printf("  %-18s %12s %12s %9s %6s %8s %8s %8s %8s\n", "metric", "median A", "median B", "disagree", "bound", "iqr A", "iqr B", "raw A", "raw B")
		for _, em := range bf.EndToEnd {
			a, b := column(0, em.Name), column(1, em.Name)
			ma, mb := median(a), median(b)
			dis := max(worse(ma, mb, em.Better), worse(mb, ma, em.Better))
			rawA, rawB := "-", "-"
			if ra := column(0, "raw."+em.Name); len(ra) == n {
				rawA, rawB = pct(spread(ra)), pct(spread(column(1, "raw."+em.Name)))
			}
			verdict := ""
			switch {
			case dis > em.Bound:
				verdict = "  FAIL"
				bad++
			case max(spread(a), spread(b)) > em.Bound:
				verdict = "  noisy"
			}
			fmt.Printf("  %-18s %12.6g %12.6g %9s %6s %8s %8s %8s %8s%s\n", em.Name, ma, mb,
				pct(dis), pct(em.Bound), pct(spread(a)), pct(spread(b)), rawA, rawB, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("\nselfcheck: %d metric/workload pairs disagree by more than their bound\n", bad)
		return 1
	}
	fmt.Println("\nselfcheck: every metric agrees with itself within its bound")
	return 0
}

func pct(x float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", x*100), "0"), ".") + "%"
}
