package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles returns the first quartile, median and third quartile of
// values by the "exclusive" method of Python's statistics.quantiles(n=4),
// which the bounds in BENCHMARK.json are judged by.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	q := make([]float64, 3)
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// steadinessRuns is the number of runs per workload of a steadiness report,
// as many as the bounds in BENCHMARK.json are judged by.
const steadinessRuns = 10

// steadinessReport runs every workload steadinessRuns times, each in its
// own process with seeds 1..steadinessRuns, and prints per end-to-end
// metric the median, quartiles and the spread (q3-q1)/median.
func steadinessReport(seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloadNames() {
		values := map[string][]float64{}
		units := map[string]string{}
		failShare := map[string]bool{}
		for seed := 1; seed <= steadinessRuns; seed++ {
			cmd := exec.Command(self, "-workload", w, "-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(seconds), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: run reported incorrect output", w, seed)
			}
			failShare[fmt.Sprintf("%d/%d", res.Failed, res.Attempted)] = true
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", w, seed, lines[len(lines)-1])
		}
		names := make([]string, 0, len(values))
		for name := range values {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("%s: %d runs of %ds, failed/attempted %v\n", w, steadinessRuns, seconds, keys(failShare))
		fmt.Printf("  %-20s %-6s %14s %14s %14s %8s\n", "metric", "unit", "q1", "median", "q3", "spread")
		for _, name := range names {
			q1, med, q3 := quartiles(values[name])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Printf("  %-20s %-6s %14.6g %14.6g %14.6g %8.4f\n", name, units[name], q1, med, q3, spread)
		}
	}
	return nil
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
