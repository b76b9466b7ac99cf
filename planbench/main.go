// Command planbench benchmarks the planning service end to end: it drives
// /v1/plan through service.NewHandler in-process (ServeHTTP on a recorder,
// no socket) with a closed loop of at most two clients, checks every answer
// with its own plan verifier, and prints one JSON result line. See
// README.md for the workloads, metrics and reference figures.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A run sets the workload up at least minSetups times and until set-up
// has taken setupBudget in all (at most maxSetups times); setup_s is the
// median. Cheap set-ups are repeated more, as their spread is larger.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

// readmePath holds the input digests the set-up checks against.
const readmePath = "planbench/README.md"

// layerUnits lists the per-layer metrics of a traced run with their units.
var layerUnits = [][2]string{
	{"http.decode_us", "us"}, {"http.encode_us", "us"},
	{"platform.fingerprint_us", "us"}, {"platform.fingerprint_allocs", "count"},
	{"platform.exact_hash_us", "us"}, {"platform.apply_delta_us", "us"},
	{"service.hit_us", "us"}, {"service.miss_ms", "ms"}, {"service.delta_ms", "ms"},
	{"steady.solve_ms", "ms"}, {"steady.rounds", "count"}, {"steady.cuts", "count"},
	{"steady.nonlp_ms", "ms"}, {"steady.warm_resolve_ms", "ms"},
	{"lp.wall_ms", "ms"}, {"lp.pivots", "count"}, {"lp.warm_pivots", "count"},
	{"lp.cold_pivots", "count"}, {"lp.us_per_pivot", "us"},
	{"pack.decompose_ms", "ms"}, {"pack.trees", "count"}, {"heuristics.build_ms", "ms"},
}

func main() {
	workload := flag.String("workload", "", "workload to run: hit-heavy, cold-miss or churn-lineage")
	seed := flag.Int64("seed", 1, "traffic seed: orders the requests of every round")
	seconds := flag.Int("seconds", 15, "nominal timed length; fixes the round count")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	pseed := flag.Int64("platform-seed", platformSeed, "first seed of the platform rules (the input digests hold for the default only)")
	digest := flag.Bool("digest", false, "print the input digest of every workload and exit")
	steadiness := flag.Bool("steadiness", false, "run each workload ten times and print the spread of every end-to-end metric")
	flag.Parse()

	switch {
	case *digest:
		for _, name := range workloadNames() {
			w, err := buildWorkload(name, *pseed)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("digest %s %s\n", name, w.digest())
		}
	case *steadiness:
		if err := steadinessReport(*seconds); err != nil {
			fatal(err)
		}
	default:
		if *trace != 0 && *trace != 1 {
			fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
		}
		res, err := runWorkload(*workload, *pseed, *seed, *seconds, *trace == 1)
		if err != nil {
			fatal(err)
		}
		out, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "planbench:", err)
	os.Exit(1)
}

// checkDigest compares the generated inputs with the digest README.md
// records for the workload.
func checkDigest(w *workload) error {
	f, err := os.Open(readmePath)
	if err != nil {
		return fmt.Errorf("input digest: %w", err)
	}
	defer f.Close()
	prefix := "digest " + w.name + " "
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); strings.HasPrefix(line, prefix) {
			if want, got := strings.TrimPrefix(line, prefix), w.digest(); want != got {
				return fmt.Errorf("%s inputs changed: digest %s, %s records %s (regenerate with: bash planbench/run.sh --digest)", w.name, got, readmePath, want)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("input digest: %w", err)
	}
	return fmt.Errorf("input digest: %s records no digest for %s", readmePath, w.name)
}

func clients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// runWorkload sets the workload up (once when traced) and measures it. A
// failed check is reported as correct=false; set-up errors are returned.
func runWorkload(name string, pseed, seed int64, seconds int, traced bool) (*result, error) {
	var s *session
	var setups []float64
	var total time.Duration
	for len(setups) < maxSetups && (len(setups) < minSetups || total < setupBudget) {
		// Every set-up starts from a collected heap without the previous one,
		// so collector pacing left by earlier set-ups does not move it.
		s = nil
		runtime.GC()
		var d time.Duration
		var err error
		if s, d, err = setUp(name, pseed, seed, clients(), false); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		total += d
		if traced {
			break
		}
	}
	if pseed == platformSeed {
		if err := checkDigest(s.w); err != nil {
			return nil, err
		}
	}
	rounds := s.w.rounds(seconds)
	if traced {
		return tracedRun(s, pseed, (rounds+1)/2)
	}
	ph, err := s.run(rounds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "planbench: check failed:", err)
		return &result{Correct: false, Attempted: 1, Metrics: map[string]metric{}}, nil
	}
	m := ph.endToEnd(s.w)
	sort.Float64s(setups)
	m["setup_s"] = metric{setups[len(setups)/2], "s"}
	return &result{Correct: true, Attempted: ph.attempted, Failed: ph.failed, Metrics: m}, nil
}

// tracedRun measures the workload on two engines, one untraced and one
// with the engine's WallClock tracer on, alternating rounds between them
// (and which of the two goes first in each pair), then times every layer
// on the workload's units. The tracing overhead is the median over rounds
// of the traced minus the untraced round, so host drift between rounds
// cancels out of it.
func tracedRun(plain *session, pseed int64, rounds int) (*result, error) {
	bad := func(err error) (*result, error) {
		fmt.Fprintln(os.Stderr, "planbench: check failed:", err)
		return &result{Correct: false, Attempted: 1, Metrics: map[string]metric{}}, nil
	}
	tr, _, err := setUp(plain.w.name, pseed, plain.seed, plain.clients, true)
	if err != nil {
		return nil, err
	}
	base, traced := &phase{}, &phase{}
	for r := 0; r < rounds; r++ {
		first, second := plain, tr
		fph, sph := base, traced
		if r%2 == 1 {
			first, second, fph, sph = tr, plain, traced, base
		}
		if err := first.round(fph, r, rounds); err != nil {
			return bad(err)
		}
		if err := second.round(sph, r, rounds); err != nil {
			return bad(err)
		}
	}
	plain.finish(base)
	tr.finish(traced)
	l, err := layerPass(plain.w)
	if err != nil {
		return bad(err)
	}
	m := map[string]metric{}
	for _, nu := range layerUnits {
		m[nu[0]] = metric{l.mean(nu[0]), nu[1]}
	}
	st := base.stats
	for name, v := range map[string]int64{
		"service.hits": st.Hits, "service.misses": st.Misses, "service.solves": st.Solves,
		"service.warm_resolves": st.WarmResolves, "service.session_rebuilds": st.SessionRebuilds,
		"service.evictions": st.Evictions,
	} {
		m[name] = metric{float64(v), "count"}
	}
	if base.entries > 0 {
		m["service.retained_mib_per_entry"] = metric{base.retained / float64(base.entries), "MiB"}
	}
	m["obs.overhead_us"] = metric{pairedDiff(traced.p50, base.p50) * 1e3, "us"}
	m["obs.overhead_cpu_us"] = metric{pairedDiff(traced.cpu, base.cpu) * 1e3, "us"}
	return &result{Correct: true, Attempted: base.attempted + traced.attempted, Failed: base.failed + traced.failed, Metrics: m}, nil
}

// pairedDiff is the median over rounds of a[r] - b[r].
func pairedDiff(a, b []float64) float64 {
	d := make([]float64, len(a))
	for r := range a {
		d[r] = a[r] - b[r]
	}
	return median(d)
}
