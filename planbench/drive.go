package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// response is one recorded /v1/plan answer. body is nil for an answer
// whose bytes equal the previous answer the same client got for the unit
// (the byte comparison is the whole check such a repeat needs).
type response struct {
	unit   int
	status int
	body   []byte
	lat    time.Duration
}

// target is an engine behind its HTTP handler.
type target struct {
	eng *service.Engine
	h   http.Handler
}

func newTarget(traced bool) *target {
	cfg := service.Config{}
	if traced {
		cfg.Tracer = obs.NewTracer(obs.Options{WallClock: true})
	}
	e := service.New(cfg)
	return &target{eng: e, h: service.NewHandler(e)}
}

// send drives the chains through the handler in a closed loop: clients
// goroutines each take the next whole chain and send its requests one after
// another, each only after the previous answer. It returns every response,
// each client's in the order it received them.
func (t *target) send(w *workload, chains [][]int, clients int) []response {
	var next atomic.Int64
	resps := make([][]response, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			last := make(map[int][]byte)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(chains) {
					return
				}
				for _, ui := range chains[i] {
					req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(w.units[ui].body))
					rec := httptest.NewRecorder()
					start := time.Now()
					t.h.ServeHTTP(rec, req)
					d := time.Since(start)
					body := rec.Body.Bytes()
					if bytes.Equal(body, last[ui]) {
						body = nil
					} else {
						last[ui] = body
					}
					resps[c] = append(resps[c], response{unit: ui, status: rec.Code, body: body, lat: d})
				}
			}
		}(c)
	}
	wg.Wait()
	var all []response
	for c := range resps {
		all = append(all, resps[c]...)
	}
	return all
}

// warmUp plans the workload's warm units (distinct platforms) through the
// handler and returns their responses.
func (t *target) warmUp(w *workload, clients int) []response {
	chains := make([][]int, len(w.warm))
	for i, ui := range w.warm {
		chains[i] = []int{ui}
	}
	return t.send(w, chains, clients)
}

// usage is a snapshot of the process counters the end-to-end metrics take
// deltas of.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// phase accumulates the timed part of a run across rounds. The machine's
// speed drifts by tens of percent over seconds, so rates and per-plan CPU
// are taken per round and reported as the median round.
type phase struct {
	mallocs, bytes uint64
	lats           []time.Duration
	rate, cpu, p50 []float64 // per round: plans/s, CPU ms per plan, median latency ms
	tail           []float64 // per round: latency ms at the workload's tail percentile
	attempted      int
	failed         int
	stats          service.Stats // summed over the rounds' engines
	retained       float64       // MiB held by the last engine
	entries        int           // cache entries of the last engine
}

// add records one round: the counters before and after it and the
// latencies of its answered plans.
func (ph *phase) add(w *workload, a, b usage, lats []time.Duration) {
	ph.mallocs += b.mallocs - a.mallocs
	ph.bytes += b.bytes - a.bytes
	ph.lats = append(ph.lats, lats...)
	plans := math.Max(1, float64(len(lats)))
	ph.rate = append(ph.rate, float64(len(lats))/b.wall.Sub(a.wall).Seconds())
	ph.cpu = append(ph.cpu, ms(b.cpu-a.cpu)/plans)
	sorted := sortedMs(lats)
	ph.p50 = append(ph.p50, percentile(sorted, 50))
	ph.tail = append(ph.tail, percentile(sorted, w.tailPct))
}

func (ph *phase) plans() int { return len(ph.lats) }

// tailMs is the tail latency: the median round's when a round holds enough
// samples for the workload's tail percentile, else over the whole run.
func (ph *phase) tailMs(w *workload) float64 {
	if w.tailPerRound {
		return median(ph.tail)
	}
	return percentile(sortedMs(ph.lats), w.tailPct)
}

func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// endToEnd renders the phase as the end-to-end metrics (setup_s aside).
func (ph *phase) endToEnd(w *workload) map[string]metric {
	plans := math.Max(1, float64(ph.plans()))
	return map[string]metric{
		"plans_per_s":        {median(ph.rate), "1/s"},
		"latency_p50_ms":     {median(ph.p50), "ms"},
		"latency_tail_ms":    {ph.tailMs(w), "ms"},
		"cpu_ms_per_plan":    {median(ph.cpu), "ms"},
		"allocs_per_plan":    {float64(ph.mallocs) / plans, "count"},
		"alloc_kib_per_plan": {float64(ph.bytes) / 1024 / plans, "KiB"},
		"retained_heap_mib":  {ph.retained, "MiB"},
	}
}

// percentile interpolates linearly between the closest ranks of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// session is one set-up workload with its engine and the checker that
// follows it.
type session struct {
	w        *workload
	seed     int64
	clients  int
	traced   bool
	t        *target
	chk      *checker
	canceled int // answers cut by their deadline on the current engine
}

// setUp generates the workload and plans its warm units on a new engine.
func setUp(name string, pseed, seed int64, clients int, traced bool) (*session, time.Duration, error) {
	start := time.Now()
	w, err := buildWorkload(name, pseed)
	if err != nil {
		return nil, 0, err
	}
	s := &session{w: w, seed: seed, clients: clients, traced: traced, t: newTarget(traced)}
	s.chk = newChecker(w)
	warm := s.t.warmUp(w, clients)
	elapsed := time.Since(start)
	if err := s.chk.warm(warm); err != nil {
		return nil, 0, err
	}
	return s, elapsed, nil
}

// run replays rounds rounds of the workload's traffic, checks every
// response and the engine counters, and measures the heap the engine
// retains.
func (s *session) run(rounds int) (*phase, error) {
	ph := &phase{}
	for r := 0; r < rounds; r++ {
		if err := s.round(ph, r, rounds); err != nil {
			return nil, err
		}
	}
	s.finish(ph)
	return ph, nil
}

// round replays round r of rounds and adds it to ph. Fresh-engine
// workloads plan their warm units again, untimed, at the start of every
// round after the first. Latency, rate and CPU cover every answered plan
// (HTTP 200), also one the verifier rejects: the serving path ran in full,
// and only the check counts it as failed.
func (s *session) round(ph *phase, r, rounds int) error {
	w := s.w
	if w.fresh && r > 0 {
		s.canceled = 0
		s.t = newTarget(s.traced)
		if err := s.chk.warm(s.t.warmUp(w, s.clients)); err != nil {
			return err
		}
	}
	chains := w.order(s.seed, r)
	runtime.GC()
	a := snapshot()
	resps := s.t.send(w, chains, s.clients)
	b := snapshot()
	ok, err := s.chk.timed(resps)
	if err != nil {
		return fmt.Errorf("round %d: %w", r, err)
	}
	ph.attempted += len(resps)
	var lats []time.Duration
	for i, rp := range resps {
		if !ok[i] {
			ph.failed++
			if rp.status == http.StatusGatewayTimeout {
				s.canceled++
			}
		}
		if rp.status == http.StatusOK {
			lats = append(lats, rp.lat)
		}
	}
	ph.add(w, a, b, lats)
	if w.fresh || r == rounds-1 {
		st := s.t.eng.Stats()
		n := rounds
		if w.fresh {
			n = 1
		}
		if err := s.chk.stats(st, n, s.canceled); err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		addStats(&ph.stats, st)
	}
	return nil
}

// finish records the engine's cache entries and the heap it retains, then
// drops the engine.
func (s *session) finish(ph *phase) {
	ph.entries = s.t.eng.Stats().CacheEntries
	ph.retained = s.release()
}

// release measures the heap the engine retains: live heap after a full
// collection with the engine held, minus live heap once it is dropped.
func (s *session) release() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	held := ms.HeapAlloc
	runtime.KeepAlive(s.t)
	s.t = nil
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return (float64(held) - float64(ms.HeapAlloc)) / (1 << 20)
}

func addStats(dst *service.Stats, s service.Stats) {
	dst.Requests += s.Requests
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.Solves += s.Solves
	dst.DeltaPlans += s.DeltaPlans
	dst.WarmResolves += s.WarmResolves
	dst.SessionRebuilds += s.SessionRebuilds
	dst.Evictions += s.Evictions
	dst.Canceled += s.Canceled
	dst.LPPivots += s.LPPivots
}
