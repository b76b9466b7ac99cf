package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/heuristics"
	"repro/internal/pack"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/steady"
)

// reps is how often the layer pass repeats a sub-millisecond call; it keeps
// the median.
const reps = 5

// wireEnvelope mirrors the handler's /v1/plan response envelope: the encode
// timing marshals it and the checker decodes answers into it.
type wireEnvelope struct {
	Cached    bool            `json:"cached"`
	Collapsed bool            `json:"collapsed,omitempty"`
	Warm      bool            `json:"warm,omitempty"`
	Degraded  bool            `json:"degraded,omitempty"`
	TraceID   string          `json:"traceId,omitempty"`
	Plan      json.RawMessage `json:"plan"`
}

// layerSums accumulates per-layer values weighted by how often the unit is
// requested in one round of timed traffic.
type layerSums struct {
	sum, weight map[string]float64
}

func (l *layerSums) add(name string, v, wt float64) {
	l.sum[name] += v * wt
	l.weight[name] += wt
}

// mean returns the weighted mean of a layer metric, or 0 when no unit of
// the workload reaches the layer.
func (l *layerSums) mean(name string) float64 {
	if l.weight[name] == 0 {
		return 0
	}
	return l.sum[name] / l.weight[name]
}

func medianOf(n int, f func() time.Duration) time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		ds[i] = f()
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[n/2]
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// decode parses a request body the way the handler does.
func decode(body []byte) (service.PlanRequest, error) {
	var req service.PlanRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// unitWeights counts how often each unit is requested in one timed round.
func unitWeights(w *workload) []float64 {
	wt := make([]float64, len(w.units))
	for _, ch := range w.chains {
		for _, ui := range ch {
			wt[ui]++
		}
	}
	return wt
}

// layerPass times each layer's public functions on the workload's units,
// one call at a time on this goroutine.
func layerPass(w *workload) (*layerSums, error) {
	l := &layerSums{sum: map[string]float64{}, weight: map[string]float64{}}
	opts := &steady.Options{} // the engine's default solver options
	for ui, wt := range unitWeights(w) {
		if wt == 0 {
			continue
		}
		u := w.units[ui]
		if err := layerUnit(l, u, wt, opts); err != nil {
			return nil, fmt.Errorf("layer pass %s: %w", u.name, err)
		}
	}
	return l, nil
}

func layerUnit(l *layerSums, u *unit, wt float64, opts *steady.Options) error {
	var err error
	l.add("http.decode_us", us(medianOf(reps, func() time.Duration {
		return timed(func() { _, err = decode(u.body) })
	})), wt)
	if err != nil {
		return err
	}
	// Fingerprint and exact hash a fresh copy each time, as the engine sees
	// a freshly decoded platform on every request.
	l.add("platform.fingerprint_us", us(medianOf(reps, func() time.Duration {
		p := u.want.Clone()
		return timed(func() { p.Fingerprint() })
	})), wt)
	p := u.want.Clone()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.Fingerprint()
	runtime.ReadMemStats(&after)
	l.add("platform.fingerprint_allocs", float64(after.Mallocs-before.Mallocs), wt)
	l.add("platform.exact_hash_us", us(medianOf(reps, func() time.Duration {
		p := u.want.Clone()
		return timed(func() { sha256.Sum256(p.CanonicalEncoding()) })
	})), wt)
	l.add("platform.apply_delta_us", us(medianOf(reps, func() time.Duration {
		p := u.from.Clone()
		return timed(func() { _, err = p.ApplyDelta(u.next) })
	})), wt)
	if err != nil {
		return err
	}
	if err := steadyLayers(l, u, wt, opts); err != nil {
		return err
	}
	return serviceLayers(l, u, wt)
}

// steadyLayers times the cutting-plane solve the request triggers (a cold
// solve for a plain request, the resolve after the step for a lineage
// step), the warm resolve after the unit's delta, and the packing and
// heuristic built on the optimal rates.
func steadyLayers(l *layerSums, u *unit, wt float64, opts *steady.Options) error {
	ctx := context.Background()
	if u.deadlineMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(u.deadlineMs)*time.Millisecond)
		defer cancel()
	}
	sp := u.from.Clone()
	sess := steady.NewSession(sp, 0, opts)
	var sol *steady.Solution
	var err error
	cold := timed(func() { sol, err = sess.ResolveContext(ctx) })
	if err != nil {
		if u.stall {
			return nil // the stalled grid solve has no layer figures to give
		}
		return err
	}
	if _, err := sp.ApplyDelta(u.next); err != nil {
		return err
	}
	var warmSol *steady.Solution
	warm := timed(func() { warmSol, err = sess.ResolveContext(ctx) })
	if err != nil {
		return err
	}
	l.add("steady.warm_resolve_ms", ms(warm), wt)
	solve, solved := cold, sol
	if u.step != nil {
		solve, solved = warm, warmSol
	} else {
		// The packing and heuristic below need the requested platform.
		sp = u.want
	}
	l.add("steady.solve_ms", ms(solve), wt)
	l.add("steady.rounds", float64(solved.Rounds), wt)
	l.add("steady.cuts", float64(solved.Cuts), wt)
	l.add("steady.nonlp_ms", ms(solve-time.Duration(solved.LPWallNanos)), wt)
	l.add("lp.wall_ms", ms(time.Duration(solved.LPWallNanos)), wt)
	l.add("lp.pivots", float64(solved.LPIterations), wt)
	l.add("lp.warm_pivots", float64(solved.WarmPivots), wt)
	l.add("lp.cold_pivots", float64(solved.ColdPivots), wt)
	if solved.LPIterations > 0 {
		l.add("lp.us_per_pivot", float64(solved.LPWallNanos)/1e3/float64(solved.LPIterations), wt)
	}
	if u.trees > 0 {
		var pk *steady.Packing
		d := timed(func() { pk, err = pack.Decompose(sp, 0, solved, &pack.Options{MaxTrees: u.trees}) })
		if err != nil {
			return err
		}
		l.add("pack.decompose_ms", ms(d), wt)
		l.add("pack.trees", float64(pk.NumTrees()), wt)
	}
	if u.heuristic != "" {
		b, err := heuristics.ByNameWithRates(u.heuristic, solved.EdgeRate)
		if err != nil {
			return err
		}
		d := timed(func() { _, err = b.Build(sp, 0) })
		if err != nil {
			return err
		}
		l.add("heuristics.build_ms", ms(d), wt)
	}
	return nil
}

// serviceLayers times Engine.PlanContext by outcome on a fresh engine per
// unit: the miss that plans the unit's starting platform, the delta request
// that moves it by the unit's delta, a repeat of the unit's own request (a
// hit), and the marshal of the response envelope.
func serviceLayers(l *layerSums, u *unit, wt float64) error {
	ctx := context.Background()
	eng := service.New(service.Config{})
	fromReq := service.PlanRequest{Platform: u.from.Clone(), Heuristic: u.heuristic, Trees: u.trees, DeadlineMs: u.deadlineMs}
	var res *service.PlanResult
	var err error
	miss := timed(func() { res, err = eng.PlanContext(ctx, fromReq) })
	if err != nil {
		if u.stall {
			return nil
		}
		return err
	}
	l.add("service.miss_ms", ms(miss), wt)
	deltaReq := service.PlanRequest{Base: res.Plan.Fingerprint, Deltas: []platform.Delta{u.next}, Heuristic: u.heuristic, Trees: u.trees}
	delta := timed(func() { res, err = eng.PlanContext(ctx, deltaReq) })
	if err != nil {
		return err
	}
	l.add("service.delta_ms", ms(delta), wt)
	hitReq := service.PlanRequest{Platform: u.want, Heuristic: u.heuristic, Trees: u.trees}
	if u.step == nil {
		hitReq.Platform = u.from
	}
	l.add("service.hit_us", us(medianOf(reps, func() time.Duration {
		req := hitReq
		req.Platform = hitReq.Platform.Clone()
		return timed(func() { res, err = eng.PlanContext(ctx, req) })
	})), wt)
	if err != nil {
		return err
	}
	if !res.Cached {
		return fmt.Errorf("repeated request was not a cache hit")
	}
	l.add("http.encode_us", us(medianOf(reps, func() time.Duration {
		return timed(func() { _, err = json.Marshal(wireEnvelope{Cached: true, Plan: res.JSON}) })
	})), wt)
	return err
}
