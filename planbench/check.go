package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"repro/internal/parallel"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/steady"
)

// checker verifies a workload's responses outside the timed clock. Plans
// are verified once per distinct (unit, plan bytes) pair; later rounds that
// answer with the same bytes only compare them.
type checker struct {
	w *workload
	// hit says, per unit, whether the schedule predicts its timed request
	// to be a cache hit.
	hit []bool
	// entryPlan holds the plan bytes of the miss that created each cache
	// entry of the current engine; a hit must repeat them.
	entryPlan map[cacheKey][]byte
	// verdict caches the verification outcome of each distinct (unit, plan
	// bytes) pair; last is the verdict of each unit's latest answer.
	verdict map[[32]byte]error
	last    map[int]error
	// coldTP is the throughput of a cold-start solve of each lineage step's
	// platform, computed once per run.
	coldTP  []float64
	coldErr error
}

// cacheKey is the engine's cache identity of a request as this package
// models it: the exact platform plus the request options that change the
// answer.
type cacheKey struct {
	exact     [32]byte
	heuristic string
	trees     int
}

func keyOf(u *unit, p *platform.Platform) cacheKey {
	return cacheKey{sha256.Sum256(p.CanonicalEncoding()), u.heuristic, u.trees}
}

func newChecker(w *workload) *checker {
	c := &checker{w: w, verdict: make(map[[32]byte]error), last: make(map[int]error)}
	_, c.hit = c.predict(1)
	return c
}

func decodeEnvelope(body []byte) (*wireEnvelope, *service.Plan, error) {
	var env wireEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, nil, fmt.Errorf("response body: %w", err)
	}
	var plan service.Plan
	if err := json.Unmarshal(env.Plan, &plan); err != nil {
		return nil, nil, fmt.Errorf("plan: %w", err)
	}
	return &env, &plan, nil
}

// warm checks the set-up responses of a new engine: every warm unit is a
// miss whose plan verifies, unless the unit is a known fault.
func (c *checker) warm(resps []response) error {
	c.entryPlan = make(map[cacheKey][]byte)
	for _, r := range resps {
		u := c.w.units[r.unit]
		if r.status != http.StatusOK {
			return fmt.Errorf("warm-up %s: status %d: %s", u.name, r.status, r.body)
		}
		env, verr, err := c.plan(r)
		if err != nil {
			return err
		}
		if verr != nil && u.fault == "" {
			return verr
		}
		if env.Cached {
			return fmt.Errorf("warm-up %s: answered from the cache", u.name)
		}
		c.entryPlan[keyOf(u, u.want)] = env.Plan
	}
	return nil
}

// plan decodes one answered response and verifies its plan. err reports a
// malformed answer; verr a plan that fails verification.
func (c *checker) plan(r response) (env *wireEnvelope, verr, err error) {
	u := c.w.units[r.unit]
	env, plan, err := decodeEnvelope(r.body)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", u.name, err)
	}
	key := sha256.Sum256(append([]byte(u.name+"\x00"), env.Plan...))
	verr, seen := c.verdict[key]
	if !seen {
		verr = verifyPlan(u.want, 0, plan, u.heuristic, u.trees)
		if verr == nil && u.step != nil {
			verr = c.coldAgrees(r.unit, plan.Throughput)
		}
		if verr != nil {
			verr = fmt.Errorf("%s: %w", u.name, verr)
		}
		c.verdict[key] = verr
	}
	c.last[r.unit] = verr
	return env, verr, nil
}

// timed checks the responses of one timed round, given in the order each
// client received them, and reports which of them are correct answers.
// Only a unit with a known fault may answer wrongly: such answers are
// failed operations. Any other wrong answer is an error.
func (c *checker) timed(resps []response) ([]bool, error) {
	ok := make([]bool, len(resps))
	for i, r := range resps {
		u := c.w.units[r.unit]
		var verr error
		switch {
		case r.status == http.StatusGatewayTimeout && u.stall:
			verr = fmt.Errorf("%s: deadline", u.name)
		case r.status != http.StatusOK:
			return nil, fmt.Errorf("%s: status %d: %s", u.name, r.status, r.body)
		case r.body == nil:
			verr = c.last[r.unit] // byte-identical to this client's previous answer
		default:
			env, v, err := c.plan(r)
			if err != nil {
				return nil, err
			}
			if env.Cached != c.hit[r.unit] {
				return nil, fmt.Errorf("%s: cached=%v, the schedule predicts %v", u.name, env.Cached, c.hit[r.unit])
			}
			k := keyOf(u, u.want)
			if !env.Cached {
				c.entryPlan[k] = env.Plan
			} else if !bytes.Equal(env.Plan, c.entryPlan[k]) {
				return nil, fmt.Errorf("%s: hit plan bytes differ from the miss that created the entry", u.name)
			}
			verr = v
		}
		if verr != nil && u.fault == "" {
			return nil, verr
		}
		ok[i] = verr == nil
	}
	return ok, nil
}

// coldAgrees compares a lineage step's throughput with a cold-start solve
// of the benchmark's own copy of the mutated platform.
func (c *checker) coldAgrees(ui int, tp float64) error {
	if c.coldTP == nil {
		c.coldTP = make([]float64, len(c.w.units))
		errs := make([]error, len(c.w.units))
		parallel.Map(len(c.w.units), 2, func(i int) struct{} {
			u := c.w.units[i]
			if u.step == nil {
				return struct{}{}
			}
			sol, err := steady.NewSession(u.want.Clone(), 0, &steady.Options{ColdStart: true}).Resolve()
			if err != nil {
				errs[i] = fmt.Errorf("%s: cold-start reference: %w", u.name, err)
			} else {
				c.coldTP[i] = sol.Throughput
			}
			return struct{}{}
		})
		for _, err := range errs {
			if err != nil {
				c.coldErr = err
				break
			}
		}
	}
	if c.coldErr != nil {
		return c.coldErr
	}
	ref := c.coldTP[ui]
	if math.Abs(tp-ref) > occTol*math.Max(math.Abs(tp), math.Abs(ref)) {
		return fmt.Errorf("%s: throughput %v differs from the cold-start solve %v", c.w.units[ui].name, tp, ref)
	}
	return nil
}

// stats checks an engine's counters against what the schedule predicts:
// the warm-up plus one round of traffic for fresh-engine workloads, the
// warm-up plus every round otherwise.
func (c *checker) stats(got service.Stats, rounds, canceled int) error {
	want, _ := c.predict(rounds)
	// A stalled grid request that meets its deadline is a mended fault, not
	// a miscount.
	want.Canceled = int64(canceled)
	type pair struct {
		name      string
		got, want int64
	}
	for _, p := range []pair{
		{"requests", got.Requests, want.Requests},
		{"hits", got.Hits, want.Hits},
		{"misses", got.Misses, want.Misses},
		{"solves", got.Solves, want.Solves},
		{"deltaPlans", got.DeltaPlans, want.DeltaPlans},
		{"warmResolves", got.WarmResolves, want.WarmResolves},
		{"sessionRebuilds", got.SessionRebuilds, want.SessionRebuilds},
		{"canceled", got.Canceled, want.Canceled},
		{"evictions", got.Evictions, 0},
		{"twinMisses", got.TwinMisses, 0},
		{"shed", got.Shed, 0},
	} {
		if p.got != p.want {
			return fmt.Errorf("engine stats: %s = %d, the schedule predicts %d", p.name, p.got, p.want)
		}
	}
	return nil
}

// predict replays the warm-up and rounds rounds of traffic against a model
// of the engine's cache: which exact platforms (with their request options)
// are cached, and which warm session each entry holds. It returns the
// predicted counters and, per unit, whether its last timed request is a
// hit. Lineages and plain requests share no platforms, so the order clients
// interleave them in does not change the prediction.
func (c *checker) predict(rounds int) (service.Stats, []bool) {
	const (
		none    = iota
		fresh   // a session that has never solved
		started // a session that solved a state the entry's differs from by tightening deltas only
		dirty   // a session with a loosening delta not yet solved
	)
	var st service.Stats
	hit := make([]bool, len(c.w.units))
	cache := make(map[cacheKey]int)
	plain := func(ui int) {
		u := c.w.units[ui]
		st.Requests++
		k := keyOf(u, u.want)
		if _, ok := cache[k]; ok {
			st.Hits++
			hit[ui] = true
			return
		}
		st.Misses++
		st.Solves++
		st.SessionRebuilds++
		if u.stall {
			return
		}
		cache[k] = started
	}
	step := func(ui int) {
		u := c.w.units[ui]
		st.DeltaPlans++
		st.Requests++
		bk := keyOf(u, u.from)
		sess := cache[bk]
		cache[bk] = none
		if sess == none {
			sess = fresh
		}
		k := keyOf(u, u.want)
		if cur, ok := cache[k]; ok {
			st.Hits++
			hit[ui] = true
			if cur == none {
				// The session comes along with the delta it has not solved.
				if sess == started && !u.step.Tightening() {
					sess = dirty
				}
				cache[k] = sess
			}
			return
		}
		st.Misses++
		st.Solves++
		if sess == started && u.step.Tightening() {
			st.WarmResolves++
		} else {
			st.SessionRebuilds++
		}
		cache[k] = started
	}
	for _, ui := range c.w.warm {
		plain(ui)
	}
	for r := 0; r < rounds; r++ {
		for _, ch := range c.w.chains {
			for _, ui := range ch {
				hit[ui] = false
				if c.w.units[ui].step != nil {
					step(ui)
				} else {
					plain(ui)
				}
			}
		}
	}
	return st, hit
}
