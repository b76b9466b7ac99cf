package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/heuristics"
	"repro/internal/platform"
	"repro/internal/scenarios"
	"repro/internal/service"
)

// unit is one distinct plan request of a workload.
type unit struct {
	name string
	// from is the platform the request starts from: the full platform of a
	// plain request, the lineage state the delta applies to for a delta step.
	from *platform.Platform
	// step is the delta a lineage step sends (nil for a plain request).
	step *platform.Delta
	// next is the delta the layer pass applies to from: the step itself, or
	// the first event of the family's churn trace for a plain request.
	next platform.Delta
	// want is the platform the plan must be for: from, with step applied.
	want       *platform.Platform
	heuristic  string
	trees      int
	deadlineMs int
	// fault names a known program fault the unit's answers meet; they count
	// as failed operations until it is mended. stall marks the grid
	// requests that fail on their deadline.
	fault string
	stall bool
	req   service.PlanRequest
	body  []byte
}

// workload is the generated traffic of one benchmark workload.
type workload struct {
	name  string
	units []*unit
	// warm lists the units planned during set-up (and again at the start of
	// each round when fresh is set), before any timed request.
	warm []int
	// chains is one round of timed traffic before the seeded shuffle: each
	// chain is sent in order by one client.
	chains [][]int
	// fresh starts every round on a new engine.
	fresh bool
	// roundSeconds is the nominal duration of one round on the reference
	// machine; it turns --seconds into a fixed round count.
	roundSeconds float64
	// tailPct is the percentile reported as latency_tail_ms: the highest
	// whole or half percentile with at least ten samples beyond it, in one
	// round when tailPerRound is set, else in a run of the nominal length.
	tailPct      float64
	tailPerRound bool
}

// platformSeed is the first seed of every platform rule. Solve work varies
// 100-fold between seeds of one family, so every run sees the same
// platforms and --seed only orders the traffic.
const platformSeed = 200

// stallDeadlineMs is the per-request deadline of the grid requests.
const stallDeadlineMs = 1000

func workloadNames() []string { return []string{"hit-heavy", "cold-miss", "churn-lineage"} }

// buildWorkload generates the workload's requests from the registry.
func buildWorkload(name string, pseed int64) (*workload, error) {
	switch name {
	case "hit-heavy":
		return hitHeavy(pseed)
	case "cold-miss":
		return coldMiss(pseed)
	case "churn-lineage":
		return churnLineage(pseed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}

type spec struct {
	family    string
	n         int
	seed      int64
	heuristic string
	trees     int
}

// plainUnit generates the platform of s and its plain plan request. The
// layer-pass delta is the first event of the family's churn trace.
func plainUnit(s spec) (*unit, error) {
	sc, err := scenarios.Get(s.family)
	if err != nil {
		return nil, err
	}
	p, tr, err := scenarios.ChurnTrace(sc, s.n, 0, s.seed)
	if err != nil {
		return nil, fmt.Errorf("%s n=%d seed=%d: %w", s.family, s.n, s.seed, err)
	}
	u := &unit{
		name: fmt.Sprintf("%s/%d/%d", s.family, s.n, s.seed),
		from: p, want: p, next: tr.Events[0].Delta, heuristic: s.heuristic, trees: s.trees,
	}
	u.req = service.PlanRequest{Platform: p, Heuristic: s.heuristic, Trees: s.trees}
	return u, u.encode()
}

func (u *unit) encode() error {
	b, err := json.Marshal(u.req)
	u.body = b
	return err
}

// hitHeavy plans a fixed hot set once during set-up; the timed traffic is
// zipf-popular requests for the hot set, every one a cache hit. Popularity
// follows the hot-set order below with weight 1/rank, as exact per-round
// quotas, so every seed sends the same multiset of requests.
func hitHeavy(pseed int64) (*workload, error) {
	hot := []spec{
		{family: scenarios.NameClusters, n: 96, seed: pseed},
		{family: scenarios.NameTiers, n: 96, seed: pseed, heuristic: heuristics.NameLPGrowTree},
		{family: scenarios.NameStar, n: 128, seed: pseed},
		{family: scenarios.NameChain, n: 256, seed: pseed, trees: 8},
		{family: scenarios.NameRing, n: 96, seed: pseed},
		{family: scenarios.NameClusters, n: 256, seed: pseed, trees: 8},
		{family: scenarios.NameTiers, n: 96, seed: pseed + 1},
		{family: scenarios.NameChain, n: 128, seed: pseed, heuristic: heuristics.NameGrowTree},
		{family: scenarios.NameRing, n: 128, seed: pseed},
		{family: scenarios.NameStar, n: 512, seed: pseed},
		{family: scenarios.NameClusters, n: 128, seed: pseed, heuristic: heuristics.NamePruneDegree},
		{family: scenarios.NameStar, n: 96, seed: pseed + 1},
	}
	w := &workload{name: "hit-heavy", roundSeconds: 0.75, tailPct: 98, tailPerRound: true}
	const perRound = 600
	quota := zipfQuotas(len(hot), perRound)
	for i, s := range hot {
		u, err := plainUnit(s)
		if err != nil {
			return nil, err
		}
		if s.family == scenarios.NameStar && s.n == 512 {
			u.fault = "the reported throughput exceeds the rates' min-cut by more than 1e-6"
		}
		w.units = append(w.units, u)
		w.warm = append(w.warm, i)
		for k := 0; k < quota[i]; k++ {
			w.chains = append(w.chains, []int{i})
		}
	}
	return w, nil
}

// zipfQuotas splits total requests over k ranks with weight 1/rank, by
// largest remainder so the quotas sum to total exactly.
func zipfQuotas(k, total int) []int {
	sum := 0.0
	for r := 1; r <= k; r++ {
		sum += 1 / float64(r)
	}
	q := make([]int, k)
	rem := make([]float64, k)
	left := total
	for r := 1; r <= k; r++ {
		x := float64(total) / float64(r) / sum
		q[r-1] = int(x)
		rem[r-1] = x - float64(q[r-1])
		left -= q[r-1]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		q[best]++
		rem[best] = -1
	}
	return q
}

// coldMiss sends every platform once per round to a fresh engine, so every
// request is a platform the engine has never seen. The platforms are
// families x sizes x consecutive seeds:
//   - master-dominated: star, chain, cluster-of-clusters at n 64 and 128,
//     seeds pseed..pseed+3;
//   - many cutting-plane rounds: ring at n 96, 128, 256 and tiers at n 64,
//     96, seeds pseed..pseed+2;
//   - the grid stall: grid at n 96, seeds pseed..pseed+2, each under a
//     stallDeadlineMs deadline.
//
// Every fourth platform in generation order names a tree heuristic
// (cycling grow-tree, lp-grow-tree, prune-degree) and every fourth, offset
// by two, asks for an 8-tree packing.
func coldMiss(pseed int64) (*workload, error) {
	var specs []spec
	for _, f := range []string{scenarios.NameStar, scenarios.NameChain, scenarios.NameClusters} {
		for _, n := range []int{64, 128} {
			for s := pseed; s < pseed+4; s++ {
				specs = append(specs, spec{family: f, n: n, seed: s})
			}
		}
	}
	for _, fn := range []struct {
		f  string
		ns []int
	}{{scenarios.NameRing, []int{96, 128, 256}}, {scenarios.NameTiers, []int{64, 96}}} {
		for _, n := range fn.ns {
			for s := pseed; s < pseed+3; s++ {
				specs = append(specs, spec{family: fn.f, n: n, seed: s})
			}
		}
	}
	named := []string{heuristics.NameGrowTree, heuristics.NameLPGrowTree, heuristics.NamePruneDegree}
	for i := range specs {
		switch i % 4 {
		case 1:
			specs[i].heuristic = named[(i/4)%len(named)]
		case 3:
			specs[i].trees = 8
		}
	}
	w := &workload{name: "cold-miss", fresh: true, roundSeconds: 5, tailPct: 94.5}
	for _, s := range specs {
		u, err := plainUnit(s)
		if err != nil {
			return nil, err
		}
		w.units = append(w.units, u)
	}
	for s := pseed; s < pseed+3; s++ {
		u, err := plainUnit(spec{family: scenarios.NameGrid, n: 96, seed: s})
		if err != nil {
			return nil, err
		}
		u.stall, u.deadlineMs = true, stallDeadlineMs
		u.fault = "the master LP stalls on degenerate grid platforms"
		u.req.DeadlineMs = stallDeadlineMs
		if err := u.encode(); err != nil {
			return nil, err
		}
		w.units = append(w.units, u)
	}
	for i := range w.units {
		w.chains = append(w.chains, []int{i})
	}
	return w, nil
}

// lineageSteps is the number of delta requests per lineage.
const lineageSteps = 8

// churnLineage plans one base platform per lineage during set-up (and at
// the start of every round, on a fresh engine); the timed traffic is each
// lineage's chain of delta requests: Base = the fingerprint of the previous
// state, Deltas = the next event of the family's churn trace. Lineages are
// cluster-of-clusters, ring, chain and star at n=96, seeds pseed and
// pseed+1; the second lineage of each family names lp-grow-tree, and the
// ring and star lineages of seed pseed ask for an 8-tree packing.
func churnLineage(pseed int64) (*workload, error) {
	w := &workload{name: "churn-lineage", fresh: true, roundSeconds: 0.7, tailPct: 99.5}
	fams := []string{scenarios.NameClusters, scenarios.NameRing, scenarios.NameChain, scenarios.NameStar}
	for _, f := range fams {
		for s := pseed; s < pseed+2; s++ {
			sp := spec{family: f, n: 96, seed: s}
			if s == pseed+1 {
				sp.heuristic = heuristics.NameLPGrowTree
			} else if f == scenarios.NameRing || f == scenarios.NameStar {
				sp.trees = 8
			}
			sc, err := scenarios.Get(f)
			if err != nil {
				return nil, err
			}
			p, tr, err := scenarios.ChurnTrace(sc, sp.n, 0, s)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d seed=%d: %w", f, sp.n, s, err)
			}
			if len(tr.Events) < lineageSteps {
				return nil, fmt.Errorf("%s n=%d seed=%d: trace has %d events, want %d", f, sp.n, s, len(tr.Events), lineageSteps)
			}
			base := &unit{
				name: fmt.Sprintf("%s/%d/%d", f, sp.n, s),
				from: p, want: p, next: tr.Events[0].Delta, heuristic: sp.heuristic, trees: sp.trees,
			}
			base.req = service.PlanRequest{Platform: p, Heuristic: sp.heuristic, Trees: sp.trees}
			if err := base.encode(); err != nil {
				return nil, err
			}
			w.warm = append(w.warm, len(w.units))
			w.units = append(w.units, base)
			var chain []int
			cur := p
			for k := 0; k < lineageSteps; k++ {
				d := tr.Events[k].Delta
				next := cur.Clone()
				if _, err := next.ApplyDelta(d); err != nil {
					return nil, fmt.Errorf("%s step %d: %w", base.name, k+1, err)
				}
				u := &unit{
					name: base.name + "/" + strconv.Itoa(k+1),
					from: cur, step: &tr.Events[k].Delta, next: d, want: next,
					heuristic: sp.heuristic, trees: sp.trees,
				}
				u.req = service.PlanRequest{Base: cur.Fingerprint().String(), Deltas: []platform.Delta{d}, Heuristic: sp.heuristic, Trees: sp.trees}
				if err := u.encode(); err != nil {
					return nil, err
				}
				chain = append(chain, len(w.units))
				w.units = append(w.units, u)
				cur = next
			}
			w.chains = append(w.chains, chain)
		}
	}
	return w, nil
}

// digest hashes the workload's generated requests: every unit's name and
// body in generation order, the warm-up list and the unshuffled chains. It
// does not depend on --seed.
func (w *workload) digest() string {
	var b bytes.Buffer
	for _, u := range w.units {
		fmt.Fprintf(&b, "unit %s %d\n", u.name, len(u.body))
		b.Write(u.body)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "warm %v\nchains %v\n", w.warm, w.chains)
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

// order returns one round of chains shuffled by the run seed.
func (w *workload) order(seed int64, round int) [][]int {
	out := append([][]int(nil), w.chains...)
	r := rand.New(rand.NewSource(seed*7919 + int64(round)))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// rounds turns the requested run length into a fixed round count.
func (w *workload) rounds(seconds int) int {
	r := int(float64(seconds)/w.roundSeconds + 0.5)
	if r < 1 {
		r = 1
	}
	return r
}
