package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/platform"
	"repro/internal/service"
)

// Tolerances of the plan verifier.
const (
	// occTol bounds the one-port occupation excess and the relative
	// shortfall of a destination's max-flow below the plan's throughput.
	occTol = 1e-6
	// gapTol is the solver's default relative gap between the master LP
	// bound and the reported throughput.
	gapTol = 1e-5
)

// verifyPlan checks a plan against the platform it was requested for, with
// this package's own arithmetic: identity keys, one-port occupation, an
// independent max-flow to every alive destination, the upper bound, and the
// named heuristic's tree and the k-tree packing when the request asked for
// them. It trusts nothing the solver computed beyond the plan itself.
func verifyPlan(p *platform.Platform, source int, plan *service.Plan, heuristic string, trees int) error {
	exact := sha256.Sum256(p.CanonicalEncoding())
	if plan.ExactKey != hex.EncodeToString(exact[:]) {
		return fmt.Errorf("exactKey %.16s does not match the platform", plan.ExactKey)
	}
	if plan.Fingerprint != p.Fingerprint().String() {
		return fmt.Errorf("fingerprint %.16s does not match the platform", plan.Fingerprint)
	}
	if plan.Source != source || plan.Nodes != p.NumNodes() || plan.Links != p.NumLinks() || len(plan.EdgeRate) != p.NumLinks() {
		return fmt.Errorf("plan shape source=%d nodes=%d links=%d rates=%d, platform has %d nodes %d links",
			plan.Source, plan.Nodes, plan.Links, len(plan.EdgeRate), p.NumNodes(), p.NumLinks())
	}
	tp := plan.Throughput
	if !(tp > 0) || math.IsInf(tp, 0) {
		return fmt.Errorf("throughput %v is not positive and finite", tp)
	}
	if tp > plan.UpperBound*(1+gapTol) {
		return fmt.Errorf("throughput %v exceeds upper bound %v", tp, plan.UpperBound)
	}
	for id, r := range plan.EdgeRate {
		if r < -occTol*tp || math.IsNaN(r) || (!p.LinkLive(id) && r > occTol*tp) {
			return fmt.Errorf("link %d carries rate %v (live=%v)", id, r, p.LinkLive(id))
		}
	}
	if err := onePort(p, plan.EdgeRate); err != nil {
		return err
	}
	if err := reachesAll(p, source, plan.EdgeRate, tp*(1-occTol)); err != nil {
		return err
	}
	if heuristic != "" {
		if plan.Heuristic != heuristic || plan.Tree == nil {
			return fmt.Errorf("heuristic %q answered as %q (tree present: %v)", heuristic, plan.Heuristic, plan.Tree != nil)
		}
		if err := spans(p, source, plan.Tree); err != nil {
			return fmt.Errorf("heuristic tree: %w", err)
		}
		if plan.HeuristicThroughput > tp*(1+occTol) {
			return fmt.Errorf("heuristic throughput %v exceeds the optimum %v", plan.HeuristicThroughput, tp)
		}
	}
	if trees > 0 {
		if err := verifyPacking(p, source, plan, trees); err != nil {
			return fmt.Errorf("packing: %w", err)
		}
	}
	return nil
}

// onePort checks that every alive node's incoming and outgoing occupation,
// the sum of rate x slice time over its live links, is at most 1.
func onePort(p *platform.Platform, rate []float64) error {
	in := make([]float64, p.NumNodes())
	out := make([]float64, p.NumNodes())
	for id := 0; id < p.NumLinks(); id++ {
		if !p.LinkLive(id) {
			continue
		}
		l := p.Link(id)
		occ := rate[id] * p.SliceTime(id)
		out[l.From] += occ
		in[l.To] += occ
	}
	for u := range in {
		if !p.NodeAlive(u) {
			continue
		}
		if in[u] > 1+occTol || out[u] > 1+occTol {
			return fmt.Errorf("node %d one-port occupation in=%v out=%v exceeds 1", u, in[u], out[u])
		}
	}
	return nil
}

// spans checks that t is an arborescence rooted at source that reaches every
// alive node through live links.
func spans(p *platform.Platform, source int, t *platform.Tree) error {
	n := p.NumNodes()
	if t.Root != source || len(t.Parent) != n || len(t.ParentLink) != n {
		return fmt.Errorf("tree root %d over %d/%d nodes, want root %d over %d", t.Root, len(t.Parent), len(t.ParentLink), source, n)
	}
	for v := 0; v < n; v++ {
		if v == source || !p.NodeAlive(v) {
			continue
		}
		u, id := t.Parent[v], t.ParentLink[v]
		if u < 0 || u >= n || id < 0 || id >= p.NumLinks() {
			return fmt.Errorf("alive node %d has no parent", v)
		}
		if l := p.Link(id); l.From != u || l.To != v || !p.LinkLive(id) {
			return fmt.Errorf("node %d hangs from %d on link %d, which is %d->%d (live=%v)", v, u, id, l.From, l.To, p.LinkLive(id))
		}
		// Walk to the root; more than n steps means a cycle.
		w := v
		for steps := 0; w != source; steps++ {
			if steps > n || t.Parent[w] < 0 {
				return fmt.Errorf("node %d does not reach the root", v)
			}
			w = t.Parent[w]
		}
	}
	return nil
}

// verifyPacking checks a k-tree plan: at most trees spanning trees with
// positive weights summing to the packed throughput, using no link beyond
// its edge rate.
func verifyPacking(p *platform.Platform, source int, plan *service.Plan, trees int) error {
	pk := plan.Packing
	if pk == nil || len(pk.Trees) == 0 {
		return fmt.Errorf("no packing for trees=%d", trees)
	}
	if len(pk.Trees) > trees || plan.PackedTrees != len(pk.Trees) {
		return fmt.Errorf("%d trees (reported %d) for a cap of %d", len(pk.Trees), plan.PackedTrees, trees)
	}
	tp := plan.Throughput
	use := make([]float64, p.NumLinks())
	sum := 0.0
	for i, pt := range pk.Trees {
		if pt.Tree == nil || !(pt.Weight > 0) {
			return fmt.Errorf("tree %d is missing or has weight %v", i, pt.Weight)
		}
		if err := spans(p, source, pt.Tree); err != nil {
			return fmt.Errorf("tree %d: %w", i, err)
		}
		sum += pt.Weight
		for v, id := range pt.Tree.ParentLink {
			if v != source && p.NodeAlive(v) {
				use[id] += pt.Weight
			}
		}
	}
	if math.Abs(sum-plan.PackedThroughput) > occTol*tp {
		return fmt.Errorf("weights sum to %v, packed throughput is %v", sum, plan.PackedThroughput)
	}
	if plan.PackedThroughput > tp*(1+occTol) {
		return fmt.Errorf("packed throughput %v exceeds the optimum %v", plan.PackedThroughput, tp)
	}
	for id, u := range use {
		if u > plan.EdgeRate[id]+occTol*tp {
			return fmt.Errorf("link %d used at %v above its edge rate %v", id, u, plan.EdgeRate[id])
		}
	}
	return nil
}

// reachesAll checks that the rates, taken as capacities of the live links,
// carry at least need from the source to every alive destination.
func reachesAll(p *platform.Platform, source int, rate []float64, need float64) error {
	f := newFlowNet(p, rate)
	for d := 0; d < p.NumNodes(); d++ {
		if d == source || !p.NodeAlive(d) {
			continue
		}
		if got := f.maxFlow(source, d, need); got < need {
			return fmt.Errorf("max-flow to node %d is %v, below throughput bound %v", d, got, need)
		}
	}
	return nil
}

// flowNet is a Dinic max-flow network over the live links of a platform
// between alive nodes.
type flowNet struct {
	head  []int
	to    []int
	next  []int
	cap0  []float64
	res   []float64
	level []int
	iter  []int
	eps   float64
}

func newFlowNet(p *platform.Platform, rate []float64) *flowNet {
	n := p.NumNodes()
	f := &flowNet{head: make([]int, n), level: make([]int, n), iter: make([]int, n)}
	for i := range f.head {
		f.head[i] = -1
	}
	maxCap := 0.0
	for id := 0; id < p.NumLinks(); id++ {
		l := p.Link(id)
		if !p.LinkLive(id) || !p.NodeAlive(l.From) || !p.NodeAlive(l.To) || !(rate[id] > 0) {
			continue
		}
		f.addArc(l.From, l.To, rate[id])
		f.addArc(l.To, l.From, 0)
		maxCap = math.Max(maxCap, rate[id])
	}
	f.eps = 1e-15 * maxCap
	return f
}

func (f *flowNet) addArc(u, v int, c float64) {
	f.to = append(f.to, v)
	f.cap0 = append(f.cap0, c)
	f.next = append(f.next, f.head[u])
	f.head[u] = len(f.to) - 1
}

// maxFlow returns the s-t max-flow, or a value of at least enough once that
// much has been pushed.
func (f *flowNet) maxFlow(s, t int, enough float64) float64 {
	f.res = append(f.res[:0], f.cap0...)
	flow := 0.0
	for flow < enough && f.bfs(s, t) {
		copy(f.iter, f.head)
		for {
			pushed := f.dfs(s, t, math.Inf(1))
			if pushed <= f.eps {
				break
			}
			flow += pushed
		}
	}
	return flow
}

func (f *flowNet) bfs(s, t int) bool {
	for i := range f.level {
		f.level[i] = -1
	}
	f.level[s] = 0
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for a := f.head[u]; a >= 0; a = f.next[a] {
			if v := f.to[a]; f.res[a] > f.eps && f.level[v] < 0 {
				f.level[v] = f.level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return f.level[t] >= 0
}

func (f *flowNet) dfs(u, t int, limit float64) float64 {
	if u == t {
		return limit
	}
	for ; f.iter[u] >= 0; f.iter[u] = f.next[f.iter[u]] {
		a := f.iter[u]
		v := f.to[a]
		if f.res[a] <= f.eps || f.level[v] != f.level[u]+1 {
			continue
		}
		if d := f.dfs(v, t, math.Min(limit, f.res[a])); d > f.eps {
			f.res[a] -= d
			f.res[a^1] += d
			return d
		}
	}
	return 0
}
