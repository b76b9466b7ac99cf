package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/platform"
	"repro/internal/topology"
)

// TestPlanHitAllocsFlatInSize pins the exact-key-first hit path: a cache hit
// hashes the canonical encoding and looks the key up, and never refines the
// fingerprint, so its allocation count does not grow with the platform.
func TestPlanHitAllocsFlatInSize(t *testing.T) {
	allocs := make(map[int]float64)
	for _, n := range []int{96, 256} {
		p, err := topology.Star(n, topology.Uniform(1), topology.NewRNG(int64(n)))
		if err != nil {
			t.Fatal(err)
		}
		e := New(Config{})
		req := PlanRequest{Platform: p, Source: 0}
		if _, err := e.Plan(req); err != nil {
			t.Fatal(err)
		}
		allocs[n] = testing.AllocsPerRun(20, func() {
			if res, err := e.Plan(req); err != nil || !res.Cached {
				t.Fatalf("repeat request not served from the cache: %v", err)
			}
		})
		if allocs[n] > 8 {
			t.Errorf("n=%d: a cache hit allocates %.0f times, want <= 8", n, allocs[n])
		}
	}
	if allocs[96] != allocs[256] {
		t.Errorf("hit allocations grow with the platform: %.0f at n=96, %.0f at n=256", allocs[96], allocs[256])
	}
}

// TestPlanExactFirstTwinAccounting checks that looking the exact key up
// first changes nothing for renumbered twins: the twin is a counted twin
// miss, each numbering is served only its own plan, and every plan carries
// the fingerprint and exact key of the platform it was solved for.
func TestPlanExactFirstTwinAccounting(t *testing.T) {
	var events []LookupEvent
	e := New(Config{Hooks: &Hooks{OnLookup: func(ev LookupEvent) { events = append(events, ev) }}})
	p := smallPlatform(t, 5)
	twin := permutedTwin(p)
	if p.Fingerprint() != twin.Fingerprint() {
		t.Fatal("twin does not share the fingerprint (test setup)")
	}
	seq := []*platform.Platform{p, twin, p, twin, twin}
	plans := make(map[string][]byte) // exact key -> plan bytes
	for i, q := range seq {
		res, err := e.Plan(PlanRequest{Platform: q, Source: 0})
		if err != nil {
			t.Fatal(err)
		}
		exact := sha256.Sum256(q.CanonicalEncoding())
		if got, want := res.Plan.ExactKey, hex.EncodeToString(exact[:]); got != want {
			t.Fatalf("request %d: plan exact key %s, want the requested platform's %s", i, got, want)
		}
		if got, want := res.Plan.Fingerprint, q.Fingerprint().String(); got != want {
			t.Fatalf("request %d: plan fingerprint %s, want %s", i, got, want)
		}
		if first, ok := plans[res.Plan.ExactKey]; ok {
			if !res.Cached || !bytes.Equal(res.JSON, first) {
				t.Fatalf("request %d: repeat of a numbering not served its own cached plan", i)
			}
		} else {
			plans[res.Plan.ExactKey] = res.JSON
			if res.Cached {
				t.Fatalf("request %d: first request of a numbering served from the cache", i)
			}
		}
	}
	st := e.Stats()
	if st.Requests != 5 || st.Hits != 3 || st.Misses != 2 || st.TwinMisses != 1 || st.Solves != 2 {
		t.Errorf("stats = %+v, want 5 requests, 3 hits, 2 misses, 1 twin miss, 2 solves", st)
	}
	want := []LookupEvent{{Miss: true}, {Miss: true, Twin: true}, {}, {}, {}}
	if len(events) != len(want) {
		t.Fatalf("lookup events %+v, want %+v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("lookup event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
}

// TestPlanBaseDeltaResolvesByFingerprint checks that delta requests still
// resolve their base by fingerprint, now that lookups start from the exact
// key: the base is found, the mutated plan carries the mutated platform's
// digests, and the mutated platform sent in full is then a hit.
func TestPlanBaseDeltaResolvesByFingerprint(t *testing.T) {
	e := New(Config{})
	p := smallPlatform(t, 17)
	base, err := e.Plan(PlanRequest{Platform: p, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	d := platform.Delta{Kind: platform.DeltaScaleLink, Link: 1, Factor: 1.5}
	mut, err := e.Plan(PlanRequest{Base: base.Plan.Fingerprint, Deltas: []platform.Delta{d}, Source: 0})
	if err != nil {
		t.Fatalf("delta request by base fingerprint: %v", err)
	}
	if !mut.WarmResolved || mut.Cached {
		t.Errorf("delta request: warm=%v cached=%v, want a warm re-solve", mut.WarmResolved, mut.Cached)
	}
	q := p.Clone()
	if _, err := q.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	exact := sha256.Sum256(q.CanonicalEncoding())
	if mut.Plan.Fingerprint != q.Fingerprint().String() || mut.Plan.ExactKey != hex.EncodeToString(exact[:]) {
		t.Errorf("mutated plan digests (%s, %s) do not name the mutated platform", mut.Plan.Fingerprint, mut.Plan.ExactKey)
	}
	full, err := e.Plan(PlanRequest{Platform: q, Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Cached || !bytes.Equal(full.JSON, mut.JSON) {
		t.Error("the mutated platform sent in full should hit the delta request's entry")
	}
	// The mutated entry is itself a base for the next step of the lineage.
	if _, err := e.Plan(PlanRequest{Base: mut.Plan.Fingerprint, Deltas: []platform.Delta{d}, Source: 0}); err != nil {
		t.Fatalf("chained delta request: %v", err)
	}
	if st := e.Stats(); st.DeltaPlans != 2 || st.Requests != st.Hits+st.Misses {
		t.Errorf("stats = %+v, want 2 delta plans and hits+misses == requests", st)
	}
}
