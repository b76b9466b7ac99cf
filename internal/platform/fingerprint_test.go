package platform

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/model"
)

// randomTestPlatform builds a connected random platform with heterogeneous
// costs from a seed: a bidirectional ring plus extra directed links.
func randomTestPlatform(n int, seed int64) *Platform {
	rng := rand.New(rand.NewSource(seed))
	p := New(n)
	p.SetSliceSize(0.5 + rng.Float64())
	for u := 0; u < n; u++ {
		p.SetNode(u, Node{
			Send: model.AffineCost{Latency: rng.Float64() * 0.1, PerUnit: 0.1 + rng.Float64()},
			Recv: model.AffineCost{Latency: rng.Float64() * 0.1, PerUnit: 0.1 + rng.Float64()},
		})
	}
	for u := 0; u < n; u++ {
		cost := model.AffineCost{Latency: rng.Float64() * 0.05, PerUnit: 0.2 + rng.Float64()}
		p.MustAddLink(u, (u+1)%n, cost)
		p.MustAddLink((u+1)%n, u, cost)
	}
	for k := 0; k < n; k++ {
		from, to := rng.Intn(n), rng.Intn(n)
		if from == to || p.HasLink(from, to) {
			continue
		}
		p.MustAddLink(from, to, model.AffineCost{PerUnit: 0.2 + rng.Float64()})
	}
	return p
}

// permuted rebuilds the platform with node IDs renumbered by perm
// (new ID of old node u is perm[u]) and links inserted in linkOrder.
func permuted(p *Platform, perm []int, linkOrder []int) *Platform {
	q := New(p.NumNodes())
	q.SetSliceSize(p.SliceSize())
	for u := 0; u < p.NumNodes(); u++ {
		q.SetNode(perm[u], p.Node(u))
	}
	links := p.Links()
	for _, id := range linkOrder {
		l := links[id]
		q.MustAddLink(perm[l.From], perm[l.To], l.Cost)
	}
	// Replay the live state through deltas so masks carry over.
	for id, nid := range linkOrder {
		if !p.LinkAlive(nid) {
			if _, err := q.ApplyDelta(Delta{Kind: DeltaLinkDown, Link: id}); err != nil {
				panic(err)
			}
		}
	}
	for u := 0; u < p.NumNodes(); u++ {
		if !p.NodeAlive(u) {
			if _, err := q.ApplyDelta(Delta{Kind: DeltaNodeDown, Node: perm[u]}); err != nil {
				panic(err)
			}
		}
	}
	return q
}

func TestFingerprintPermutationInvariant(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		p := randomTestPlatform(6+int(seed)%7, seed)
		rng := rand.New(rand.NewSource(seed * 101))
		// Mutate some platforms so masks participate too.
		if seed%3 == 0 {
			if _, err := p.ApplyDelta(Delta{Kind: DeltaLinkDown, Link: rng.Intn(p.NumLinks())}); err != nil {
				t.Fatal(err)
			}
		}
		want := p.Fingerprint()
		for trial := 0; trial < 5; trial++ {
			perm := rng.Perm(p.NumNodes())
			order := rng.Perm(p.NumLinks())
			q := permuted(p, perm, order)
			if got := q.Fingerprint(); got != want {
				t.Fatalf("seed %d trial %d: permuted platform fingerprints differently:\n  %s\n  %s",
					seed, trial, want, got)
			}
		}
	}
}

func TestFingerprintRunStable(t *testing.T) {
	p := New(3)
	p.MustAddLink(0, 1, model.Linear(1))
	p.MustAddLink(1, 2, model.Linear(2))
	p.MustAddLink(0, 2, model.AffineCost{Latency: 0.5, PerUnit: 3})
	// The literal below pins the hash construction: if it changes, every
	// persisted fingerprint (cache keys, logs) silently stops matching, so
	// the constant must only be updated deliberately.
	const want = "4abea95b447513233a80424275c9ba263c47188b5ede54208301d538d903705a"
	for i := 0; i < 3; i++ {
		if got := p.Fingerprint().String(); got != want {
			t.Fatalf("fingerprint not stable: got %s, want %s", got, want)
		}
	}
	parsed, err := ParseFingerprint(want)
	if err != nil {
		t.Fatal(err)
	}
	if parsed != p.Fingerprint() {
		t.Fatal("ParseFingerprint does not round-trip String")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := randomTestPlatform(8, 42)
	fp := base.Fingerprint()

	cost := base.Clone()
	cost.ScaleLinkCost(3, 1.5)
	if cost.Fingerprint() == fp {
		t.Error("scaling a link cost did not change the fingerprint")
	}

	slice := base.Clone()
	slice.SetSliceSize(base.SliceSize() * 2)
	if slice.Fingerprint() == fp {
		t.Error("changing the slice size did not change the fingerprint")
	}

	down := base.Clone()
	if _, err := down.ApplyDelta(Delta{Kind: DeltaLinkDown, Link: 0}); err != nil {
		t.Fatal(err)
	}
	if down.Fingerprint() == fp {
		t.Error("downing a link did not change the fingerprint")
	}

	node := base.Clone()
	if _, err := node.ApplyDelta(Delta{Kind: DeltaNodeDown, Node: 5}); err != nil {
		t.Fatal(err)
	}
	if node.Fingerprint() == fp {
		t.Error("downing a node did not change the fingerprint")
	}

	extra := base.Clone()
	extra.MustAddLink(0, 4, model.Linear(9.75))
	if extra.Fingerprint() == fp {
		t.Error("adding a link did not change the fingerprint")
	}
}

func TestFingerprintIgnoresHistoryAndNames(t *testing.T) {
	p := randomTestPlatform(7, 7)
	fp := p.Fingerprint()

	// Apply a delta and undo it: content restored, journal longer.
	inv, err := p.ApplyDelta(Delta{Kind: DeltaScaleLink, Link: 2, Factor: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ApplyDelta(inv); err != nil {
		t.Fatal(err)
	}
	if p.JournalLen() != 2 {
		t.Fatalf("journal length = %d, want 2", p.JournalLen())
	}
	if got := p.Fingerprint(); got != fp {
		t.Errorf("mutate+undo changed the fingerprint: %s vs %s", got, fp)
	}

	named := p.Clone()
	n := named.Node(0)
	n.Name = "head-node"
	named.SetNode(0, n)
	if named.Fingerprint() != fp {
		t.Error("node names must not contribute to the fingerprint")
	}
}

func TestCanonicalEncodingDetectsRenumbering(t *testing.T) {
	p := randomTestPlatform(6, 9)
	if !bytes.Equal(p.CanonicalEncoding(), p.Clone().CanonicalEncoding()) {
		t.Fatal("clone does not encode identically")
	}
	rng := rand.New(rand.NewSource(5))
	perm := rng.Perm(p.NumNodes())
	for isIdentity(perm) {
		perm = rng.Perm(p.NumNodes())
	}
	q := permuted(p, perm, identity(p.NumLinks()))
	if p.Fingerprint() != q.Fingerprint() {
		t.Fatal("permuted twin should share the fingerprint")
	}
	if bytes.Equal(p.CanonicalEncoding(), q.CanonicalEncoding()) {
		t.Fatal("canonical encoding must distinguish renumbered twins")
	}
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func isIdentity(perm []int) bool {
	for i, v := range perm {
		if i != v {
			return false
		}
	}
	return true
}

// referenceFingerprint is the original boxed-field formulation of
// Fingerprint: one fresh hasher per tuple, every field passed through
// interface{}, sort.Slice over colors. It is kept as the oracle the
// allocation-free implementation must reproduce byte for byte.
func referenceFingerprint(p *Platform) Fingerprint {
	n := p.NumNodes()
	colors := make([]Fingerprint, n)
	for u := 0; u < n; u++ {
		nd := p.Node(u)
		colors[u] = refHashTuple('N',
			refF64(nd.Send.Latency), refF64(nd.Send.PerUnit),
			refF64(nd.Recv.Latency), refF64(nd.Recv.PerUnit),
			boolByte(p.NodeAlive(u)))
	}
	refCount := func(cs []Fingerprint) int {
		seen := make(map[Fingerprint]struct{}, len(cs))
		for _, c := range cs {
			seen[c] = struct{}{}
		}
		return len(seen)
	}
	prevClasses := refCount(colors)
	next := make([]Fingerprint, n)
	for round := 0; round < n; round++ {
		for u := 0; u < n; u++ {
			var sigs []Fingerprint
			for _, id := range p.OutLinkIDs(u) {
				l := p.Link(id)
				sigs = append(sigs, refHashTuple('>',
					refF64(l.Cost.Latency), refF64(l.Cost.PerUnit),
					boolByte(p.LinkAlive(id)), colors[l.To][:]))
			}
			for _, id := range p.InLinkIDs(u) {
				l := p.Link(id)
				sigs = append(sigs, refHashTuple('<',
					refF64(l.Cost.Latency), refF64(l.Cost.PerUnit),
					boolByte(p.LinkAlive(id)), colors[l.From][:]))
			}
			refSort(sigs)
			h := sha256.New()
			h.Write(colors[u][:])
			for _, s := range sigs {
				h.Write(s[:])
			}
			h.Sum(next[u][:0])
		}
		colors, next = next, colors
		classes := refCount(colors)
		if classes == prevClasses {
			break
		}
		prevClasses = classes
	}

	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(p.SliceSize()))
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(n))
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(p.NumLinks()))
	h.Write(buf[:])
	sorted := append([]Fingerprint(nil), colors...)
	refSort(sorted)
	for _, c := range sorted {
		h.Write(c[:])
	}
	linkSigs := make([]Fingerprint, p.NumLinks())
	for id := range linkSigs {
		l := p.Link(id)
		linkSigs[id] = refHashTuple('L',
			colors[l.From][:], colors[l.To][:],
			refF64(l.Cost.Latency), refF64(l.Cost.PerUnit),
			boolByte(p.LinkAlive(id)))
	}
	refSort(linkSigs)
	for _, s := range linkSigs {
		h.Write(s[:])
	}
	var out Fingerprint
	h.Sum(out[:0])
	return out
}

// ReferenceFingerprint exposes the oracle to the registry-wide differential
// in package platform_test.
var ReferenceFingerprint = referenceFingerprint

func refHashTuple(tag byte, fields ...interface{}) Fingerprint {
	h := sha256.New()
	h.Write([]byte{tag})
	for _, fld := range fields {
		switch v := fld.(type) {
		case []byte:
			h.Write(v)
		case [8]byte:
			h.Write(v[:])
		case byte:
			h.Write([]byte{v})
		default:
			panic(fmt.Sprintf("unsupported hash field %T", fld))
		}
	}
	var out Fingerprint
	h.Sum(out[:0])
	return out
}

func refF64(v float64) [8]byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
	return buf
}

func refSort(fs []Fingerprint) {
	sort.Slice(fs, func(i, j int) bool { return bytes.Compare(fs[i][:], fs[j][:]) < 0 })
}

// randomDelta draws one applicable mutation of p: a cost drift, a link or
// node going down, or a downed one coming back.
func randomDelta(p *Platform, rng *rand.Rand) Delta {
	for {
		switch rng.Intn(5) {
		case 0:
			return Delta{Kind: DeltaScaleLink, Link: rng.Intn(p.NumLinks()), Factor: 0.5 + rng.Float64()}
		case 1:
			if id := rng.Intn(p.NumLinks()); p.LinkAlive(id) {
				return Delta{Kind: DeltaLinkDown, Link: id}
			}
		case 2:
			if id := rng.Intn(p.NumLinks()); !p.LinkAlive(id) {
				return Delta{Kind: DeltaLinkUp, Link: id}
			}
		case 3:
			if u := rng.Intn(p.NumNodes()); p.NodeAlive(u) && p.NumAliveNodes() > 2 {
				return Delta{Kind: DeltaNodeDown, Node: u}
			}
		case 4:
			if u := rng.Intn(p.NumNodes()); !p.NodeAlive(u) {
				return Delta{Kind: DeltaNodeUp, Node: u}
			}
		}
	}
}

// TestFingerprintMatchesReference pins the allocation-free refinement to the
// reference formulation: identical digests on random platforms of several
// sizes, along random delta chains, and across a JSON export/re-import.
func TestFingerprintMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 5, 17, 64} {
		for seed := int64(1); seed <= 4; seed++ {
			p := New(n)
			if n >= 2 {
				p = randomTestPlatform(n, seed)
			}
			if got, want := p.Fingerprint(), referenceFingerprint(p); got != want {
				t.Fatalf("n=%d seed=%d: fingerprint %s, reference %s", n, seed, got, want)
			}
			if n < 2 {
				continue
			}
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 12; step++ {
				d := randomDelta(p, rng)
				if _, err := p.ApplyDelta(d); err != nil {
					t.Fatalf("n=%d seed=%d step %d: %v: %v", n, seed, step, d, err)
				}
				if got, want := p.Fingerprint(), referenceFingerprint(p); got != want {
					t.Fatalf("n=%d seed=%d after %d deltas (%v): fingerprint %s, reference %s", n, seed, step+1, d, got, want)
				}
			}
			exp1, err := p.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			var q Platform
			if err := q.UnmarshalJSON(exp1); err != nil {
				t.Fatal(err)
			}
			exp2, err := q.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(exp1, exp2) {
				t.Fatalf("n=%d seed=%d: JSON export does not round-trip", n, seed)
			}
			// The JSON form carries no live masks, so compare the
			// re-imported platform against the reference on its own state.
			if got, want := q.Fingerprint(), referenceFingerprint(&q); got != want {
				t.Fatalf("n=%d seed=%d: re-imported fingerprint %s, reference %s", n, seed, got, want)
			}
		}
	}
}

// TestFingerprintAllocs bounds the refinement's allocations: the scratch
// buffers are sized once per call, so the count does not grow with the
// platform or the number of refinement rounds.
func TestFingerprintAllocs(t *testing.T) {
	for _, n := range []int{16, 96, 256} {
		p := randomTestPlatform(n, 3)
		if allocs := testing.AllocsPerRun(5, func() { p.Fingerprint() }); allocs > 64 {
			t.Errorf("n=%d: Fingerprint allocates %.0f times, want <= 64", n, allocs)
		}
	}
}
