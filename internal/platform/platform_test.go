package platform

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

// chainPlatform returns a platform 0 -> 1 -> ... -> n-1 with unit link costs.
func chainPlatform(n int) *Platform {
	p := New(n)
	for i := 0; i+1 < n; i++ {
		p.MustAddLink(i, i+1, model.Linear(1))
	}
	return p
}

func TestNewPlatform(t *testing.T) {
	p := New(4)
	if p.NumNodes() != 4 || p.NumLinks() != 0 {
		t.Fatalf("nodes=%d links=%d", p.NumNodes(), p.NumLinks())
	}
	if p.SliceSize() != DefaultSliceSize {
		t.Fatalf("slice size = %v", p.SliceSize())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddLinkErrors(t *testing.T) {
	p := New(3)
	if _, err := p.AddLink(-1, 0, model.Linear(1)); !errors.Is(err, ErrNodeRange) {
		t.Errorf("from out of range: %v", err)
	}
	if _, err := p.AddLink(0, 3, model.Linear(1)); !errors.Is(err, ErrNodeRange) {
		t.Errorf("to out of range: %v", err)
	}
	if _, err := p.AddLink(1, 1, model.Linear(1)); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self loop: %v", err)
	}
	if _, err := p.AddLink(0, 1, model.AffineCost{PerUnit: -1}); !errors.Is(err, ErrInvalidCost) {
		t.Errorf("invalid cost: %v", err)
	}
}

func TestMustAddLinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAddLink did not panic")
		}
	}()
	New(1).MustAddLink(0, 0, model.Linear(1))
}

func TestAddBidirectionalLink(t *testing.T) {
	p := New(2)
	f, r, err := p.AddBidirectionalLink(0, 1, model.Linear(2))
	if err != nil {
		t.Fatal(err)
	}
	if !p.HasLink(0, 1) || !p.HasLink(1, 0) {
		t.Fatal("bidirectional link missing a direction")
	}
	if p.Link(f).From != 0 || p.Link(r).From != 1 {
		t.Fatal("link endpoints wrong")
	}
	if _, _, err := p.AddBidirectionalLink(0, 5, model.Linear(1)); err == nil {
		t.Fatal("expected error for out-of-range node")
	}
	if _, _, err := New(3).AddBidirectionalLink(0, 3, model.Linear(1)); err == nil {
		t.Fatal("expected error")
	}
}

func TestSliceTimes(t *testing.T) {
	p := New(3)
	id := p.MustAddLink(0, 1, model.AffineCost{Latency: 1, PerUnit: 2})
	p.SetSliceSize(3)
	if got := p.SliceTime(id); got != 7 {
		t.Fatalf("SliceTime = %v, want 7", got)
	}
	if got := p.SliceTimeBetween(0, 1); got != 7 {
		t.Fatalf("SliceTimeBetween = %v, want 7", got)
	}
	if !math.IsInf(p.SliceTimeBetween(1, 2), 1) {
		t.Fatal("missing link should have infinite slice time")
	}
}

func TestSetSliceSizePanics(t *testing.T) {
	for _, bad := range []float64{0, -1, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetSliceSize(%v) did not panic", bad)
				}
			}()
			New(1).SetSliceSize(bad)
		}()
	}
}

func TestLinkBetweenAndAdjacency(t *testing.T) {
	p := New(3)
	a := p.MustAddLink(0, 1, model.Linear(1))
	b := p.MustAddLink(0, 2, model.Linear(2))
	c := p.MustAddLink(1, 2, model.Linear(3))
	if got := p.LinkBetween(0, 2); got != b {
		t.Fatalf("LinkBetween(0,2) = %d, want %d", got, b)
	}
	if got := p.LinkBetween(2, 0); got != -1 {
		t.Fatalf("LinkBetween(2,0) = %d, want -1", got)
	}
	if got := p.LinkBetween(-1, 0); got != -1 {
		t.Fatal("out of range should return -1")
	}
	if len(p.OutLinkIDs(0)) != 2 || len(p.InLinkIDs(2)) != 2 {
		t.Fatal("adjacency lists wrong")
	}
	if len(p.Links()) != 3 {
		t.Fatal("Links() wrong length")
	}
	_ = a
	_ = c
}

func TestNodeAccessors(t *testing.T) {
	p := New(2)
	p.SetNode(1, Node{Name: "worker", Send: model.Linear(0.5), Recv: model.Linear(0.25)})
	if p.Node(1).Name != "worker" {
		t.Fatal("SetNode/Node round trip failed")
	}
	if got := p.SendTime(1); got != 0.5 {
		t.Fatalf("SendTime = %v, want 0.5", got)
	}
	if got := p.RecvTime(1); got != 0.25 {
		t.Fatalf("RecvTime = %v, want 0.25", got)
	}
}

func TestGraphMirrorsLinks(t *testing.T) {
	p := New(4)
	p.MustAddLink(0, 1, model.Linear(1.5))
	p.MustAddLink(1, 2, model.Linear(2.5))
	p.MustAddLink(2, 3, model.Linear(3.5))
	g := p.Graph()
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Fatalf("graph size %d/%d", g.NumNodes(), g.NumEdges())
	}
	for id := 0; id < p.NumLinks(); id++ {
		e := g.Edge(id)
		l := p.Link(id)
		if e.From != l.From || e.To != l.To {
			t.Fatalf("edge %d endpoints mismatch", id)
		}
		if math.Abs(e.Weight-p.SliceTime(id)) > 1e-12 {
			t.Fatalf("edge %d weight %v != slice time %v", id, e.Weight, p.SliceTime(id))
		}
	}
}

func TestDensity(t *testing.T) {
	p := New(5)
	if p.Density() != 0 {
		t.Fatal("empty platform density should be 0")
	}
	p.MustAddLink(0, 1, model.Linear(1))
	p.MustAddLink(1, 0, model.Linear(1))
	want := 2.0 / 20.0
	if math.Abs(p.Density()-want) > 1e-12 {
		t.Fatalf("density = %v, want %v", p.Density(), want)
	}
	if New(1).Density() != 0 {
		t.Fatal("single node density should be 0")
	}
}

func TestDeriveMultiPortOverheads(t *testing.T) {
	p := New(3)
	p.MustAddLink(0, 1, model.Linear(2))
	p.MustAddLink(0, 2, model.Linear(4))
	p.MustAddLink(1, 2, model.Linear(6))
	p.DeriveMultiPortOverheads(0.8)
	if got := p.SendTime(0); math.Abs(got-1.6) > 1e-12 {
		t.Fatalf("SendTime(0) = %v, want 1.6 (0.8 x min(2,4))", got)
	}
	if got := p.SendTime(1); math.Abs(got-4.8) > 1e-12 {
		t.Fatalf("SendTime(1) = %v, want 4.8", got)
	}
	if got := p.SendTime(2); got != 0 {
		t.Fatalf("SendTime(2) = %v, want 0 (no outgoing links)", got)
	}
	if got := p.RecvTime(2); math.Abs(got-0.8*4) > 1e-12 {
		t.Fatalf("RecvTime(2) = %v, want 3.2 (0.8 x min(4,6))", got)
	}
	if got := p.RecvTime(0); got != 0 {
		t.Fatalf("RecvTime(0) = %v, want 0 (no incoming links)", got)
	}
}

func TestValidate(t *testing.T) {
	if err := New(0).Validate(-1); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("empty platform: %v", err)
	}
	p := chainPlatform(4)
	if err := p.Validate(0); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	if err := p.Validate(1); !errors.Is(err, ErrNotReachable) {
		t.Fatalf("unreachable source not detected: %v", err)
	}
	if err := p.Validate(9); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("source out of range not detected: %v", err)
	}
	if err := p.Validate(-1); err != nil {
		t.Fatalf("validation without source should skip reachability: %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := chainPlatform(3)
	p.SetSliceSize(2)
	c := p.Clone()
	c.MustAddLink(2, 0, model.Linear(5))
	c.SetNode(0, Node{Name: "changed"})
	c.SetSliceSize(7)
	if p.NumLinks() != 2 || p.Node(0).Name != "" || p.SliceSize() != 2 {
		t.Fatal("clone mutation leaked into original")
	}
	if c.NumLinks() != 3 || c.SliceSize() != 7 {
		t.Fatal("clone did not record mutation")
	}
}

func TestScaleLinkCost(t *testing.T) {
	p := New(2)
	id := p.MustAddLink(0, 1, model.AffineCost{Latency: 1, PerUnit: 2})
	p.ScaleLinkCost(id, 2)
	l := p.Link(id)
	if l.Cost.Latency != 2 || l.Cost.PerUnit != 4 {
		t.Fatalf("scaled cost = %+v", l.Cost)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive factor did not panic")
		}
	}()
	p.ScaleLinkCost(id, 0)
}

func TestPlatformString(t *testing.T) {
	if chainPlatform(3).String() == "" {
		t.Fatal("String() empty")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := New(3)
	p.SetSliceSize(2.5)
	p.SetNode(0, Node{Name: "source", Send: model.Linear(0.1)})
	p.MustAddLink(0, 1, model.AffineCost{Latency: 0.5, PerUnit: 1.5})
	p.MustAddLink(1, 2, model.Linear(3))
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q Platform
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatal(err)
	}
	if q.NumNodes() != 3 || q.NumLinks() != 2 {
		t.Fatalf("round-trip size mismatch: %d nodes, %d links", q.NumNodes(), q.NumLinks())
	}
	if q.SliceSize() != 2.5 {
		t.Fatalf("slice size = %v", q.SliceSize())
	}
	if q.Node(0).Name != "source" {
		t.Fatal("node metadata lost")
	}
	if math.Abs(q.SliceTime(0)-p.SliceTime(0)) > 1e-12 {
		t.Fatal("link cost lost")
	}
	if q.LinkBetween(1, 2) < 0 {
		t.Fatal("adjacency index not rebuilt")
	}
}

func TestJSONUnmarshalRejectsBadLinks(t *testing.T) {
	var p Platform
	bad := `{"nodes":[{},{}],"links":[{"from":0,"to":5,"cost":{"latency":0,"perUnit":1}}],"sliceSize":1}`
	if err := json.Unmarshal([]byte(bad), &p); err == nil {
		t.Fatal("expected error for out-of-range link")
	}
	if err := json.Unmarshal([]byte(`{"nodes":`), &p); err == nil {
		t.Fatal("expected error for malformed JSON")
	}
}

// TestJSONUnmarshalStrict pins strict platform decoding: a misspelled field
// at any depth, a negative slice size or an invalid node cost is an error,
// never a silently defaulted platform.
func TestJSONUnmarshalStrict(t *testing.T) {
	link := `"links":[{"from":0,"to":1,"cost":{"latency":0,"perUnit":1}}]`
	for name, body := range map[string]string{
		"unknown top-level field": `{"nodes":[{},{}],` + link + `,"sliceSise":5}`,
		"unknown cost field":      `{"nodes":[{},{}],"links":[{"from":0,"to":1,"cost":{"latncy":3,"perUnit":1}}]}`,
		"unknown node field":      `{"nodes":[{"sned":{}},{}],` + link + `}`,
		"negative slice size":     `{"nodes":[{},{}],` + link + `,"sliceSize":-3}`,
		"negative node cost":      `{"nodes":[{"send":{"latency":-5}},{}],` + link + `}`,
		"negative recv cost":      `{"nodes":[{},{"recv":{"perUnit":-1}}],` + link + `}`,
	} {
		var p Platform
		if err := json.Unmarshal([]byte(body), &p); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
	var p Platform
	if err := json.Unmarshal([]byte(`{"nodes":[{},{}],`+link+`}`), &p); err != nil {
		t.Fatalf("valid platform rejected: %v", err)
	}
	if p.SliceSize() != DefaultSliceSize {
		t.Errorf("omitted slice size decoded as %v, want %v", p.SliceSize(), DefaultSliceSize)
	}
}

func TestJSONPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		p := New(n)
		for i := 1; i < n; i++ {
			p.MustAddLink(rng.Intn(i), i, model.Linear(0.1+rng.Float64()))
		}
		data, err := json.Marshal(p)
		if err != nil {
			return false
		}
		var q Platform
		if err := json.Unmarshal(data, &q); err != nil {
			return false
		}
		if q.NumNodes() != p.NumNodes() || q.NumLinks() != p.NumLinks() {
			return false
		}
		for id := 0; id < p.NumLinks(); id++ {
			if p.Link(id) != q.Link(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
