package main

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/heuristics"
	"repro/internal/platform"
	"repro/internal/scenarios"
	"repro/internal/service"
)

// solvedPlan plans a small tiers platform with a heuristic tree and a
// k-tree packing, and returns the platform with a decoder for fresh copies
// of the plan.
func solvedPlan(t *testing.T) (*platform.Platform, func() *service.Plan) {
	t.Helper()
	sc, err := scenarios.Get(scenarios.NameTiers)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sc.Generate(32, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := service.New(service.Config{}).PlanContext(context.Background(),
		service.PlanRequest{Platform: p, Heuristic: heuristics.NameLPGrowTree, Trees: 8})
	if err != nil {
		t.Fatal(err)
	}
	return p, func() *service.Plan {
		var plan service.Plan
		if err := json.Unmarshal(res.JSON, &plan); err != nil {
			t.Fatal(err)
		}
		return &plan
	}
}

func TestVerifyPlanAcceptsSolverOutput(t *testing.T) {
	p, plan := solvedPlan(t)
	pl := plan()
	if pl.PackedTrees < 2 {
		t.Fatalf("fixture packs %d trees; the missing-node case needs a real packing", pl.PackedTrees)
	}
	if err := verifyPlan(p, 0, pl, heuristics.NameLPGrowTree, 8); err != nil {
		t.Fatalf("verifier rejects an uncorrupted plan: %v", err)
	}
}

func TestVerifyPlanRejectsCorruptedPlans(t *testing.T) {
	p, plan := solvedPlan(t)
	for _, tc := range []struct {
		name    string
		corrupt func(*service.Plan)
		want    string
	}{
		{"edge rates scaled up 1%", func(pl *service.Plan) {
			for i := range pl.EdgeRate {
				pl.EdgeRate[i] *= 1.01
			}
		}, "one-port occupation"},
		{"throughput raised 1%", func(pl *service.Plan) {
			pl.Throughput *= 1.01
		}, "throughput"},
		{"packing tree missing a node", func(pl *service.Plan) {
			tr := pl.Packing.Trees[0].Tree
			for v := range tr.Parent {
				if v != tr.Root {
					tr.Parent[v], tr.ParentLink[v] = -1, -1
					break
				}
			}
		}, "packing: tree 0"},
		{"heuristic tree missing a node", func(pl *service.Plan) {
			pl.Tree.Parent[len(pl.Tree.Parent)-1] = -1
		}, "heuristic tree"},
		{"packed weights above the packed throughput", func(pl *service.Plan) {
			pl.Packing.Trees[0].Weight *= 1.01
		}, "packing"},
		{"exact key of another platform", func(pl *service.Plan) {
			pl.ExactKey = strings.Repeat("0", 64)
		}, "exactKey"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := plan()
			tc.corrupt(pl)
			err := verifyPlan(p, 0, pl, heuristics.NameLPGrowTree, 8)
			if err == nil {
				t.Fatal("verifier accepted the corrupted plan")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestZipfQuotasSumExactly(t *testing.T) {
	q := zipfQuotas(12, 600)
	sum := 0
	for i, v := range q {
		sum += v
		if i > 0 && v > q[i-1] {
			t.Fatalf("quota of rank %d (%d) exceeds rank %d (%d)", i+1, v, i, q[i-1])
		}
	}
	if sum != 600 {
		t.Fatalf("quotas sum to %d, want 600", sum)
	}
}
