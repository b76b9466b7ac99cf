package platform_test

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/scenarios"
)

// TestFingerprintMatchesReferenceOnRegistry runs the reference differential
// over every registered platform family at several sizes and seeds, and
// along each family's churn trace, where link and node masks and drifted
// costs all take part in the digest.
func TestFingerprintMatchesReferenceOnRegistry(t *testing.T) {
	for _, s := range scenarios.All() {
		for _, size := range []int{s.MinSize, 24, 96} {
			if size < s.MinSize {
				continue
			}
			for seed := int64(200); seed <= 202; seed++ {
				p, err := s.Generate(size, seed)
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", s.Name, size, seed, err)
				}
				if got, want := p.Fingerprint(), platform.ReferenceFingerprint(p); got != want {
					t.Fatalf("%s n=%d seed=%d: fingerprint %s, reference %s", s.Name, size, seed, got, want)
				}
			}
		}

		size := 24
		if size < s.MinSize {
			size = s.MinSize
		}
		p, tr, err := scenarios.ChurnTrace(s, size, 0, 200)
		if err != nil {
			t.Fatalf("%s churn trace: %v", s.Name, err)
		}
		for i, ev := range tr.Events {
			if i == 16 {
				break
			}
			if _, err := p.ApplyDelta(ev.Delta); err != nil {
				t.Fatalf("%s event %d (%v): %v", s.Name, i, ev.Delta, err)
			}
			if got, want := p.Fingerprint(), platform.ReferenceFingerprint(p); got != want {
				t.Fatalf("%s after churn event %d (%v): fingerprint %s, reference %s", s.Name, i, ev.Delta, got, want)
			}
		}
	}
}
