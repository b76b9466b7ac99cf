package platform

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
)

// Fingerprint is a canonical content hash of a platform: two platforms that
// describe the same communication structure — the same multiset of processors
// and links with the same costs, slice size and live state, up to a
// renumbering of nodes and links — fingerprint identically, and the hash is
// byte-stable across processes and runs. The planning service indexes its
// cached plans by it to recognize renumbered twins and to resolve the base
// of delta requests.
type Fingerprint [sha256.Size]byte

// String returns the fingerprint as a lowercase hex string.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// ParseFingerprint parses the hex form produced by String.
func ParseFingerprint(s string) (Fingerprint, error) {
	var f Fingerprint
	b, err := hex.DecodeString(s)
	if err != nil {
		return f, fmt.Errorf("platform: invalid fingerprint %q: %w", s, err)
	}
	if len(b) != len(f) {
		return f, fmt.Errorf("platform: invalid fingerprint %q: want %d bytes, got %d", s, len(f), len(b))
	}
	copy(f[:], b)
	return f, nil
}

// Fingerprint returns the canonical content fingerprint of the platform's
// current state.
//
// The fingerprint covers everything the steady-state solvers and heuristics
// read: node send/receive overheads, the multiset of directed links with
// their affine costs, the slice size, and the current alive/live masks. It
// deliberately ignores presentation and history: node names and the mutation
// journal do not contribute, so a platform and a mutated-then-restored copy
// of it fingerprint identically.
//
// Permutation invariance is obtained by Weisfeiler–Leman color refinement:
// nodes start from a hash of their own costs and alive flag, are iteratively
// re-hashed with the sorted multiset of their incident link signatures, and
// the final digest hashes the sorted multisets of node colors and of
// (fromColor, toColor, cost, alive) link signatures. Renumbering nodes or
// reordering link IDs therefore cannot change the result. As with any hash,
// distinct platforms may in principle collide (structurally symmetric twins
// are folded together by design); callers that need exact identity — such as
// the plan cache — key on the canonical encoding (or a hash of it), which is
// numbering-exact and determines the fingerprint.
func (p *Platform) Fingerprint() Fingerprint {
	n := len(p.nodes)
	// Every buffer is sized once up front and reused, so refinement never
	// grows one: sigs holds one signature per link, the most a node's
	// incident links or the final digest need; buf holds at most one node's
	// digest input (its color plus its incident signatures, at most
	// 32·(1+m) bytes) or the final digest input (24 + 32·(n+m) bytes).
	colors := make([]Fingerprint, n)
	next := make([]Fingerprint, n)
	sigs := make([]Fingerprint, 0, len(p.links))
	buf := make([]byte, 0, 24+sha256.Size*(n+len(p.links)))
	seen := make(map[Fingerprint]struct{}, n)
	for u := range p.nodes {
		colors[u] = p.initialColor(u)
	}

	// Refine until the color partition stabilizes (the number of distinct
	// colors stops growing), capped at n rounds as 1-WL guarantees.
	prevClasses := countClasses(colors, seen)
	for round := 0; round < n; round++ {
		for u := range p.nodes {
			next[u] = p.refineColor(u, colors, sigs, buf)
		}
		colors, next = next, colors
		classes := countClasses(colors, seen)
		if classes == prevClasses {
			break
		}
		prevClasses = classes
	}

	// Final digest: slice size, counts, sorted node colors, sorted link
	// signatures expressed in color space.
	buf = binary.BigEndian.AppendUint64(buf[:0], math.Float64bits(p.sliceSize))
	buf = binary.BigEndian.AppendUint64(buf, uint64(n))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(p.links)))
	sorted := next // free after the last round
	copy(sorted, colors)
	slices.SortFunc(sorted, compareFingerprints)
	for i := range sorted {
		buf = append(buf, sorted[i][:]...)
	}
	linkSigs := sigs[:len(p.links)]
	for id := range p.links {
		linkSigs[id] = p.linkSignature(id, colors)
	}
	slices.SortFunc(linkSigs, compareFingerprints)
	for i := range linkSigs {
		buf = append(buf, linkSigs[i][:]...)
	}
	return sha256.Sum256(buf)
}

// The hashed tuples are fixed-width: a tag byte, then each field in order —
// a float as its 8 big-endian IEEE-754 bytes, a flag as one byte, a color as
// its 32 bytes.
const (
	nodeTupleLen = 1 + 4*8 + 1                 // 'N', send α/β, recv α/β, alive
	arcTupleLen  = 1 + 2*8 + 1 + sha256.Size   // '>' or '<', cost α/β, alive, far-end color
	linkTupleLen = 1 + 2*sha256.Size + 2*8 + 1 // 'L', from/to colors, cost α/β, alive
)

// initialColor hashes the node-local content: overhead costs and alive flag.
func (p *Platform) initialColor(u int) Fingerprint {
	nd := &p.nodes[u]
	var t [nodeTupleLen]byte
	t[0] = 'N'
	putF64(t[1:], nd.Send.Latency)
	putF64(t[9:], nd.Send.PerUnit)
	putF64(t[17:], nd.Recv.Latency)
	putF64(t[25:], nd.Recv.PerUnit)
	t[33] = boolByte(p.NodeAlive(u))
	return sha256.Sum256(t[:])
}

// refineColor re-hashes one node with the sorted signatures of its incident
// links (direction, cost, alive flag, far-end color). sigs and buf are
// scratch space with room for every incident link.
func (p *Platform) refineColor(u int, colors, sigs []Fingerprint, buf []byte) Fingerprint {
	sigs = sigs[:0]
	for _, id := range p.out[u] {
		sigs = append(sigs, p.arcSignature('>', id, &colors[p.links[id].To]))
	}
	for _, id := range p.in[u] {
		sigs = append(sigs, p.arcSignature('<', id, &colors[p.links[id].From]))
	}
	slices.SortFunc(sigs, compareFingerprints)
	buf = append(buf[:0], colors[u][:]...)
	for i := range sigs {
		buf = append(buf, sigs[i][:]...)
	}
	return sha256.Sum256(buf)
}

// arcSignature hashes one incident link as seen from one of its endpoints.
func (p *Platform) arcSignature(tag byte, id int, far *Fingerprint) Fingerprint {
	l := &p.links[id]
	var t [arcTupleLen]byte
	t[0] = tag
	putF64(t[1:], l.Cost.Latency)
	putF64(t[9:], l.Cost.PerUnit)
	t[17] = boolByte(p.LinkAlive(id))
	copy(t[18:], far[:])
	return sha256.Sum256(t[:])
}

// linkSignature hashes one link in color space for the final digest.
func (p *Platform) linkSignature(id int, colors []Fingerprint) Fingerprint {
	l := &p.links[id]
	var t [linkTupleLen]byte
	t[0] = 'L'
	copy(t[1:], colors[l.From][:])
	copy(t[33:], colors[l.To][:])
	putF64(t[65:], l.Cost.Latency)
	putF64(t[73:], l.Cost.PerUnit)
	t[81] = boolByte(p.LinkAlive(id))
	return sha256.Sum256(t[:])
}

// CanonicalEncoding returns a deterministic byte encoding of the platform's
// exact current state in its own node/link numbering: slice size, node costs
// and alive flags, links with costs and alive flags. Unlike the fingerprint
// it is not permutation-invariant; the plan cache compares it to tell a true
// repeat request from a renumbered (or hash-colliding) twin that happens to
// share a fingerprint.
func (p *Platform) CanonicalEncoding() []byte {
	out := make([]byte, 0, 16+24*len(p.nodes)+40*len(p.links))
	var buf [8]byte
	put := func(bits uint64) {
		binary.BigEndian.PutUint64(buf[:], bits)
		out = append(out, buf[:]...)
	}
	put(math.Float64bits(p.sliceSize))
	put(uint64(len(p.nodes)))
	for u, nd := range p.nodes {
		put(math.Float64bits(nd.Send.Latency))
		put(math.Float64bits(nd.Send.PerUnit))
		put(math.Float64bits(nd.Recv.Latency))
		put(math.Float64bits(nd.Recv.PerUnit))
		out = append(out, boolByte(p.NodeAlive(u)))
	}
	put(uint64(len(p.links)))
	for id, l := range p.links {
		put(uint64(l.From))
		put(uint64(l.To))
		put(math.Float64bits(l.Cost.Latency))
		put(math.Float64bits(l.Cost.PerUnit))
		out = append(out, boolByte(p.LinkAlive(id)))
	}
	return out
}

// putF64 encodes a float bit-exactly for hashing.
func putF64(b []byte, v float64) {
	binary.BigEndian.PutUint64(b, math.Float64bits(v))
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// countClasses returns the number of distinct colors, using seen as
// scratch.
func countClasses(colors []Fingerprint, seen map[Fingerprint]struct{}) int {
	clear(seen)
	for _, c := range colors {
		seen[c] = struct{}{}
	}
	return len(seen)
}

// compareFingerprints orders fingerprints lexicographically.
func compareFingerprints(a, b Fingerprint) int {
	return bytes.Compare(a[:], b[:])
}
