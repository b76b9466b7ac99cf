package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// platformJSON is the serialized form of a Platform.
type platformJSON struct {
	Nodes     []Node  `json:"nodes"`
	Links     []Link  `json:"links"`
	SliceSize float64 `json:"sliceSize"`
}

// MarshalJSON implements json.Marshaler.
func (p *Platform) MarshalJSON() ([]byte, error) {
	return json.Marshal(platformJSON{
		Nodes:     append([]Node(nil), p.nodes...),
		Links:     append([]Link(nil), p.links...),
		SliceSize: p.sliceSize,
	})
}

// UnmarshalJSON implements json.Unmarshaler. Decoding is strict: unknown
// fields anywhere in the platform are rejected, as are a negative slice size
// and invalid (negative or non-finite) node or link costs. A missing or zero
// slice size means DefaultSliceSize. The adjacency index is rebuilt.
func (p *Platform) UnmarshalJSON(data []byte) error {
	var in platformJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return err
	}
	if in.SliceSize < 0 {
		return fmt.Errorf("platform: invalid slice size %v", in.SliceSize)
	}
	np := New(len(in.Nodes))
	for u, nd := range in.Nodes {
		if !nd.Send.Valid() || !nd.Recv.Valid() {
			return fmt.Errorf("%w: node %d: send %+v, recv %+v", ErrInvalidCost, u, nd.Send, nd.Recv)
		}
		np.nodes[u] = nd
	}
	if in.SliceSize > 0 {
		np.sliceSize = in.SliceSize
	}
	for i, l := range in.Links {
		if _, err := np.AddLink(l.From, l.To, l.Cost); err != nil {
			return fmt.Errorf("platform: link %d: %w", i, err)
		}
	}
	*p = *np
	return nil
}
