package shard

import (
	"slices"

	"github.com/htacs/ata/internal/stream"
)

// Bid is one member's answer to the scatter phase of a placement. A member
// is a shard inside an Engine or a node behind the cluster gateway; the
// decision rule is the same at both levels because the argmax of the
// per-worker marginal gain over all workers is the max of the per-member
// maxima.
type Bid struct {
	// Member is the caller's index for the member, the final tie-break.
	Member int
	// Gain and Rel are the marginal gain and relevance of the member's
	// best free worker (stream.Assigner.BestGain); meaningless unless Free.
	Gain float64
	Rel  float64
	// Free reports that some worker of the member has a free slot.
	Free bool
	// Backlog is the member's buffered task count, the buffer-order key.
	Backlog int
}

// gainEps is the tolerance under which two marginal gains tie, the same
// as the per-worker rule's.
const gainEps = 1e-12

// rank orders bids in place: members with a free slot first, then by
// gain (within gainEps), then relevance, then member index, so the order
// is deterministic.
func rank(bids []Bid) {
	slices.SortFunc(bids, func(a, b Bid) int {
		switch {
		case a.Free != b.Free:
			if a.Free {
				return -1
			}
			return 1
		case !a.Free: // both full: only the index orders them
		case a.Gain > b.Gain+gainEps:
			return -1
		case b.Gain > a.Gain+gainEps:
			return 1
		case a.Rel > b.Rel:
			return -1
		case a.Rel < b.Rel:
			return 1
		}
		return a.Member - b.Member
	})
}

// Place is the placement rule for one task over scored members. It ranks
// bids, then calls commit on each member that scored free, in rank order,
// until one accepts; a member that scored full is never asked, because its
// commit could only succeed if a concurrent completion freed a slot. When
// no commit lands, it calls buffer on the members in (Backlog, Member)
// order until one accepts; a nil buffer skips that step. It returns the
// accepting member and whether it committed, or stream.ErrBufferFull when
// every member refused. bids is reordered.
func Place(bids []Bid, commit, buffer func(member int) bool) (member int, committed bool, err error) {
	rank(bids)
	for _, b := range bids {
		if !b.Free {
			break
		}
		if commit(b.Member) {
			return b.Member, true, nil
		}
	}
	if buffer != nil {
		slices.SortFunc(bids, func(a, b Bid) int {
			if a.Backlog != b.Backlog {
				return a.Backlog - b.Backlog
			}
			return a.Member - b.Member
		})
		for _, b := range bids {
			if buffer(b.Member) {
				return b.Member, false, nil
			}
		}
	}
	return -1, false, stream.ErrBufferFull
}
