package shard

import (
	"errors"
	"fmt"
	"testing"

	"github.com/htacs/ata/internal/stream"
)

// TestPlace pins the placement rule: the ranking, the commit walk over
// members that scored free, and the buffer walk in (backlog, index) order.
func TestPlace(t *testing.T) {
	cases := []struct {
		name        string
		bids        []Bid
		commitOK    []int // members whose commit succeeds
		bufferOK    []int // members whose buffer accepts (nil: no buffer step)
		wantMember  int
		wantCommit  bool
		wantCommits []int // commit calls, in order
		wantBuffers []int // buffer calls, in order
	}{
		{
			name: "gain within epsilon ties, relevance decides",
			bids: []Bid{
				{Member: 0, Gain: 1 + 5e-13, Rel: 0.1, Free: true},
				{Member: 1, Gain: 1, Rel: 0.5, Free: true},
			},
			commitOK: []int{0, 1}, wantMember: 1, wantCommit: true, wantCommits: []int{1},
		},
		{
			name: "gain beyond epsilon wins over relevance",
			bids: []Bid{
				{Member: 0, Gain: 1 + 1e-9, Rel: 0.1, Free: true},
				{Member: 1, Gain: 1, Rel: 0.5, Free: true},
			},
			commitOK: []int{0, 1}, wantMember: 0, wantCommit: true, wantCommits: []int{0},
		},
		{
			name: "equal gain, higher relevance wins",
			bids: []Bid{
				{Member: 0, Gain: 2, Rel: 0.2, Free: true},
				{Member: 1, Gain: 2, Rel: 0.3, Free: true},
			},
			commitOK: []int{0, 1}, wantMember: 1, wantCommit: true, wantCommits: []int{1},
		},
		{
			name: "full tie, lower index wins whatever the input order",
			bids: []Bid{
				{Member: 2, Gain: 2, Rel: 0.2, Free: true},
				{Member: 0, Gain: 2, Rel: 0.2, Free: true},
				{Member: 1, Gain: 2, Rel: 0.2, Free: true},
			},
			commitOK: []int{0, 1, 2}, wantMember: 0, wantCommit: true, wantCommits: []int{0},
		},
		{
			name: "failed commit falls through to the next free member",
			bids: []Bid{
				{Member: 0, Gain: 1, Free: true},
				{Member: 1, Gain: 3, Free: true},
				{Member: 2, Gain: 2, Free: true},
			},
			commitOK: []int{0, 2}, wantMember: 2, wantCommit: true, wantCommits: []int{1, 2},
		},
		{
			name: "member that scored full is never asked to commit",
			bids: []Bid{
				{Member: 0, Gain: 1, Free: true, Backlog: 3},
				{Member: 1, Gain: 9, Backlog: 1},
			},
			commitOK: []int{0, 1}, wantMember: 0, wantCommit: true, wantCommits: []int{0},
		},
		{
			name: "no commit lands: buffer in (backlog, index) order",
			bids: []Bid{
				{Member: 0, Backlog: 5},
				{Member: 1, Gain: 4, Free: true, Backlog: 2},
				{Member: 2, Backlog: 2},
				{Member: 3, Backlog: 0},
			},
			bufferOK: []int{2}, wantMember: 2,
			wantCommits: []int{1}, wantBuffers: []int{3, 1, 2},
		},
		{
			name: "every buffer full",
			bids: []Bid{
				{Member: 0, Backlog: 1},
				{Member: 1, Backlog: 0},
			},
			bufferOK: []int{}, wantMember: -1,
			wantBuffers: []int{1, 0},
		},
		{
			name: "nil buffer: commit only",
			bids: []Bid{
				{Member: 0, Gain: 1, Free: true},
				{Member: 1},
			},
			wantMember: -1, wantCommits: []int{0},
		},
	}
	in := func(m int, set []int) bool {
		for _, s := range set {
			if s == m {
				return true
			}
		}
		return false
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var commits, buffers []int
			commit := func(m int) bool {
				commits = append(commits, m)
				return in(m, c.commitOK)
			}
			var buffer func(int) bool
			if c.bufferOK != nil {
				buffer = func(m int) bool {
					buffers = append(buffers, m)
					return in(m, c.bufferOK)
				}
			}
			member, committed, err := Place(c.bids, commit, buffer)
			if member != c.wantMember || committed != c.wantCommit {
				t.Errorf("Place = (%d, %v), want (%d, %v)", member, committed, c.wantMember, c.wantCommit)
			}
			if wantFull := c.wantMember < 0; wantFull != errors.Is(err, stream.ErrBufferFull) {
				t.Errorf("err = %v, want ErrBufferFull: %v", err, wantFull)
			}
			if fmt.Sprint(commits) != fmt.Sprint(c.wantCommits) {
				t.Errorf("commit calls %v, want %v", commits, c.wantCommits)
			}
			if fmt.Sprint(buffers) != fmt.Sprint(c.wantBuffers) {
				t.Errorf("buffer calls %v, want %v", buffers, c.wantBuffers)
			}
		})
	}
}
