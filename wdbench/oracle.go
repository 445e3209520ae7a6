package main

import (
	"fmt"
	"math"

	"sharedwd/internal/core"
)

// relTol is the relative tolerance for comparing scores and prices with the
// oracle's. The program computes b·c and next-score/quality with the same
// float operations the oracle uses, so matches are normally exact; the
// tolerance only absorbs a different but equally valid evaluation order.
const relTol = 1e-9

// near reports whether a and b agree within relTol (absolutely near 0).
func near(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= relTol*math.Max(math.Abs(a), math.Abs(b)) || d <= 1e-12
}

// universe is the benchmark's own copy of one auction world's fixed inputs:
// who is interested in which phrase, each advertiser's quality c_i and the
// number of slots. The oracle and the property checks read only this and
// the bids the benchmark itself generated or replayed.
type universe struct {
	members [][]int  // members[q]: advertisers interested in phrase q, ascending
	in      [][]bool // in[q][i]: advertiser i is interested in phrase q
	quality []float64
	slots   int
	names   []string // phrase names, the query strings of the serving workloads
}

// cand is one advertiser in the oracle's ranking.
type cand struct {
	id    int
	score float64
}

// outranks orders by descending score, then ascending advertiser ID.
func outranks(score float64, id int, c cand) bool {
	return score > c.score || score == c.score && id < c.id
}

// rank returns the top slots+1 advertisers of phrase q by bid·quality over
// those with a positive score, best first, appending into dst[:0]. The
// extra entry is the price-setter for the last slot.
func (u *universe) rank(q int, bids []float64, dst []cand) []cand {
	dst = dst[:0]
	k := u.slots + 1
	for _, i := range u.members[q] {
		s := bids[i] * u.quality[i]
		if s <= 0 {
			continue
		}
		if len(dst) == k && !outranks(s, i, dst[k-1]) {
			continue
		}
		if len(dst) < k {
			dst = append(dst, cand{})
		}
		j := len(dst) - 1
		for j > 0 && outranks(s, i, dst[j-1]) {
			dst[j] = dst[j-1]
			j--
		}
		dst[j] = cand{id: i, score: s}
	}
	return dst
}

// checkAuction compares one auction's filled slots with the oracle's
// ranking under the round bids. Winners must carry the oracle's score at
// each slot (so advertisers with equal scores are interchangeable), be
// interested in the phrase and distinct, and pay the GSP price: the next
// ranked score over the winner's own quality, capped at the winner's bid,
// and 0 for the last winner when nobody ranks below.
func (u *universe) checkAuction(round, q int, got []core.SlotResult, ranked []cand, bids []float64) error {
	want := len(ranked)
	if want > u.slots {
		want = u.slots
	}
	if len(got) != want {
		return fmt.Errorf("round %d phrase %d: %d slots filled, oracle fills %d", round, q, len(got), want)
	}
	if err := u.checkWinners(round, q, got, bids, "bid"); err != nil {
		return err
	}
	for j, s := range got {
		a := s.Advertiser
		if score := bids[a] * u.quality[a]; !near(score, ranked[j].score) {
			return fmt.Errorf("round %d phrase %d slot %d: advertiser %d scores %v, oracle's slot score is %v (advertiser %d)", round, q, j, a, score, ranked[j].score, ranked[j].id)
		}
		price := 0.0
		if j+1 < len(ranked) {
			price = math.Min(ranked[j+1].score/u.quality[a], bids[a])
		}
		if !near(s.PricePaid, price) {
			return fmt.Errorf("round %d phrase %d slot %d: advertiser %d pays %v, oracle's GSP price is %v", round, q, j, a, s.PricePaid, price)
		}
	}
	return nil
}

// checkWinners checks what the winners of any auction must satisfy: slots
// filled in order, each by a distinct advertiser interested in the phrase
// who pays between 0 and limit[advertiser] (its bid, named by what).
func (u *universe) checkWinners(round, q int, got []core.SlotResult, limit []float64, what string) error {
	for j, s := range got {
		a := s.Advertiser
		if s.Slot != j {
			return fmt.Errorf("round %d phrase %d: slot %d reported as slot %d", round, q, j, s.Slot)
		}
		if a < 0 || a >= len(u.quality) || !u.in[q][a] {
			return fmt.Errorf("round %d phrase %d slot %d: advertiser %d is not interested in the phrase", round, q, j, a)
		}
		for _, t := range got[:j] {
			if t.Advertiser == a {
				return fmt.Errorf("round %d phrase %d: advertiser %d wins slot %d and slot %d", round, q, a, t.Slot, j)
			}
		}
		if s.PricePaid < 0 || s.PricePaid > limit[a] && !near(s.PricePaid, limit[a]) {
			return fmt.Errorf("round %d phrase %d slot %d: advertiser %d pays %v, outside [0, %s %v]", round, q, j, a, s.PricePaid, what, limit[a])
		}
	}
	return nil
}
