package main

import (
	"fmt"
	"math/rand"
	"time"

	"sharedwd/internal/budget"
	"sharedwd/internal/core"
	"sharedwd/internal/plan"
	"sharedwd/internal/pricing"
	"sharedwd/internal/workload"
)

// replayer re-runs one engine round's layers through their public
// functions, on the same inputs the engine saw, so the traced run can time
// each layer on its own: click settlement (ClickSim), leaf scoring (the
// pacer factor, the ledger and the throttled-bid functions), the compiled
// plan (a plan.Runner compiled from the engine's own instance) and pricing.
// It also yields the replayed round bids b̂ the oracle ranks with.
type replayer struct {
	u           *universe
	cfg         core.Config
	slotFactors []float64
	cs          *workload.ClickSim
	runner      *plan.Runner

	bids     []float64 // round bids b̂ of the replayed round
	score    []float64
	last     []float64 // score each runner leaf was last computed from
	mCount   []int
	outP     []float64
	outC     []float64
	ads      []budget.OutstandingAd
	rankedPr []pricing.Ranked
	pricesPr []float64

	// time spent in each replayed layer
	advance, display, throttle, run, price time.Duration

	rounds, pending              int
	fastPath, enumCalls, dpCalls int
	throttledAdvertisers         int
}

func newReplayer(u *universe, cfg core.Config, slotFactors []float64, prog *plan.Program) *replayer {
	n := len(u.quality)
	cs := workload.NewClickSim(rand.New(rand.NewSource(0)), cfg.ClickHazard, cfg.ClickHorizon)
	cs.SetOutcome(cfg.ClickOutcome)
	return &replayer{
		u:           u,
		cfg:         cfg,
		slotFactors: slotFactors,
		cs:          cs,
		runner:      plan.NewRunner(prog, len(slotFactors)+1),
		bids:        make([]float64, n),
		score:       make([]float64, n),
		last:        make([]float64, n),
		mCount:      make([]int, n),
	}
}

// leafInputs is what the engine's leaf scoring reads for one advertiser:
// the stated bid, the pacing factor, the remaining budget and the
// lifecycle flag.
type leafInputs struct {
	statedBid []float64
	factor    func(int) float64 // nil without a pacer
	remaining func(int) float64
	active    func(int) bool
}

// replay re-runs round r. It must be called after the engine's Step for
// the round: the ledger then holds the round's charges, which all land
// before bidding, and the pacer its factors for the round.
func (rp *replayer) replay(tr *tracer, parent int32, r int, occ []bool, rep core.RoundReport, in leafInputs) error {
	rp.rounds++

	tok := tr.begin("workload.advance", parent, int64(r))
	clicks := rp.cs.Advance(r)
	rp.advance += tr.end(tok)
	if len(clicks) != len(rep.Clicks) {
		return fmt.Errorf("round %d: replayed click simulator delivers %d clicks, engine %d", r, len(clicks), len(rep.Clicks))
	}
	for i := range clicks {
		if clicks[i] != rep.Clicks[i] {
			return fmt.Errorf("round %d: replayed click %+v, engine delivered %+v", r, clicks[i], rep.Clicks[i])
		}
	}
	rp.pending += rp.cs.PendingCount()

	for i := range rp.mCount {
		rp.mCount[i] = 0
	}
	for q, o := range occ {
		if o {
			for _, i := range rp.u.members[q] {
				rp.mCount[i]++
			}
		}
	}

	tok = tr.begin("budget.throttle", parent, int64(r))
	for i, m := range rp.mCount {
		rp.bids[i], rp.score[i] = 0, 0
		if m == 0 || !in.active(i) {
			continue
		}
		bid := in.statedBid[i]
		if in.factor != nil {
			bid *= in.factor(i)
		}
		if bid <= 0 {
			continue
		}
		rp.bids[i] = rp.policyBid(i, bid, m, r, in.remaining(i))
		rp.score[i] = rp.bids[i] * rp.u.quality[i]
	}
	rp.throttle += tr.end(tok)

	tok = tr.begin("plan.run", parent, int64(r))
	for i, m := range rp.mCount {
		if m > 0 && rp.score[i] != rp.last[i] {
			rp.runner.Invalidate(i)
			rp.last[i] = rp.score[i]
		}
	}
	rp.runner.RunIncremental(rp.score, occ)
	rp.run += tr.end(tok)

	tok = tr.begin("pricing.price", parent, int64(r))
	for q, o := range occ {
		if !o {
			continue
		}
		ranked := rp.rankedPr[:0]
		for _, e := range rp.runner.QueryRun(q) {
			ranked = append(ranked, pricing.Ranked{ID: e.ID, Bid: rp.bids[e.ID], Quality: rp.u.quality[e.ID]})
		}
		rp.rankedPr = ranked
		_, rp.pricesPr = pricing.AppendPricesWithReserve(nil, rp.pricesPr[:0], rp.cfg.Pricing, ranked, rp.slotFactors, rp.cfg.Reserve)
	}
	rp.price += tr.end(tok)

	tok = tr.begin("workload.display", parent, int64(r))
	for q := range occ {
		for j, s := range rep.Auctions[q] {
			ctr := min(rp.u.quality[s.Advertiser]*rp.slotFactors[j], 1)
			rp.cs.Display(s.Advertiser, s.PricePaid, ctr, r)
		}
	}
	rp.display += tr.end(tok)
	return nil
}

// policyBid is the engine's budget policy for one advertiser, computed
// through the budget package's public functions.
func (rp *replayer) policyBid(i int, bid float64, m, r int, remaining float64) float64 {
	if remaining <= 0 {
		return 0
	}
	if rp.cfg.Policy == core.Naive {
		return min(bid, remaining)
	}
	rp.throttledAdvertisers++
	rp.outP, rp.outC = rp.cs.AppendOutstanding(rp.outP[:0], rp.outC[:0], i, r)
	omega := 0.0
	for _, p := range rp.outP {
		omega += p
	}
	if omega <= remaining-float64(m)*bid {
		rp.fastPath++
		return bid
	}
	ads := rp.ads[:0]
	for j := range rp.outP {
		ads = append(ads, budget.OutstandingAd{Price: rp.outP[j], CTR: rp.outC[j]})
	}
	rp.ads = ads
	if len(ads) <= rp.cfg.ThrottleEnumLimit {
		rp.enumCalls++
		return budget.ExactThrottledBid(bid, remaining, m, ads)
	}
	rp.dpCalls++
	return budget.ExactThrottledBidDP(bid, remaining, m, ads, rp.cfg.ThrottleUnit)
}

// resetCounters zeroes the timers and counts, so they cover only the
// rounds replayed after the call.
func (rp *replayer) resetCounters() {
	rp.advance, rp.display, rp.throttle, rp.run, rp.price = 0, 0, 0, 0, 0
	rp.rounds, rp.pending = 0, 0
	rp.fastPath, rp.enumCalls, rp.dpCalls = 0, 0, 0
	rp.throttledAdvertisers = 0
}

// total is the replayed layers' time.
func (rp *replayer) total() time.Duration {
	return rp.advance + rp.display + rp.throttle + rp.run + rp.price
}
