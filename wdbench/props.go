package main

import (
	"fmt"
	"math"

	"sharedwd/internal/core"
	"sharedwd/internal/workload"
)

// spendTol is the slack allowed on a budget comparison: the ledger admits a
// charge within 1e-9 of the remaining budget, and an epoch holds many
// charges.
const spendTol = 1e-6

// displayKey identifies displays a click can belong to: same advertiser,
// same per-click price. Displays are grouped by round in dayChecker.shown.
type displayKey struct {
	adv   int
	price uint64 // math.Float64bits of the per-click price
}

// dayChecker holds the §IV properties of a paced, budget-bound day and
// checks the program's round reports against them. It learns displays only
// from the reported auctions and budgets only from what the benchmark
// granted, so every property is checked from outside the program.
type dayChecker struct {
	u       *universe
	horizon int       // click horizon: delays lie in [1, horizon-1]
	budgets []float64 // budget granted at the start of every epoch

	// shown[r%horizon] counts round r's displays not yet clicked;
	// shownRound says which round a ring slot currently holds.
	shown      []map[displayKey]int
	shownRound []int

	epochStart   int       // first round of the current epoch
	epochSpent0  []float64 // ledger spend when the current epoch started
	clickValue   float64   // Σ prices of every delivered click
	clicksSeen   int
	displaysSeen int
}

func newDayChecker(u *universe, budgets []float64, horizon int) *dayChecker {
	c := &dayChecker{
		u:           u,
		horizon:     horizon,
		budgets:     budgets,
		shown:       make([]map[displayKey]int, horizon),
		shownRound:  make([]int, horizon),
		epochSpent0: make([]float64, len(budgets)),
	}
	for i := range c.shown {
		c.shown[i] = make(map[displayKey]int)
		c.shownRound[i] = -1
	}
	return c
}

// clicks checks the clicks delivered in round: each must arrive this round,
// after a delay in [1, horizon-1], on a display reported earlier at the
// same advertiser and price that no earlier click consumed.
func (c *dayChecker) clicks(round int, clicks []workload.Click) error {
	for _, k := range clicks {
		delay := k.Round - k.Displayed
		if k.Round != round || delay < 1 || delay > c.horizon-1 {
			return fmt.Errorf("round %d: click on advertiser %d displayed in round %d arrives in round %d (delay outside [1, %d])", round, k.Advertiser, k.Displayed, k.Round, c.horizon-1)
		}
		slot := k.Displayed % c.horizon
		key := displayKey{k.Advertiser, math.Float64bits(k.Price)}
		if c.shownRound[slot] != k.Displayed || c.shown[slot][key] == 0 {
			return fmt.Errorf("round %d: click on advertiser %d at price %v matches no unclicked display of round %d", round, k.Advertiser, k.Price, k.Displayed)
		}
		c.shown[slot][key]--
		c.clickValue += k.Price
		c.clicksSeen++
	}
	return nil
}

// auctions checks every winner of the round — distinct, interested in the
// phrase, active, holding budget, paying within [0, stated bid] — and
// records the displays later clicks must match.
func (c *dayChecker) auctions(round int, auctions map[int][]core.SlotResult, active func(int) bool, remaining func(int) float64, statedBid []float64) error {
	slot := round % c.horizon
	if c.shownRound[slot] != round {
		clear(c.shown[slot])
		c.shownRound[slot] = round
	}
	for q := range c.u.members {
		got := auctions[q]
		if err := c.u.checkWinners(round, q, got, statedBid, "stated bid"); err != nil {
			return err
		}
		for j, s := range got {
			a := s.Advertiser
			if !active(a) {
				return fmt.Errorf("round %d phrase %d slot %d: advertiser %d wins while inactive", round, q, j, a)
			}
			if rem := remaining(a); rem <= 0 {
				return fmt.Errorf("round %d phrase %d slot %d: advertiser %d wins with remaining budget %v", round, q, j, a, rem)
			}
			c.shown[slot][displayKey{a, math.Float64bits(s.PricePaid)}]++
			c.displaysSeen++
		}
	}
	return nil
}

// endEpoch checks that no advertiser spent more in the epoch that ends
// with the given round than the budget it was granted, and opens the next
// epoch. spent reads the ledger's cumulative settled spend.
func (c *dayChecker) endEpoch(round int, spent func(int) float64) error {
	for i, b := range c.budgets {
		s := spent(i)
		if d := s - c.epochSpent0[i]; d > b+spendTol {
			return fmt.Errorf("advertiser %d spent %v in rounds %d..%d, over its granted budget %v", i, d, c.epochStart, round, b)
		}
		c.epochSpent0[i] = s
	}
	c.epochStart = round + 1
	return nil
}

// totals checks the accounting identities that two independent paths
// reach: the clicks the benchmark saw are worth the engine's revenue plus
// its forgiven value, and the ledger's settled spend is the engine's
// revenue.
func (c *dayChecker) totals(st core.Stats, ledgerSpent float64) error {
	if !near(c.clickValue, st.Revenue+st.ForgivenValue) {
		return fmt.Errorf("delivered clicks are worth %v, engine revenue %v + forgiven %v", c.clickValue, st.Revenue, st.ForgivenValue)
	}
	if !near(ledgerSpent, st.Revenue) {
		return fmt.Errorf("ledger settled %v, engine revenue %v", ledgerSpent, st.Revenue)
	}
	if c.clicksSeen != st.ClicksCharged+st.ClicksForgiven {
		return fmt.Errorf("%d clicks delivered, engine charged %d and forgave %d", c.clicksSeen, st.ClicksCharged, st.ClicksForgiven)
	}
	if c.displaysSeen != st.AdsDisplayed {
		return fmt.Errorf("%d displays reported, engine counts %d", c.displaysSeen, st.AdsDisplayed)
	}
	return nil
}
