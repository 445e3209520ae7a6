package main

import (
	"math"
	"math/rand"

	"sharedwd/internal/workload"
)

// newUniverse copies the fixed auction inputs of a generated workload.
func newUniverse(w *workload.Workload) *universe {
	u := &universe{
		members: make([][]int, len(w.Interests)),
		in:      make([][]bool, len(w.Interests)),
		quality: make([]float64, len(w.Advertisers)),
		slots:   len(w.SlotFactors),
		names:   append([]string(nil), w.PhraseNames...),
	}
	for i, a := range w.Advertisers {
		u.quality[i] = a.Quality
	}
	for q, set := range w.Interests {
		u.members[q] = set.Indices()
		u.in[q] = make([]bool, len(w.Advertisers))
		for _, i := range u.members[q] {
			u.in[q][i] = true
		}
	}
	return u
}

// occurrenceTrace draws rounds of phrase occurrence from the phrases'
// search rates: the paper's Bernoulli round model, drawn by the benchmark.
func occurrenceTrace(rng *rand.Rand, rates []float64, rounds int) [][]bool {
	trace := make([][]bool, rounds)
	for r := range trace {
		occ := make([]bool, len(rates))
		for q, p := range rates {
			occ[q] = rng.Float64() < p
		}
		trace[r] = occ
	}
	return trace
}

// splitmix64 is a stateless 64-bit mixer, so click outcomes can be a pure
// function of the display.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// clickOutcome returns a pure click-outcome function: a display is clicked
// with probability ctr, after a geometric delay with the given hazard
// conditioned on [1, horizon-1] — the click model of workload.ClickSim,
// drawn from a hash of the display and the seed instead of a random stream.
func clickOutcome(seed int64, hazard float64, horizon int) workload.OutcomeFunc {
	z := 1 - math.Pow(1-hazard, float64(horizon-1))
	return func(adv int, price, ctr float64, round int) (bool, int) {
		h := splitmix64(uint64(seed) ^ splitmix64(uint64(adv)<<32^uint64(round)) ^ math.Float64bits(price))
		if unit(h) >= ctr {
			return false, 0
		}
		d := 1 + int(math.Log1p(-unit(splitmix64(h))*z)/math.Log(1-hazard))
		return true, min(max(d, 1), horizon-1)
	}
}

// churn is the benchmark's schedule of campaign windows: on each day, a
// fraction of the advertisers bid only inside a window of that day, drawn
// afresh per day from a hash of the seed, the advertiser and the day.
// Activity is a pure function of the round, so the benchmark checks it
// without reading the program's state.
type churn struct {
	seed     int64
	n        int
	dayLen   int
	fraction float64
}

// window returns advertiser i's campaign window on the given day as day
// rounds [start, end), or ok false when it bids all day. Windows lie
// strictly inside the day.
func (c *churn) window(i, day int) (start, end int, ok bool) {
	h := splitmix64(uint64(c.seed) ^ splitmix64(uint64(i)<<32^uint64(day)))
	if unit(h) >= c.fraction {
		return 0, 0, false
	}
	h = splitmix64(h)
	start = 1 + int(h%uint64(c.dayLen/2))
	end = start + 1 + int(splitmix64(h)%uint64(c.dayLen-1-start))
	return start, end, true
}

func (c *churn) active(i, round int) bool {
	start, end, ok := c.window(i, round/c.dayLen)
	r := round % c.dayLen
	return !ok || start <= r && r < end
}

// events lays the schedule out over days, in the order the lifecycle
// applies same-round events: from the second day on a budget refresh for
// every advertiser at the day's first round, and for each window a leave
// at the day's first round, a join and a leave at the window's ends, and a
// join at the next day's first round. Every advertiser's first event is
// thus a refresh or a leave, so all start active.
func (c *churn) events(days int) []workload.LifecycleEvent {
	var evs []workload.LifecycleEvent
	for d := 0; d < days; d++ {
		base := d * c.dayLen
		for i := 0; i < c.n; i++ {
			if d > 0 {
				evs = append(evs, workload.LifecycleEvent{Round: base, Kind: workload.LifecycleRefresh, Advertiser: i})
			}
			if start, end, ok := c.window(i, d); ok {
				evs = append(evs,
					workload.LifecycleEvent{Round: base, Kind: workload.LifecycleLeave, Advertiser: i},
					workload.LifecycleEvent{Round: base + start, Kind: workload.LifecycleJoin, Advertiser: i},
					workload.LifecycleEvent{Round: base + end, Kind: workload.LifecycleLeave, Advertiser: i},
					workload.LifecycleEvent{Round: base + c.dayLen, Kind: workload.LifecycleJoin, Advertiser: i})
			}
		}
	}
	return evs
}
