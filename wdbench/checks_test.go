package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"sharedwd/internal/core"
	"sharedwd/internal/workload"
)

// handUniverse is a 5-advertiser, 2-slot world small enough to rank by
// hand:
//
//	advertiser  bid  quality  score
//	0           2.0  1.0      2.0
//	1           3.0  0.5      1.5
//	2           1.0  1.5      1.5
//	3           4.0  1.0      4.0
//	4           0.0  1.0      0   (no positive score: never ranked)
//
// Phrase 0 is {0,1,2,3}, phrase 1 is {3,4} and phrase 2 is {1,2}.
func handUniverse() (*universe, []float64) {
	members := [][]int{{0, 1, 2, 3}, {3, 4}, {1, 2}}
	u := &universe{members: members, quality: []float64{1, 0.5, 1.5, 1, 1}, slots: 2}
	for _, m := range members {
		in := make([]bool, 5)
		for _, i := range m {
			in[i] = true
		}
		u.in = append(u.in, in)
	}
	return u, []float64{2, 3, 1, 4, 0}
}

func slots(pairs ...float64) []core.SlotResult {
	var out []core.SlotResult
	for j := 0; j+1 < len(pairs); j += 2 {
		out = append(out, core.SlotResult{Slot: j / 2, Advertiser: int(pairs[j]), PricePaid: pairs[j+1]})
	}
	return out
}

func TestOracleHandBuiltAuction(t *testing.T) {
	u, bids := handUniverse()
	cases := []struct {
		name string
		q    int
		got  []core.SlotResult
	}{
		// 3 outranks 0; 0 pays the tied runner-up's 1.5 over its own
		// quality 1, and 3 pays 0's 2.0.
		{"phrase 0", 0, slots(3, 2.0, 0, 1.5)},
		// Only 3 has a positive score: it wins alone and pays nothing.
		{"phrase 1", 1, slots(3, 0)},
		// 1 and 2 tie at 1.5, so either may take slot 0. Slot 0 pays
		// 1.5 over its own quality, capped at its bid: 1 pays 3.0 (its
		// bid), 2 pays 1.0 (also its bid). The last winner pays 0.
		{"phrase 2, ID order", 2, slots(1, 3.0, 2, 0)},
		{"phrase 2, tie swapped", 2, slots(2, 1.0, 1, 0)},
	}
	for _, c := range cases {
		ranked := u.rank(c.q, bids, nil)
		if err := u.checkAuction(7, c.q, c.got, ranked, bids); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
	ranked := u.rank(0, bids, nil)
	want := []int{3, 0, 1} // top slots+1, ties by ascending ID
	if len(ranked) != len(want) {
		t.Fatalf("phrase 0 ranking %v, want IDs %v", ranked, want)
	}
	for j, id := range want {
		if ranked[j].id != id {
			t.Fatalf("phrase 0 ranking %v, want IDs %v", ranked, want)
		}
	}
}

func TestOracleRejectsCorruptedAuctions(t *testing.T) {
	u, bids := handUniverse()
	ranked := u.rank(0, bids, nil)
	cases := []struct {
		name, want string
		got        []core.SlotResult
	}{
		{"swapped winners", "scores", slots(0, 1.5, 3, 2.0)},
		{"price above bid", "outside [0, bid", slots(3, 2.0, 0, 2.5)},
		{"wrong GSP price", "GSP price", slots(3, 1.9, 0, 1.5)},
		{"uninterested winner", "not interested", slots(3, 2.0, 4, 0)},
		{"winner twice", "wins slot", slots(3, 2.0, 3, 1.5)},
		{"missing slot", "slots filled", slots(3, 2.0)},
	}
	for _, c := range cases {
		err := u.checkAuction(7, 0, c.got, ranked, bids)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

func TestDayCheckerAcceptsConsistentDay(t *testing.T) {
	u, bids := handUniverse()
	c := newDayChecker(u, []float64{10, 10, 10, 10, 10}, 4)
	active := func(int) bool { return true }
	remaining := func(int) float64 { return 5 }
	if err := c.auctions(0, map[int][]core.SlotResult{0: slots(3, 2.0, 0, 1.5)}, active, remaining, bids); err != nil {
		t.Fatal(err)
	}
	clicks := []workload.Click{{Advertiser: 3, Price: 2.0, Displayed: 0, Round: 2}}
	if err := c.clicks(2, clicks); err != nil {
		t.Fatal(err)
	}
	spent := []float64{0, 0, 0, 2.0, 0}
	if err := c.endEpoch(2, func(i int) float64 { return spent[i] }); err != nil {
		t.Fatal(err)
	}
	st := core.Stats{Revenue: 2.0, ClicksCharged: 1, AdsDisplayed: 2}
	if err := c.totals(st, 2.0); err != nil {
		t.Fatal(err)
	}
}

func TestDayCheckerRejectsViolations(t *testing.T) {
	u, bids := handUniverse()
	active := func(int) bool { return true }
	remaining := func(int) float64 { return 5 }
	shown := func() *dayChecker {
		c := newDayChecker(u, []float64{10, 10, 10, 10, 10}, 4)
		if err := c.auctions(0, map[int][]core.SlotResult{0: slots(3, 2.0, 0, 1.5)}, active, remaining, bids); err != nil {
			t.Fatal(err)
		}
		return c
	}
	expect := func(name string, err error, want string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got error %v, want one containing %q", name, err, want)
		}
	}

	c := shown()
	expect("click with no display", c.clicks(1, []workload.Click{{Advertiser: 1, Price: 1.0, Displayed: 0, Round: 1}}), "matches no unclicked display")

	c = shown()
	twice := []workload.Click{{Advertiser: 3, Price: 2.0, Displayed: 0, Round: 1}}
	if err := c.clicks(1, twice); err != nil {
		t.Fatal(err)
	}
	twice[0].Round = 2
	expect("display clicked twice", c.clicks(2, twice), "matches no unclicked display")

	c = shown()
	expect("delay past the horizon", c.clicks(4, []workload.Click{{Advertiser: 3, Price: 2.0, Displayed: 0, Round: 4}}), "delay outside")

	c = shown()
	expect("same-round click", c.clicks(0, []workload.Click{{Advertiser: 3, Price: 2.0, Displayed: 0, Round: 0}}), "delay outside")

	c = shown()
	spent := []float64{0, 0, 0, 10.5, 0}
	expect("overspent advertiser", c.endEpoch(2, func(i int) float64 { return spent[i] }), "over its granted budget")

	c = shown()
	expect("revenue mismatch", c.totals(core.Stats{Revenue: 1, AdsDisplayed: 2}, 1), "delivered clicks are worth")

	c = newDayChecker(u, []float64{10, 10, 10, 10, 10}, 4)
	expect("inactive winner", c.auctions(0, map[int][]core.SlotResult{0: slots(3, 2.0)}, func(i int) bool { return i != 3 }, remaining, bids), "inactive")
	expect("winner without budget", c.auctions(1, map[int][]core.SlotResult{0: slots(3, 2.0)}, active, func(int) float64 { return 0 }, bids), "remaining budget")
	expect("price above stated bid", c.auctions(2, map[int][]core.SlotResult{0: slots(0, 2.5)}, active, remaining, bids), "stated bid")
	expect("uninterested winner", c.auctions(3, map[int][]core.SlotResult{1: slots(0, 1.0)}, active, remaining, bids), "not interested")
}

// TestChurnMatchesLifecycle checks the benchmark's own activity function
// against the engine-facing schedule it generates: replaying the events
// through workload.Lifecycle must give the same active set every round.
func TestChurnMatchesLifecycle(t *testing.T) {
	const n, day, days = 50, 20, 4
	c := &churn{seed: 3, n: n, dayLen: day, fraction: 0.5}
	lc, err := workload.NewLifecycle(n, c.events(days))
	if err != nil {
		t.Fatal(err)
	}
	active := make([]bool, n)
	for i := range active {
		active[i] = lc.InitiallyActive(i)
	}
	cursor := 0
	for r := 0; r < day*days; r++ {
		cursor = lc.Apply(cursor, r, func(ev workload.LifecycleEvent) {
			switch ev.Kind {
			case workload.LifecycleJoin:
				active[ev.Advertiser] = true
			case workload.LifecycleLeave:
				active[ev.Advertiser] = false
			}
		})
		for i := range active {
			if active[i] != c.active(i, r) {
				t.Fatalf("round %d advertiser %d: lifecycle active %v, churn says %v", r, i, active[i], c.active(i, r))
			}
		}
	}
}

func TestClickOutcomeIsPureAndCalibrated(t *testing.T) {
	f := clickOutcome(9, 0.3, 20)
	clicked, n := 0, 20000
	for i := 0; i < n; i++ {
		c1, d1 := f(i%37, 1.25, 0.2, i)
		c2, d2 := f(i%37, 1.25, 0.2, i)
		if c1 != c2 || d1 != d2 {
			t.Fatalf("outcome not pure for display %d", i)
		}
		if c1 {
			clicked++
			if d1 < 1 || d1 > 19 {
				t.Fatalf("delay %d outside [1, 19]", d1)
			}
		}
	}
	if rate := float64(clicked) / float64(n); math.Abs(rate-0.2) > 0.02 {
		t.Fatalf("click rate %v, want about 0.2", rate)
	}
}

// TestWorkloadsPass runs every workload briefly, untraced and traced, so
// the checks above run against the program itself.
func TestWorkloadsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // span files land here
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(options{workload: w, seed: 5, duration: 300 * time.Millisecond, traced: traced})
			if err != nil || !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s traced=%v: %+v, %v", w, traced, res, err)
			}
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps the metric list the benchmark's
// descriptor declares equal to the metrics the runs report.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var desc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &desc); err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for _, m := range append(desc.EndToEnd, desc.PerLayer...) {
		declared[m.Name] = m.Unit
	}
	if len(declared) != len(units) {
		t.Errorf("BENCHMARK.json declares %d metrics, the benchmark reports %d", len(declared), len(units))
	}
	for name, unit := range units {
		if declared[name] != unit {
			t.Errorf("metric %s: BENCHMARK.json unit %q, reported unit %q", name, declared[name], unit)
		}
	}
	if len(desc.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the benchmark %d", len(desc.EndToEnd), len(endToEnd))
	}
	for i, w := range desc.Workloads {
		if i >= len(workloads) || workloads[i] != w.Name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's %v", i, w.Name, workloads)
		}
	}
}
