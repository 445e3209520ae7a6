package main

import (
	"fmt"
	"math/rand"
	"time"

	"sharedwd/internal/budget"
	"sharedwd/internal/core"
	"sharedwd/internal/sharedagg"
	"sharedwd/internal/workload"
)

// universeSeed generates every workload's universe: advertisers, bids,
// budgets, qualities and interests. The universe is part of a workload's
// definition, held fixed so that runs differ only in what --seed draws —
// occurrence traces, bid moves, click outcomes, campaign windows and query
// batches — and the figures of runs on different seeds stay comparable.
const universeSeed = 1

// Engine workload parameters. Both universes have 2000 advertisers over 64
// phrases: large enough that a round's leaf scoring and plan execution
// dominate the benchmark's own per-round work.
const (
	engineAdvertisers = 2000
	enginePhrases     = 64
	traceRounds       = 4096 // pre-generated occurrence rounds, replayed cyclically
	walkWarmup        = 200  // rounds-walk: rounds stepped and checked, not timed
	bidWalkScale      = 0.05 // rounds-walk: per-round multiplicative bid move
	neverBinds        = 1e12 // a budget no run can spend
	churnFraction     = 0.1  // day-paced: advertisers with a campaign window

	// A day-paced day is the pacing horizon and the budget epoch. Its cost
	// per round changes as budgets drain, so a run warms up for one day
	// and times whole days only; a short day keeps several in every run.
	dayRounds = 100
	// maxDays bounds the lifecycle schedule, and so a day-paced run: at
	// about 90 rounds a second it lasts a run of about two minutes.
	maxDays = 100
)

// engineBench is one engine workload: an engine stepped directly over a
// pre-generated occurrence trace, and what the benchmark needs to check
// and replay its rounds.
type engineBench struct {
	name  string
	w     *workload.Workload
	u     *universe
	cfg   core.Config
	eng   *core.Engine
	trace [][]bool
	nOcc  []int // occurring phrases per trace round

	bids []float64 // the benchmark's stated bids, written into w each round
	walk *rand.Rand

	warmup int // rounds stepped before timing starts
	period int // a run ends only at a multiple of this many rounds

	// day-paced only
	ledger  *budget.Ledger
	pacer   *budget.Pacer
	life    *workload.Lifecycle
	churn   *churn
	checker *dayChecker
	budgets []float64

	ranked []cand
}

// setupRoundsWalk builds rounds-walk: the default topic-clustered mix,
// Naive policy, budgets that never bind, and a seeded bid walk between
// rounds, so every leaf score changes every round.
func setupRoundsWalk(seed int64) (*engineBench, error) {
	wcfg := workload.DefaultConfig()
	wcfg.NumAdvertisers, wcfg.NumPhrases, wcfg.Seed = engineAdvertisers, enginePhrases, universeSeed
	w := workload.Generate(wcfg)
	for i := range w.Advertisers {
		w.Advertisers[i].Budget = neverBinds
	}
	cfg := core.DefaultConfig()
	cfg.Policy = core.Naive
	cfg.IncrementalCache = true
	cfg.ClickOutcome = clickOutcome(seed, cfg.ClickHazard, cfg.ClickHorizon)
	eb := &engineBench{name: "rounds-walk", w: w, cfg: cfg, walk: rand.New(rand.NewSource(seed + 1)), warmup: walkWarmup, period: 1}
	return eb, eb.finishSetup(seed)
}

// setupDayPaced builds day-paced: the broad-match preset, Throttled policy,
// budgets that bind, a shared ledger, a pacer whose horizon is one day, and
// a repeating day of campaign windows with a budget refresh every day.
func setupDayPaced(seed int64) (*engineBench, error) {
	wcfg := workload.HighOverlapConfig()
	wcfg.NumAdvertisers, wcfg.NumPhrases, wcfg.Seed = engineAdvertisers, enginePhrases, universeSeed
	w := workload.Generate(wcfg)
	eb := &engineBench{name: "day-paced", w: w, warmup: dayRounds, period: dayRounds}
	eb.budgets = make([]float64, len(w.Advertisers))
	for i, a := range w.Advertisers {
		eb.budgets[i] = a.Budget
	}
	eb.churn = &churn{seed: seed, n: len(w.Advertisers), dayLen: dayRounds, fraction: churnFraction}
	var err error
	if eb.life, err = workload.NewLifecycle(len(w.Advertisers), eb.churn.events(maxDays)); err != nil {
		return nil, err
	}
	eb.cfg = core.DefaultConfig()
	eb.cfg.IncrementalCache = true
	eb.cfg.ClickOutcome = clickOutcome(seed, eb.cfg.ClickHazard, eb.cfg.ClickHorizon)
	eb.cfg.Lifecycle = eb.life
	if eb.ledger, eb.pacer, err = eb.newBudgetState(); err != nil {
		return nil, err
	}
	eb.cfg.Ledger, eb.cfg.Pacer = eb.ledger, eb.pacer
	if err := eb.finishSetup(seed); err != nil {
		return nil, err
	}
	eb.checker = newDayChecker(eb.u, eb.budgets, eb.cfg.ClickHorizon)
	return eb, nil
}

// newBudgetState returns a fresh ledger and a pacer over it with a one-day
// horizon, fed the day schedule.
func (eb *engineBench) newBudgetState() (*budget.Ledger, *budget.Pacer, error) {
	ledger := budget.NewLedger(eb.budgets)
	pcfg := budget.DefaultPacerConfig()
	pcfg.Horizon = dayRounds
	pacer, err := budget.NewPacer(ledger, eb.budgets, pcfg, eb.life)
	return ledger, pacer, err
}

func (eb *engineBench) finishSetup(seed int64) error {
	eb.u = newUniverse(eb.w)
	eb.bids = eb.w.Bids()
	eb.trace = occurrenceTrace(rand.New(rand.NewSource(seed+3)), eb.w.Rates, traceRounds)
	eb.nOcc = make([]int, len(eb.trace))
	for r, occ := range eb.trace {
		for _, o := range occ {
			if o {
				eb.nOcc[r]++
			}
		}
	}
	var err error
	eb.eng, err = core.New(eb.w, eb.cfg)
	return err
}

// maxRounds is the number of rounds the workload can step.
func (eb *engineBench) maxRounds() int {
	if eb.life != nil {
		return dayRounds * maxDays
	}
	return 1 << 62
}

// prepare applies the benchmark's input moves before round r.
func (eb *engineBench) prepare() {
	if eb.walk == nil {
		return
	}
	lo, hi := eb.w.Cfg.MinBid, eb.w.Cfg.MaxBid
	for i, b := range eb.bids {
		b *= 1 + bidWalkScale*(2*eb.walk.Float64()-1)
		eb.bids[i] = min(max(b, lo), hi)
		eb.w.Advertisers[i].Bid = eb.bids[i]
	}
}

func (eb *engineBench) active(r int) func(int) bool {
	if eb.churn == nil {
		return func(int) bool { return true }
	}
	return func(i int) bool { return eb.churn.active(i, r) }
}

// check verifies round r's report: against the oracle on rounds-walk,
// against the §IV properties on day-paced.
func (eb *engineBench) check(r int, occ []bool, rep core.RoundReport) error {
	if eb.checker == nil {
		return eb.checkOracle(r, occ, rep, eb.bids)
	}
	if err := eb.checker.clicks(r, rep.Clicks); err != nil {
		return err
	}
	if err := eb.checker.auctions(r, rep.Auctions, eb.active(r), eb.ledger.Remaining, eb.bids); err != nil {
		return err
	}
	if (r+1)%dayRounds == 0 {
		return eb.checker.endEpoch(r, eb.ledger.Spent)
	}
	return nil
}

// checkOracle compares every occurring auction of the report with the
// oracle's ranking under the given round bids.
func (eb *engineBench) checkOracle(r int, occ []bool, rep core.RoundReport, bids []float64) error {
	for q, o := range occ {
		if !o {
			if len(rep.Auctions[q]) > 0 {
				return fmt.Errorf("round %d: phrase %d did not occur but has winners", r, q)
			}
			continue
		}
		eb.ranked = eb.u.rank(q, bids, eb.ranked)
		if err := eb.u.checkAuction(r, q, rep.Auctions[q], eb.ranked, bids); err != nil {
			return err
		}
	}
	return nil
}

// finish runs the end-of-run checks after the last round r.
func (eb *engineBench) finish(r int) error {
	if eb.checker == nil {
		return nil
	}
	if err := eb.checker.endEpoch(r, eb.ledger.Spent); err != nil {
		return err
	}
	return eb.checker.totals(eb.eng.Stats(), eb.ledger.TotalSpent())
}

// runEngine steps the engine for the run's duration after the warm-up and
// returns the run's metrics. With a tracer it also replays every round's
// layers, steps an Independent engine over the same inputs and reports the
// per-layer metrics instead of the end-to-end ones.
func runEngine(eb *engineBench, o options, tr *tracer, setup time.Duration) (result, error) {
	defer eb.eng.Close()
	res := result{Metrics: map[string]metric{}}
	var (
		samples  []sample
		stepTime time.Duration
		auctions int64
		measured int
		mat, hit int
		start    time.Time
	)

	var (
		rp          *replayer
		indep       *core.Engine
		indepLat    []time.Duration
		pacerSync   time.Duration
		buildTime   time.Duration
		planNodes   int
		allocs      allocMeter
		frames      frameSample
		indepLedger *budget.Ledger
	)
	if tr != nil {
		var err error
		if rp, buildTime, planNodes, err = eb.newReplay(); err != nil {
			return res, err
		}
		if indep, indepLedger, err = eb.newIndependent(); err != nil {
			return res, err
		}
		defer indep.Close()
	}

	r := 0
	for ; r < eb.maxRounds(); r++ {
		if r == eb.warmup {
			start = time.Now()
			if tr != nil {
				rp.resetCounters()
				allocs.start()
			}
		}
		timed := r >= eb.warmup
		if timed && r%eb.period == 0 && time.Since(start) >= o.duration {
			break
		}
		occ := eb.trace[r%len(eb.trace)]
		eb.prepare()

		root := tr.begin("round", -1, int64(r))
		if tr != nil && eb.pacer != nil {
			tok := tr.begin("budget.pacer_sync", root.idx, int64(r))
			eb.pacer.SyncRound(r)
			if timed {
				pacerSync += tr.end(tok)
			}
		}
		tok := tr.begin("core.step", root.idx, int64(r))
		if tr != nil && timed {
			allocs.resume()
		}
		c0 := threadCPU()
		rep := eb.eng.Step(occ)
		d := threadCPU() - c0
		if tr != nil && timed {
			allocs.pause()
		}
		tr.end(tok)
		if timed {
			samples = append(samples, sample{at: time.Since(start), dur: d, ops: int64(eb.nOcc[r%len(eb.nOcc)])})
			stepTime += d
			auctions += int64(eb.nOcc[r%len(eb.nOcc)])
			measured++
			mat += rep.Materialized
			hit += rep.Cached
			if tr != nil {
				frames.addRound(eb.u, r, occ, rep.Auctions)
			}
		}

		chk := tr.begin("check", root.idx, int64(r))
		err := eb.check(r, occ, rep)
		tr.end(chk)
		if err != nil {
			return res, err
		}

		if tr != nil {
			if err := eb.replayRound(tr, rp, root.idx, r, occ, rep); err != nil {
				return res, err
			}
			itok := tr.begin("core.step_independent", root.idx, int64(r))
			irep := indep.Step(occ)
			if d := tr.end(itok); timed {
				indepLat = append(indepLat, d)
			}
			if err := eb.compareReports(r, occ, rep, irep); err != nil {
				return res, fmt.Errorf("independent engine: %w", err)
			}
		}
		tr.end(root)
	}
	elapsed := time.Since(start)
	if measured == 0 {
		return res, fmt.Errorf("no round was timed")
	}
	if err := eb.finish(r - 1); err != nil {
		return res, err
	}
	res.Correct = true
	res.Attempted = auctions
	st := eb.eng.Stats()
	info("%s: %d rounds timed in %v, %d auctions, %d Step latency samples in %d windows", eb.name, measured, elapsed.Round(time.Millisecond), auctions, len(samples), windows)

	if tr == nil {
		ops, p50 := windowed(samples, elapsed)
		res.put("setup_s", setup.Seconds())
		res.put("ops_per_s", ops)
		res.put("latency_p50_ms", ms(p50))
		res.put("max_rss_mb", maxRSSMB())
		return res, nil
	}

	if indepLedger != nil {
		if err := eb.checkIndependentTotals(indep, indepLedger); err != nil {
			return res, err
		}
	}
	res.putZeroLayers()
	res.put("sharedagg.build_s", buildTime.Seconds())
	res.put("sharedagg.plan_nodes", float64(planNodes))
	res.put("core.aggops_per_auction", float64(mat)/float64(auctions))
	res.put("core.cache_hit_ratio", ratio(hit, hit+mat))
	res.put("core.independent_latency_p50_ms", ms(quantile(indepLat, 0.50)))
	res.put("core.click_charge_ratio", ratio(st.ClicksCharged, st.ClicksCharged+st.ClicksForgiven))
	res.put("core.step_mean_ms", ms(stepTime)/float64(measured))
	res.put("core.step_p99_ms", ms(quantile(callTimes(samples), 0.99)))
	res.put("core.replayed_layers_ms", ms(rp.total())/float64(rp.rounds))
	res.put("plan.run_ms", perRound(rp.run, rp.rounds, time.Millisecond))
	res.put("pricing.price_us", perRound(rp.price, rp.rounds, time.Microsecond))
	res.put("workload.pending_ads", float64(rp.pending)/float64(rp.rounds))
	res.put("workload.advance_us", perRound(rp.advance, rp.rounds, time.Microsecond))
	res.put("workload.display_us", perRound(rp.display, rp.rounds, time.Microsecond))
	res.put("budget.throttle_ms", perRound(rp.throttle, rp.rounds, time.Millisecond))
	res.put("budget.dp_calls_per_round", float64(rp.dpCalls)/float64(rp.rounds))
	res.put("budget.enum_calls_per_round", float64(rp.enumCalls)/float64(rp.rounds))
	res.put("budget.fastpath_ratio", ratio(rp.fastPath, rp.throttledAdvertisers))
	res.put("budget.pacer_sync_us", perRound(pacerSync, measured, time.Microsecond))
	allocs.report(&res, auctions)
	res.put("binproto.encode_ns_per_query", frames.encodeNsPerQuery())
	stepMean := ms(stepTime) / float64(measured)
	replayed := ms(rp.total()) / float64(rp.rounds)
	info("%s: Step %.4f ms/round (+ pacer sync %.4f ms); replayed layers %.4f ms/round; remainder %.4f ms/round",
		eb.name, stepMean, perRound(pacerSync, measured, time.Millisecond), replayed, stepMean-replayed)
	return res, nil
}

// newReplay builds the replayer over a plan compiled by the benchmark from
// the engine's own instance, timing the build.
func (eb *engineBench) newReplay() (*replayer, time.Duration, int, error) {
	c0 := threadCPU()
	p, prog, err := sharedagg.BuildCompiled(eb.eng.PlanInstance())
	build := threadCPU() - c0
	if err != nil {
		return nil, 0, 0, err
	}
	return newReplayer(eb.u, eb.cfg, eb.w.SlotFactors, prog), build, p.TotalCost(), nil
}

// newIndependent builds an Independent-sharing engine over the same
// universe and bids (the workload copy shares the advertiser slice), with
// budget state of its own on day-paced.
func (eb *engineBench) newIndependent() (*core.Engine, *budget.Ledger, error) {
	cfg := eb.cfg
	cfg.Sharing = core.Independent
	var ledger *budget.Ledger
	if eb.ledger != nil {
		var pacer *budget.Pacer
		var err error
		if ledger, pacer, err = eb.newBudgetState(); err != nil {
			return nil, nil, err
		}
		cfg.Ledger, cfg.Pacer = ledger, pacer
	}
	w := *eb.w
	eng, err := core.New(&w, cfg)
	return eng, ledger, err
}

// replayRound replays round r's layers and checks the replayed b̂·c
// ranking against the engine's winners.
func (eb *engineBench) replayRound(tr *tracer, rp *replayer, parent int32, r int, occ []bool, rep core.RoundReport) error {
	in := leafInputs{statedBid: eb.bids, remaining: eb.eng.Remaining, active: eb.active(r)}
	if eb.pacer != nil {
		in.factor = eb.pacer.Factor
	}
	if err := rp.replay(tr, parent, r, occ, rep, in); err != nil {
		return err
	}
	return eb.checkOracle(r, occ, rep, rp.bids)
}

// compareReports checks that the Independent engine resolved round r
// exactly as the shared one did.
func (eb *engineBench) compareReports(r int, occ []bool, a, b core.RoundReport) error {
	for q, o := range occ {
		if !o {
			continue
		}
		x, y := a.Auctions[q], b.Auctions[q]
		if len(x) != len(y) {
			return fmt.Errorf("round %d phrase %d: %d slots filled, shared engine filled %d", r, q, len(y), len(x))
		}
		for j := range x {
			if x[j].Advertiser != y[j].Advertiser || !near(x[j].PricePaid, y[j].PricePaid) {
				return fmt.Errorf("round %d phrase %d slot %d: advertiser %d at %v, shared engine advertiser %d at %v", r, q, j, y[j].Advertiser, y[j].PricePaid, x[j].Advertiser, x[j].PricePaid)
			}
		}
	}
	return nil
}

func (eb *engineBench) checkIndependentTotals(indep *core.Engine, ledger *budget.Ledger) error {
	if a, b := eb.eng.Stats(), indep.Stats(); !near(a.Revenue, b.Revenue) || a.ClicksCharged != b.ClicksCharged {
		return fmt.Errorf("independent engine revenue %v over %d clicks, shared %v over %d", b.Revenue, b.ClicksCharged, a.Revenue, a.ClicksCharged)
	}
	if !near(ledger.TotalSpent(), indep.Stats().Revenue) {
		return fmt.Errorf("independent engine: ledger settled %v, revenue %v", ledger.TotalSpent(), indep.Stats().Revenue)
	}
	return nil
}
