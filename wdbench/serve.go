package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sharedwd/internal/plan"
	"sharedwd/internal/serr"
	"sharedwd/internal/server"
	"sharedwd/internal/sharedagg"
	"sharedwd/internal/workload"
)

// Serving workload parameters: a small universe with static bids, one
// closed-loop client on one connection, and batch calls of the server's
// round size, so a batch closes a round as soon as it is admitted.
//
// With one call outstanding, the process CPU time spent while it is out is
// the work of answering it, which the host's stolen time does not inflate;
// call latency is measured so. One connection also keeps one goroutine
// pushing into the server's intake ring: concurrent pushes there are now
// and then refused as overloaded with the queue nearly empty, a fault the
// benchmark leaves out rather than counts.
const (
	serveBatch     = 256
	serveBatches   = 64 // pre-generated batches, replayed cyclically
	serveWarmup    = 500 * time.Millisecond
	serveCallLimit = 10 * time.Second // per-call deadline; a call past it fails
)

// batchClient is the call both transports' clients share.
type batchClient interface {
	SubmitBatch(ctx context.Context, queries []string) ([]server.Result, error)
	Close() error
}

// serveBench is one serving workload: a server.Server behind one network
// edge, the clients dialled to it, and the batches and expected answers
// the benchmark made.
type serveBench struct {
	name   string
	edge   string // span and metric prefix of the edge: binproto or netserve
	srv    *server.Server
	client batchClient
	stop   func() error

	u        *universe
	batches  [][]string
	phrases  [][]int  // phrase ID of each batch query
	expected [][]cand // oracle ranking per phrase
	bids     []float64

	buildTime time.Duration // traced runs: the benchmark's own plan build
	planNodes int
}

// setupServe generates the small universe, computes every phrase's
// expected answer, starts the server and its edge, and dials the clients.
// Bids are static and budgets never bind, so each phrase's answer is fixed.
func setupServe(name string, seed int64, traced bool, start func(*server.Server) (addr string, stop func() error, err error), dial func(addr string) (batchClient, error)) (*serveBench, error) {
	wcfg := workload.DefaultConfig()
	wcfg.Seed = universeSeed
	w := workload.Generate(wcfg)
	for i := range w.Advertisers {
		w.Advertisers[i].Budget = neverBinds
	}
	sb := &serveBench{name: name, u: newUniverse(w), bids: w.Bids()}
	sb.expected = make([][]cand, len(sb.u.members))
	for q := range sb.expected {
		sb.expected[q] = sb.u.rank(q, sb.bids, nil)
	}
	sb.makeBatches(rand.New(rand.NewSource(seed+4)), w.Rates)

	if traced {
		queries := make([]plan.Query, len(w.Interests))
		for q := range w.Interests {
			queries[q] = plan.Query{Vars: w.Interests[q], Rate: w.Rates[q]}
		}
		inst, err := plan.NewInstance(len(w.Advertisers), queries)
		if err != nil {
			return nil, err
		}
		c0 := processCPU()
		p, _, err := sharedagg.BuildCompiled(inst)
		sb.buildTime = processCPU() - c0
		if err != nil {
			return nil, err
		}
		sb.planNodes = p.TotalCost()
	}

	srv, err := server.New(w, server.DefaultConfig())
	if err != nil {
		return nil, err
	}
	addr, stop, err := start(srv)
	if err != nil {
		srv.Close()
		return nil, err
	}
	sb.srv, sb.stop = srv, stop
	if sb.client, err = dial(addr); err != nil {
		sb.close()
		return nil, err
	}
	return sb, nil
}

// makeBatches draws the query batches: phrases by popularity (their search
// rates), queried by name.
func (sb *serveBench) makeBatches(rng *rand.Rand, rates []float64) {
	cum := make([]float64, len(rates))
	total := 0.0
	for q, r := range rates {
		total += r
		cum[q] = total
	}
	for b := 0; b < serveBatches; b++ {
		qs := make([]string, serveBatch)
		ps := make([]int, serveBatch)
		for i := range qs {
			q := sort.SearchFloat64s(cum, rng.Float64()*total)
			q = min(q, len(rates)-1)
			qs[i], ps[i] = sb.u.names[q], q
		}
		sb.batches = append(sb.batches, qs)
		sb.phrases = append(sb.phrases, ps)
	}
}

// close closes the client, then drains and stops the edge and the server.
func (sb *serveBench) close() error {
	if sb.client != nil {
		sb.client.Close()
	}
	if sb.stop != nil {
		return sb.stop()
	}
	return nil
}

// checkBatch compares the answered queries of one batch with the expected
// answers and returns how many queries failed.
func (sb *serveBench) checkBatch(b int, results []server.Result, err error) (int, error) {
	if results == nil {
		info("%s: batch call failed: %v", sb.name, err)
		return len(sb.batches[b]), nil
	}
	errs := serr.SplitBatch(err, len(results))
	failed := 0
	for i, res := range results {
		if errs[i] != nil {
			if failed == 0 {
				info("%s: query %q failed: %v", sb.name, sb.batches[b][i], errs[i])
			}
			failed++
			continue
		}
		q := sb.phrases[b][i]
		if res.Phrase != q {
			return failed, fmt.Errorf("query %q answered for phrase %d, want %d", sb.batches[b][i], res.Phrase, q)
		}
		if err := sb.u.checkAuction(res.Round, q, res.Slots, sb.expected[q], sb.bids); err != nil {
			return failed, fmt.Errorf("query %q: %w", sb.batches[b][i], err)
		}
	}
	return failed, nil
}

// clientStats is the closed loop's tally.
type clientStats struct {
	calls   []sample        // per call: process CPU time while it was outstanding
	wall    []time.Duration // per call: wall time
	queries int64
	failed  int64
}

// runServe drives the closed loop: the client sends its next batch as soon
// as the previous one is answered. Warm-up calls are checked but not
// counted.
func runServe(sb *serveBench, o options, tr *tracer, setup time.Duration) (result, error) {
	res := result{Metrics: map[string]metric{}}
	defer func() {
		if err := sb.close(); err != nil {
			info("%s: shutdown: %v", sb.name, err)
		}
	}()

	if err := sb.loop(nil, time.Now(), time.Now().Add(serveWarmup), nil, nil); err != nil {
		return res, err
	}

	var allocs allocMeter
	var frames *frameSample
	if tr != nil {
		frames = &frameSample{}
		allocs.start()
		allocs.resume()
	}
	var st clientStats
	t0, cpu0 := time.Now(), processCPU()
	err := sb.loop(tr, t0, t0.Add(o.duration), &st, frames)
	wall, cpu := time.Since(t0), processCPU()-cpu0
	if tr != nil {
		allocs.stop()
	}
	if err != nil {
		return res, err
	}
	res.Correct = true
	res.Attempted, res.Failed = st.queries, st.failed
	answered := res.Attempted - res.Failed
	info("%s: %d calls of %d queries in %v (%v of process CPU), %d latency samples in %d windows, %d failed", sb.name, len(st.calls), serveBatch, wall.Round(time.Millisecond), cpu.Round(time.Millisecond), len(st.calls), windows, res.Failed)

	if tr == nil {
		_, p50 := windowed(st.calls, wall)
		res.put("setup_s", setup.Seconds())
		res.put("ops_per_s", float64(answered)/cpu.Seconds())
		res.put("latency_p50_ms", ms(p50))
		res.put("max_rss_mb", maxRSSMB())
		return res, nil
	}

	m := sb.srv.Metrics()
	wallP50 := quantile(st.wall, 0.50)
	res.putZeroLayers()
	res.put("sharedagg.build_s", sb.buildTime.Seconds())
	res.put("sharedagg.plan_nodes", float64(sb.planNodes))
	res.put("core.aggops_per_auction", ratio(m.Engine.NodesMaterialized, m.Engine.AuctionsResolved))
	res.put("core.cache_hit_ratio", ratio(m.Engine.NodesCached, m.Engine.NodesCached+m.Engine.NodesMaterialized))
	res.put("core.click_charge_ratio", ratio(m.Engine.ClicksCharged, m.Engine.ClicksCharged+m.Engine.ClicksForgiven))
	allocs.report(&res, answered)
	srvTotal := time.Duration(m.TotalLatency.P50() * float64(time.Second))
	res.put("server.admission_wait_p50_us", m.AdmissionWait.P50()*1e6)
	res.put("server.round_wait_p50_us", m.RoundWait.P50()*1e6)
	res.put("server.wd_p50_us", m.WinnerDetermination.P50()*1e6)
	res.put("server.total_p50_us", us(srvTotal))
	res.put("server.queries_per_round", float64(m.Answered)/float64(max(m.Rounds-m.EmptyRounds, 1)))
	res.put("client.wall_p50_ms", ms(wallP50))
	res.put("client.wall_p99_ms", ms(quantile(st.wall, 0.99)))
	res.put("client.cpu_p99_ms", ms(quantile(callTimes(st.calls), 0.99)))
	res.put(sb.edge+".edge_p50_us", us(wallP50-srvTotal))
	res.put("binproto.encode_ns_per_query", frames.encodeNsPerQuery())
	return res, nil
}

// loop runs the client until the deadline. st nil means warm-up; frames,
// when not nil, keeps the first answered batches.
func (sb *serveBench) loop(tr *tracer, start, deadline time.Time, st *clientStats, frames *frameSample) error {
	for call := 0; time.Now().Before(deadline); call++ {
		b := call % len(sb.batches)
		tok := tr.begin(sb.edge+".submit_batch", -1, int64(call))
		ctx, cancel := context.WithTimeout(context.Background(), serveCallLimit)
		t0, c0 := time.Now(), processCPU()
		results, err := sb.client.SubmitBatch(ctx, sb.batches[b])
		c, d := processCPU()-c0, time.Since(t0)
		cancel()
		tr.end(tok)
		failed, cerr := sb.checkBatch(b, results, err)
		if cerr != nil {
			return fmt.Errorf("call %d: %w", call, cerr)
		}
		if st == nil {
			if failed > 0 {
				return fmt.Errorf("warm-up call %d: %w", call, err)
			}
			continue
		}
		st.queries += int64(len(sb.batches[b]))
		st.failed += int64(failed)
		st.calls = append(st.calls, sample{at: time.Since(start), dur: c, ops: int64(len(sb.batches[b]) - failed)})
		st.wall = append(st.wall, d)
		if frames != nil && failed == 0 {
			frames.add(sb.batches[b], results)
		}
	}
	return nil
}
