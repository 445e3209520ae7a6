// Command wdbench is the repository's benchmark: one seeded workload per
// run, from the round engine to both network edges, with every output
// checked against the benchmark's own auction oracle or the §IV budget
// properties.
//
// Usage (from the repository root; wdbench/run.sh builds and runs it):
//
//	wdbench --workload rounds-walk|day-paced|serve-binary|serve-http|all
//	        [--seed 1] [--seconds 10] [--trace 0|1]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (name → value and unit). An untraced run (--trace 0)
// reports the end-to-end metrics; a traced run (--trace 1) replays and
// times each layer, reports the per-layer metrics and writes its spans to
// .bench_out/spans-<workload>.jsonl. A failed check prints the auction,
// advertiser or click that broke it and exits 1. --workload all runs every
// workload untraced and then traced, one child process each.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"

	"sharedwd/internal/binproto"
	"sharedwd/internal/netserve"
	"sharedwd/internal/server"
)

var workloads = []string{"rounds-walk", "day-paced", "serve-binary", "serve-http"}

type options struct {
	workload string
	seed     int64
	duration time.Duration
	traced   bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units names every metric the benchmark reports, with its unit.
var units = map[string]string{
	"setup_s":        "s",
	"ops_per_s":      "1/s",
	"latency_p50_ms": "ms",
	"max_rss_mb":     "MB",

	"sharedagg.build_s":               "s",
	"sharedagg.plan_nodes":            "count",
	"core.aggops_per_auction":         "count",
	"core.cache_hit_ratio":            "ratio",
	"core.independent_latency_p50_ms": "ms",
	"core.click_charge_ratio":         "ratio",
	"core.step_mean_ms":               "ms",
	"core.step_p99_ms":                "ms",
	"core.replayed_layers_ms":         "ms",
	"plan.run_ms":                     "ms",
	"pricing.price_us":                "us",
	"workload.pending_ads":            "count",
	"workload.advance_us":             "us",
	"workload.display_us":             "us",
	"budget.throttle_ms":              "ms",
	"budget.dp_calls_per_round":       "count",
	"budget.enum_calls_per_round":     "count",
	"budget.fastpath_ratio":           "ratio",
	"budget.pacer_sync_us":            "us",
	"alloc_bytes_per_op":              "B",
	"allocs_per_op":                   "count",
	"gc_cycles":                       "count",
	"server.admission_wait_p50_us":    "us",
	"server.round_wait_p50_us":        "us",
	"server.wd_p50_us":                "us",
	"server.total_p50_us":             "us",
	"server.queries_per_round":        "count",
	"client.wall_p50_ms":              "ms",
	"client.wall_p99_ms":              "ms",
	"client.cpu_p99_ms":               "ms",
	"binproto.edge_p50_us":            "us",
	"binproto.encode_ns_per_query":    "ns",
	"netserve.edge_p50_us":            "us",
}

// endToEnd lists the metrics an untraced run reports. The p99 of a Step or
// a call is reported by traced runs only (core.step_p99_ms,
// client.cpu_p99_ms, client.wall_p99_ms): on the host the benchmark was
// sized on, its spread over ten runs of one commit reached 0.35 to 1.65 of
// its median, beyond any bound that could gate a change.
var endToEnd = []string{"setup_s", "ops_per_s", "latency_p50_ms", "max_rss_mb"}

func (r *result) put(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("wdbench: metric without a unit: " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: u}
}

// putZeroLayers reports every per-layer metric as 0. A traced run then
// fills in those of the layers on its workload's path, so a 0 means the
// workload does not reach that layer.
func (r *result) putZeroLayers() {
	for n := range units {
		if !slices.Contains(endToEnd, n) {
			r.put(n, 0)
		}
	}
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// maxRSSMB returns the process's peak resident memory.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// info prints a progress line to standard error.
func info(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wdbench: "+format+"\n", args...)
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: rounds-walk, day-paced, serve-binary, serve-http or all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and a span file")
	flag.Parse()
	if seconds < 1 || trace < 0 || trace > 1 {
		fmt.Fprintln(os.Stderr, "wdbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	o.duration, o.traced = time.Duration(seconds)*time.Second, trace == 1
	if o.workload == "all" {
		os.Exit(runAll(o, seconds))
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wdbench: %s: %v\n", o.workload, err)
		res.Correct = false
	}
	for _, name := range sortedNames(res.Metrics) {
		m := res.Metrics[name]
		info("%-34s %14.6g %s", name, m.Value, m.Unit)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if err != nil {
		os.Exit(1)
	}
}

// run sets up and runs one workload.
func run(o options) (result, error) {
	res, tr, err := runWorkload(o)
	if res.Metrics == nil {
		res.Metrics = map[string]metric{}
	}
	if err == nil && tr != nil {
		path, werr := tr.write(".bench_out", o.workload)
		if werr != nil {
			return res, fmt.Errorf("writing spans: %w", werr)
		}
		info("%d spans written to %s (%d not kept)", len(tr.spans), path, tr.dropped)
	}
	return res, err
}

// runWorkload sets up and runs one workload. setup_s is the process's CPU
// time when set-up ends: the cold set-up from the process's start.
func runWorkload(o options) (result, *tracer, error) {
	var tr *tracer
	switch o.workload {
	case "rounds-walk", "day-paced":
		// The engine and the replay run on this goroutine; locking it to
		// its thread lets the thread CPU clock time them.
		runtime.LockOSThread()
		setup := setupRoundsWalk
		if o.workload == "day-paced" {
			setup = setupDayPaced
		}
		eb, err := setup(o.seed)
		if err != nil {
			return result{}, nil, fmt.Errorf("setup: %w", err)
		}
		if o.traced {
			tr = newTracer(threadCPU)
		}
		res, err := runEngine(eb, o, tr, processCPU())
		return res, tr, err
	case "serve-binary", "serve-http":
		start, dial, edge := startBinary, dialBinary, "binproto"
		if o.workload == "serve-http" {
			start, dial, edge = startHTTP, dialHTTP, "netserve"
		}
		sb, err := setupServe(o.workload, o.seed, o.traced, start, dial)
		if err != nil {
			return result{}, nil, fmt.Errorf("setup: %w", err)
		}
		sb.edge = edge
		if o.traced {
			tr = newTracer(wallClock())
		}
		res, err := runServe(sb, o, tr, processCPU())
		return res, tr, err
	}
	return result{}, nil, fmt.Errorf("unknown workload %q", o.workload)
}

func startBinary(srv *server.Server) (string, func() error, error) {
	bs := binproto.New(srv, binproto.Config{})
	if err := bs.Start(); err != nil {
		return "", nil, err
	}
	return bs.Addr(), func() error { return withShutdownCtx(bs.Shutdown) }, nil
}

func dialBinary(addr string) (batchClient, error) { return binproto.Dial(addr) }

func startHTTP(srv *server.Server) (string, func() error, error) {
	ns := netserve.New(srv, nil, netserve.Config{})
	if err := ns.Start(); err != nil {
		return "", nil, err
	}
	return ns.Addr(), func() error { return withShutdownCtx(ns.Shutdown) }, nil
}

func dialHTTP(addr string) (batchClient, error) { return netserve.NewClient(addr), nil }

// withShutdownCtx runs a graceful shutdown bounded to ten seconds.
func withShutdownCtx(shutdown func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return shutdown(ctx)
}

// runAll runs every workload untraced and then traced, each in a child
// process of its own so that every set-up is cold, and returns the exit
// code: 0 when every run passed.
func runAll(o options, seconds int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wdbench:", err)
		return 1
	}
	code := 0
	for _, trace := range []string{"0", "1"} {
		for _, w := range workloads {
			fmt.Printf("== %s trace=%s\n", w, trace)
			cmd := exec.Command(exe, "--workload", w, "--seed", strconv.FormatInt(o.seed, 10), "--seconds", strconv.Itoa(seconds), "--trace", trace)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "wdbench: %s trace=%s: %v\n", w, trace, err)
				code = 1
			}
		}
	}
	return code
}
