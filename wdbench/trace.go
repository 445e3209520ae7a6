package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark was sized on is a virtual machine sharing its
// cores: over four back-to-back runs the time stolen from it by other
// machines rose from 18% to 42% of its CPU time and wall-clock rates fell
// by half. Work the benchmark can attribute to one thread or to the
// process is therefore timed with CPU clocks, which stolen time does not
// advance; only what a client waits for is timed on the wall clock.

// threadCPU returns the calling OS thread's CPU time. The engine workloads
// run on one locked thread, so it times their Steps and replayed layers.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// processCPU returns the CPU time, user and system, of every thread of the
// process since it started.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// span is one timed call into a module: its name, its start and end in
// nanoseconds since the tracer started, the span that caused it (-1 for a
// root), and the round or request it belongs to.
type span struct {
	name       string
	start, end int64
	parent     int32
	id         int64
}

// maxSpans bounds the spans kept in memory, and so the size of the span
// file; spans past it are counted but not kept. Per-layer metrics come
// from the layer timers, not from the kept spans, so they cover the whole
// run either way.
const maxSpans = 200_000

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
// Spans are timed on the tracer's clock, in nanoseconds since it started.
type tracer struct {
	clock   func() time.Duration
	t0      time.Duration
	spans   []span
	dropped int
}

func newTracer(clock func() time.Duration) *tracer {
	return &tracer{clock: clock, t0: clock(), spans: make([]span, 0, 1<<14)}
}

// wallClock returns a clock reading wall time since it was made.
func wallClock() func() time.Duration {
	t0 := time.Now()
	return func() time.Duration { return time.Since(t0) }
}

// spanTok is an open span: its index (-1 when not kept) and start.
type spanTok struct {
	idx   int32
	start time.Duration
}

// begin opens a span under parent (-1 for a root).
func (t *tracer) begin(name string, parent int32, id int64) spanTok {
	if t == nil {
		return spanTok{idx: -1}
	}
	tok := spanTok{idx: -1, start: t.clock()}
	if len(t.spans) == maxSpans {
		t.dropped++
		return tok
	}
	t.spans = append(t.spans, span{name: name, start: int64(tok.start - t.t0), end: -1, parent: parent, id: id})
	tok.idx = int32(len(t.spans) - 1)
	return tok
}

// end closes an open span and returns its duration (0 on a nil tracer).
// The duration is measured whether or not the span was kept.
func (t *tracer) end(tok spanTok) time.Duration {
	if t == nil {
		return 0
	}
	now := t.clock()
	if tok.idx >= 0 {
		t.spans[tok.idx].end = int64(now - t.t0)
	}
	return now - tok.start
}

// write stores the spans as JSON lines under dir and returns the file's
// path.
func (t *tracer) write(dir, workloadName string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+workloadName+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "{\"workload\":%q,\"spans\":%d,\"dropped\":%d}\n", workloadName, len(t.spans), t.dropped)
	for _, s := range t.spans {
		fmt.Fprintf(bw, "{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"id\":%d}\n", s.name, s.start, s.end, s.parent, s.id)
	}
	if err := bw.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// perRound returns a layer's total time as a mean per round in the given
// unit.
func perRound(total time.Duration, rounds int, unit time.Duration) float64 {
	if rounds == 0 {
		return 0
	}
	return float64(total) / float64(rounds) / float64(unit)
}

// quantile returns the nearest-rank q-quantile of the samples (sorting
// them in place), or 0 for none.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	i := int(q*float64(len(samples))+0.5) - 1
	return samples[min(max(i, 0), len(samples)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sample is one timed call: when it ended, measured from the start of the
// timed region, how long it took, and how many operations it completed.
type sample struct {
	at, dur time.Duration
	ops     int64
}

// windows is the number of equal slices a run's timed region is cut into.
// Even CPU time per operation drifts by ±10% from one second to the next
// on a shared host, so the rate and the median call time are medians over
// the slices: a few noisy slices do not move them.
const windows = 20

// windowed cuts the samples into equal slices of span by completion time
// and returns the medians over the slices of operations per second of
// time inside the calls and of each slice's median call time.
func windowed(samples []sample, span time.Duration) (opsPerSec float64, p50 time.Duration) {
	var rates []float64
	var p50s []time.Duration
	width := span / windows
	next := 0
	for w := 0; w < windows; w++ {
		end := time.Duration(w+1) * width
		if w == windows-1 {
			end = span + 1
		}
		var durs []time.Duration
		var ops int64
		var inCalls time.Duration
		for ; next < len(samples) && samples[next].at < end; next++ {
			s := samples[next]
			durs = append(durs, s.dur)
			ops += s.ops
			inCalls += s.dur
		}
		if len(durs) == 0 {
			continue
		}
		rates = append(rates, float64(ops)/inCalls.Seconds())
		p50s = append(p50s, quantile(durs, 0.50))
	}
	return medianFloat(rates), quantile(p50s, 0.5)
}

// callTimes returns the samples' call times.
func callTimes(samples []sample) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, s := range samples {
		out[i] = s.dur
	}
	return out
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if n := len(v); n%2 == 0 {
		return (v[n/2-1] + v[n/2]) / 2
	}
	return v[len(v)/2]
}
